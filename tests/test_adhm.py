from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest

from superloc import adhm
from superloc import scalars as sc
from superloc.actions import sigma_from_Q, verify_brst
from superloc.adhm import (
    ADHMData,
    GroupElement,
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_action_spec,
    adhm_constraint_scalars,
    adhm_data,
    adhm_fixed_points,
    adhm_fundamental_field,
    adhm_lifted_field,
    adhm_super_chart,
    cartan_params,
    cayley_unitary,
    check_stabilizer,
    constraint_complex,
    constraint_real,
    fermionic_constraints,
    group_act,
    multiplier_completion,
    nmat,
    nmat_eye,
    nmat_norm2,
    nmat_zero,
    random_adhm_data,
    random_unitary,
    rank_bookkeeping,
    unit_phase,
)
from superloc.errors import (
    BadSusy,
    ComputationError,
    NonlinearTtilde,
    NotUnitary,
    ShapeMismatch,
    StabilizerNotTrivial,
)
from superloc.grassmann import (
    CSuper,
    SuperChart,
    SuperFunction,
    add_fields,
    field_is_zero,
    graded_commutator,
    scale_field,
)
from superloc.linalg import (
    det,
    inverse,
    mat_add,
    mat_commutator,
    mat_dagger,
    mat_equal,
    mat_mul,
    mat_scale,
)


def _half_square(Q):
    return scale_field(graded_commutator(Q, Q), Fraction(1, 2))


def _fields_equal(X, Y) -> bool:
    return field_is_zero(add_fields(X, scale_field(Y, Fraction(-1))))


def _body(comp):
    return comp.terms.get((), sc.ZERO)


def _contracted_bodies(lay):
    field = adhm_lifted_field(lay, *cartan_params(lay))
    return [_body(c) for c in field.a]


# ---------------------------------------------------------------------------
# chart layout


def test_chart_counts_and_partners():
    lay = adhm_super_chart(1, 2)
    assert lay.chart.m == 12 and lay.chart.n == 12
    assert lay.chart.n == 2 * (2 * 1 * 1 + 2 * 1 * 2)
    full = adhm_super_chart(1, 2, full=True)
    assert full.chart.m == 18 and full.chart.n == 18
    lay2 = adhm_super_chart(2, 2)
    assert lay2.chart.m == 32
    assert lay2.chart.n == 2 * (2 * 4 + 2 * 4)
    full2 = adhm_super_chart(2, 2, full=True)
    assert full2.chart.m == 56
    assert lay.params == ("phi1", "a1", "e1", "e2")
    assert adhm_super_chart(2, 3).params == ("phi1", "phi2", "a1", "a2", "e1", "e2")


def test_chart_indexing():
    lay = adhm_super_chart(2, 3)
    assert lay.offset("B1") == 0
    assert lay.offset("B2") == 8
    assert lay.offset("I") == 16
    assert lay.offset("J") == 28
    assert lay.chart.coords[lay.coord_index("I", 1, 2)] == "I_12_re"
    assert lay.chart.coords[lay.coord_index("I", 1, 2, imag=True)] == "I_12_im"
    z = lay.boson_entry("B2", 0, 1)
    assert _body(z.re) == sc.sym("B2_01_re")
    psi = lay.fermion_entry("B2", 0, 1)
    assert psi.re.terms == {(lay.coord_index("B2", 0, 1) + 1,): sc.ONE}
    assert psi.im.terms == {(lay.coord_index("B2", 0, 1) + 2,): sc.ONE}
    assert lay.sector_coords("J")[0] == "J_00_re"
    with pytest.raises(ShapeMismatch):
        lay.coord_index("I", 2, 0)


# ---------------------------------------------------------------------------
# numeric constraints and group actions


def test_constraints_zero_data():
    d = adhm_data(nmat_zero(2, 2), nmat_zero(2, 2), nmat_zero(2, 2), nmat_zero(2, 2))
    assert mat_equal(constraint_real(d), nmat_zero(2, 2))
    assert mat_equal(constraint_complex(d), nmat_zero(2, 2))
    assert d.moduli_dimension == 16


def test_constraints_k1_scalars():
    d = adhm_data(
        [[(1, 2)]], [[(0, 3)]], [[(2, 0), (0, 1)]], [[(1, 1)], [(0, 2)]]
    )
    c1 = constraint_real(d)
    assert c1[0][0].re == Fraction(4 + 1) - Fraction(2 + 4)
    assert c1[0][0].im == 0
    c2 = constraint_complex(d)
    want = (
        d.I[0][0] * d.J[0][0] + d.I[0][1] * d.J[1][0]
    )
    assert (c2[0][0] - want).is_zero()


def test_constraint_hermitian_random():
    rng = random.Random(31)
    for _ in range(5):
        d = random_adhm_data(2, 3, rng)
        c1 = constraint_real(d)
        assert mat_equal(c1, mat_dagger(c1))


def test_group_identity():
    rng = random.Random(7)
    d = random_adhm_data(2, 2, rng)
    d2 = group_act(GroupElement(), d)
    for sec in ("B1", "B2", "I", "J"):
        assert mat_equal(getattr(d, sec), getattr(d2, sec))


def test_group_torus_phases():
    rng = random.Random(8)
    d = random_adhm_data(2, 2, rng)
    t1, t2 = unit_phase(rng), unit_phase(rng)
    d2 = group_act(GroupElement(t1=t1, t2=t2), d)
    assert mat_equal(d2.B1, mat_scale(d.B1, t1))
    assert mat_equal(d2.B2, mat_scale(d.B2, t2))
    assert mat_equal(d2.I, d.I)
    assert mat_equal(d2.J, mat_scale(d.J, t1 * t2))


def test_group_rejects_nonunitary():
    d = random_adhm_data(2, 2, random.Random(9))
    bad = nmat([[(2, 0), (0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(NotUnitary):
        group_act(GroupElement(U=bad), d)
    with pytest.raises(NotUnitary):
        group_act(GroupElement(t1=(1, 1)), d)


def test_group_preserves_constraint_norms():
    rng = random.Random(12)
    d = random_adhm_data(2, 2, rng)
    n1, n2 = nmat_norm2(constraint_real(d)), nmat_norm2(constraint_complex(d))
    for _ in range(12):
        g = GroupElement(
            U=random_unitary(2, rng),
            V=random_unitary(2, rng),
            t1=unit_phase(rng),
            t2=unit_phase(rng),
        )
        d2 = group_act(g, d)
        assert nmat_norm2(constraint_real(d2)) == n1
        assert nmat_norm2(constraint_complex(d2)) == n2


def test_complex_constraint_equivariance():
    rng = random.Random(13)
    d = random_adhm_data(2, 2, rng)
    U = random_unitary(2, rng)
    t1, t2 = unit_phase(rng), unit_phase(rng)
    d2 = group_act(GroupElement(U=U, t1=t1, t2=t2), d)
    want = mat_scale(
        mat_mul(mat_mul(U, constraint_complex(d)), mat_dagger(U)), t1 * t2
    )
    assert mat_equal(constraint_complex(d2), want)


def test_cayley_and_inverse_exact():
    rng = random.Random(14)
    U = random_unitary(3, rng)
    assert mat_equal(mat_mul(mat_dagger(U), U), nmat_eye(3))
    assert mat_equal(mat_mul(U, inverse(U)), nmat_eye(3))
    with pytest.raises(ShapeMismatch):
        cayley_unitary(nmat([[(1, 0)]]))


def test_singular_complex_inverse_raises_value_error():
    # second row is (1 + i) times the first
    singular = nmat([[(1, 2), (0, 1)], [(-1, 3), (-1, 1)]])
    with pytest.raises(ValueError, match="singular"):
        inverse(singular)


def test_data_shape_guards():
    with pytest.raises(ShapeMismatch):
        adhm_data([[0, 0]], [[0]], [[0, 0]], [[0], [0]])
    with pytest.raises(ShapeMismatch):
        adhm_data([[0]], [[0]], [[0, 0]], [[0]])


# ---------------------------------------------------------------------------
# even fields


def test_fundamental_zero_params_is_zero():
    lay = adhm_super_chart(1, 2)
    zero1 = [[CSuper.zero(lay.chart)]]
    zero2 = [[CSuper.zero(lay.chart) for _ in range(2)] for _ in range(2)]
    z = CSuper.zero(lay.chart)
    field = adhm_fundamental_field(lay, zero1, zero2, z, z)
    assert field_is_zero(field)


def test_fundamental_cartan_weights_on_I():
    lay = adhm_super_chart(1, 2)
    field = adhm_fundamental_field(lay, *cartan_params(lay))
    binding = {
        "phi1": Fraction(2),
        "a1": Fraction(5),
        "e1": Fraction(0),
        "e2": Fraction(0),
        "I_00_re": Fraction(3),
        "I_00_im": Fraction(7),
        "I_01_re": Fraction(-2),
        "I_01_im": Fraction(4),
    }
    full = {name: binding.get(name, Fraction(0)) for name in lay.chart.coords}
    full.update(binding)
    # dI_s = i(phi - a_s) I_s with a = diag(a1, -a1)
    for s, a_s in ((0, Fraction(5)), (1, Fraction(-5))):
        w = Fraction(2) - a_s
        re_slot = _body(field.a[lay.coord_index("I", 0, s)])
        im_slot = _body(field.a[lay.coord_index("I", 0, s, imag=True)])
        assert sc.evaluate(re_slot, full) == -w * full["I_0%d_im" % s]
        assert sc.evaluate(im_slot, full) == w * full["I_0%d_re" % s]


def test_flow_matches_torus_phases():
    lay = adhm_super_chart(1, 2)
    chart = lay.chart
    zero1 = [[CSuper.zero(chart)]]
    zero2 = [[CSuper.zero(chart) for _ in range(2)] for _ in range(2)]
    e1 = CSuper.imag(SuperFunction.from_scalar(chart, sc.rational(7, 10)))
    e2 = CSuper.imag(SuperFunction.from_scalar(chart, sc.rational(2, 5)))
    field = adhm_fundamental_field(lay, zero1, zero2, e1, e2)
    comps = [sc.compile_numeric(_body(c), chart.coords) for c in field.a]
    rng = random.Random(77)
    start = [rng.uniform(-1, 1) for _ in chart.coords]

    def rhs(vec):
        return [f(tuple(vec)) for f in comps]

    y = list(start)
    steps = 400
    h = 1.0 / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs([v + h / 2 * w for v, w in zip(y, k1)])
        k3 = rhs([v + h / 2 * w for v, w in zip(y, k2)])
        k4 = rhs([v + h * w for v, w in zip(y, k3)])
        y = [
            v + h / 6 * (w1 + 2 * w2 + 2 * w3 + w4)
            for v, w1, w2, w3, w4 in zip(y, k1, k2, k3, k4)
        ]
    for sec, angle in (("B1", 0.7), ("B2", 0.4), ("I", 0.0), ("J", 1.1)):
        rows, cols = lay.shape(sec)
        for i in range(rows):
            for j in range(cols):
                p = lay.coord_index(sec, i, j)
                got = complex(y[p], y[p + 1])
                want = complex(start[p], start[p + 1]) * cmath.exp(1j * angle)
                assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# odd operators


def test_Q_displays_on_matter():
    lay = adhm_super_chart(1, 2)
    p = cartan_params(lay)
    Q = adhm_Q_unconstrained(lay, *p)
    # bosons map to their positional partners
    for idx in range(lay.chart.m):
        assert Q.a[idx].terms == {(idx + 1,): sc.ONE}
    # partners map to the even action components
    fund = adhm_fundamental_field(lay, *p)
    assert all((x - y).is_zero() for x, y in zip(Q.b, fund.a))


def test_Q_unconstrained_squares_to_lift():
    lay = adhm_super_chart(1, 2)
    p = cartan_params(lay)
    Q = adhm_Q_unconstrained(lay, *p)
    assert _fields_equal(_half_square(Q), adhm_lifted_field(lay, *p))


def test_sigma_is_identity_on_matter():
    for k in (1, 2):
        lay = adhm_super_chart(k, 2)
        sig = sigma_from_Q(adhm_Q_unconstrained(lay, *cartan_params(lay)))
        for i in range(lay.chart.m):
            for A in range(lay.chart.n):
                want = sc.ONE if i == A else sc.ZERO
                assert sc.is_zero(sig[i][A] - want)


def test_verify_brst_unconstrained():
    lay = adhm_super_chart(1, 2)
    report = verify_brst(
        adhm_Q_unconstrained(lay, *cartan_params(lay)), adhm_action_spec(lay)
    )
    assert report["passed"]
    names = [c["name"] for c in report["conditions"]]
    assert "square_equals_lift" in names and "sigma_injective" in names


def test_Q_full_displays():
    lay = adhm_super_chart(1, 2, full=True)
    p = cartan_params(lay)
    Q = adhm_Q_full(lay, *p)
    phi = p[0]
    # multipliers map back onto their partners
    for sec in ("HR", "HC"):
        base = lay.offset(sec)
        rows, cols = lay.shape(sec)
        for q in range(2 * rows * cols):
            name = lay.chart.coords[base + q]
            assert _body(Q.b[base + q]) == sc.sym(name)
    # the auxiliary pair: Q(phibar) = eta, Q(eta) = [phi, phibar]
    pb = lay.offset("PB")
    assert Q.a[pb].terms == {(pb + 1,): sc.ONE}
    comm = mat_commutator(phi, lay.boson_matrix("PB"))[0][0]
    assert (Q.b[pb] - comm.re).is_zero()
    assert (Q.b[pb + 1] - comm.im).is_zero()


def test_Q_full_squares_to_lift():
    lay = adhm_super_chart(1, 2, full=True)
    p = cartan_params(lay)
    assert _fields_equal(_half_square(adhm_Q_full(lay, *p)), adhm_lifted_field(lay, *p))


def test_Q_full_requires_multiplier_sector():
    lay = adhm_super_chart(1, 2)
    with pytest.raises(ShapeMismatch):
        adhm_Q_full(lay, *cartan_params(lay))


def _random_superfunction(chart, rng):
    terms = {}
    for _ in range(3):
        if rng.random() < 0.4:
            key = ()
        elif rng.random() < 0.7:
            key = (rng.randint(1, chart.n),)
        else:
            A = rng.randint(1, chart.n - 1)
            key = (A, rng.randint(A + 1, chart.n))
        e = sc.rational(rng.randint(-3, 3))
        for _ in range(2):
            e = e * sc.sym(chart.coords[rng.randint(0, chart.m - 1)])
        terms[key] = terms.get(key, sc.ZERO) + e
    return SuperFunction(chart, terms)


def test_Q_full_squares_numerically_k2():
    lay = adhm_super_chart(2, 2, full=True)
    p = cartan_params(lay)
    Q = adhm_Q_full(lay, *p)
    lift = adhm_lifted_field(lay, *p)
    rng = random.Random(2024)
    names = list(lay.chart.coords) + ["phi1", "phi2", "a1", "e1", "e2"]
    binding = {n: Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for n in names}

    def residual(f):
        d = Q.apply(Q.apply(f)) - lift.apply(f)
        worst = 0.0
        for coeff in d.terms.values():
            worst = max(worst, abs(float(sc.evaluate(coeff, binding))))
        return worst

    for idx in range(lay.chart.m):
        f = SuperFunction.from_scalar(lay.chart, sc.sym(lay.chart.coords[idx]))
        assert residual(f) < 1e-12
    for idx in range(1, lay.chart.n + 1):
        assert residual(SuperFunction.generator(lay.chart, idx)) < 1e-12
    for _ in range(20):
        assert residual(_random_superfunction(lay.chart, rng)) < 1e-12


def test_action_spec_reconstruction():
    lay = adhm_super_chart(2, 2)
    spec = adhm_action_spec(lay)
    fund = adhm_fundamental_field(lay, *cartan_params(lay))
    for i in range(lay.chart.m):
        recon = sc.ZERO
        for alpha, name in enumerate(spec.params):
            recon = recon + sc.sym(name) * spec.T[alpha][i]
        assert sc.is_zero(sc.normalize(recon - _body(fund.a[i])))


# ---------------------------------------------------------------------------
# fermionic constraints


def test_fermionic_constraints_toy():
    chart = SuperChart(("x",), 1)
    x = sc.sym("x")
    (w,) = fermionic_constraints(chart, [x * x])
    assert w.terms == {(1,): sc.normalize(sc.rational(2) * x)}


def test_fermionic_constraints_k1_complex_block():
    lay = adhm_super_chart(1, 2)
    V = adhm_constraint_scalars(lay)
    W = fermionic_constraints(lay.chart, V)
    muI = lay.fermion_matrix("I")
    muJ = lay.fermion_matrix("J")
    I = lay.boson_matrix("I")
    J = lay.boson_matrix("J")
    want = mat_add(mat_mul(muI, J), mat_mul(I, muJ))[0][0]
    assert (W[-2] - want.re).is_zero()
    assert (W[-1] - want.im).is_zero()


def test_fermionic_constraints_match_Q_grade_one():
    lay = adhm_super_chart(1, 2)
    Q = adhm_Q_unconstrained(lay, *cartan_params(lay))
    V = adhm_constraint_scalars(lay)
    for v, w in zip(V, fermionic_constraints(lay.chart, V)):
        assert (Q.apply(SuperFunction.from_scalar(lay.chart, v)) - w).is_zero()


def test_fermionic_constraints_are_the_linearization():
    lay = adhm_super_chart(2, 2)
    V = adhm_constraint_scalars(lay)
    W = fermionic_constraints(lay.chart, V)
    coords = lay.chart.coords
    fns = [sc.compile_numeric(v, coords) for v in V]
    coeff_fns = [
        {idx: sc.compile_numeric(cf, coords) for idx, cf in w.terms.items()} for w in W
    ]
    rng = random.Random(6021)
    step = 1e-6
    for _ in range(30):
        x0 = tuple(rng.uniform(-1, 1) for _ in coords)
        dx = tuple(rng.uniform(-1, 1) for _ in coords)
        plus = tuple(a + step * d for a, d in zip(x0, dx))
        minus = tuple(a - step * d for a, d in zip(x0, dx))
        for f, table in zip(fns, coeff_fns):
            inc = (f(plus) - f(minus)) / 2
            lin = step * sum(
                fn(x0) * dx[idx[0] - 1] for idx, fn in table.items()
            )
            if abs(inc) > 1e-10:
                assert abs(inc - lin) / abs(inc) < 1e-5


def test_fermionic_constraints_need_enough_generators():
    from superloc.errors import DimensionMismatch

    chart = SuperChart(("x", "y"), 1)
    with pytest.raises(DimensionMismatch):
        fermionic_constraints(chart, [sc.sym("x")])


# ---------------------------------------------------------------------------
# multiplier completion


def _sector_completion(k, sector):
    lay = adhm_super_chart(k, 2, full=True)
    bodies = _contracted_bodies(lay)
    coords = lay.chart.coords
    T = {coords[i]: bodies[i] for i in range(lay.offset("HR"))}
    V = adhm_constraint_scalars(lay)
    nreal = 2 * k * k
    block = V[:nreal] if sector == "HR" else V[nreal:]
    H_names = list(lay.sector_coords(sector))
    Ttilde = [bodies[coords.index(name)] for name in H_names]
    return multiplier_completion(block, T, Ttilde, H_names)


def test_multiplier_abelian_toy_flagged():
    N, report = _sector_completion(1, "HR")
    assert all(sc.is_zero(e) for row in N for e in row)
    assert not report["invertible"]
    assert report["pairing_residual_zero"]


def test_multiplier_complex_sector_invertible():
    N, report = _sector_completion(2, "HC")
    assert report["invertible"]
    assert report["pairing_residual_zero"]
    assert report["pairing_residual_max"] == 0.0
    binding = {
        "phi1": Fraction(3, 2),
        "phi2": Fraction(-5, 3),
        "e1": Fraction(1, 4),
        "e2": Fraction(2, 3),
    }
    numeric = [[Fraction(sc.evaluate(e, binding)) for e in row] for row in N]
    eps = binding["e1"] + binding["e2"]
    phis = (binding["phi1"], binding["phi2"])
    want = Fraction(1)
    for i in range(2):
        for j in range(2):
            want *= (phis[i] - phis[j] + eps) ** 2
    assert det(numeric) == want


def test_multiplier_real_sector_has_kernel():
    # adjoint action alone leaves the diagonal fixed, so this block is
    # structurally singular even at generic parameters
    _, report = _sector_completion(2, "HR")
    assert report["pairing_residual_zero"]
    assert not report["invertible"]


def test_multiplier_rejects_nonlinear():
    h = sc.sym("h")
    with pytest.raises(NonlinearTtilde):
        multiplier_completion([sc.ONE], {}, [h * h], ["h"])


def test_multiplier_shape_guard():
    with pytest.raises(ShapeMismatch):
        multiplier_completion([sc.ONE], {}, [], ["h"])


# ---------------------------------------------------------------------------
# bookkeeping and fixed points


def test_rank_bookkeeping_values():
    assert rank_bookkeeping(2, 3, 2) == 24
    assert rank_bookkeeping(1, 2, 1) == 4
    assert rank_bookkeeping(1, 1, 4) == 8
    with pytest.raises(BadSusy):
        rank_bookkeeping(1, 1, 3)
    with pytest.raises(ShapeMismatch):
        rank_bookkeeping(0, 1, 2)


def test_fixed_points_k1():
    points = adhm_fixed_points(1, 2)
    assert len(points) == 2
    a1, e1, e2 = sc.sym("a1"), sc.sym("e1"), sc.sym("e2")
    first = points[0]
    assert sc.is_zero(sc.normalize(first.phi - a1))
    expected = [e1, e2, sc.rational(2) * a1, sc.rational(-2) * a1 + e1 + e2]
    assert len(first.weights) == 4
    for got, want in zip(first.weights, expected):
        assert sc.is_zero(sc.normalize(got - want))
    second = points[1]
    assert sc.is_zero(sc.normalize(second.phi + a1))
    for fp in points:
        assert constraint_real(fp.data)[0][0].re == 1
        assert mat_equal(constraint_complex(fp.data), nmat_zero(1, 1))


def test_fixed_points_raise_when_constraint_fails(monkeypatch):
    # an invariant, so it must hold under python -O as well: an exception
    monkeypatch.setattr(adhm, "constraint_complex", lambda d: nmat([[(1, 0)]]))
    with pytest.raises(ComputationError):
        adhm_fixed_points(1, 2)


def test_fixed_points_scale_and_guards():
    points = adhm_fixed_points(1, 2, zeta=Fraction(9, 4))
    assert constraint_real(points[0].data)[0][0].re == Fraction(9, 4)
    with pytest.raises(ValueError):
        adhm_fixed_points(1, 2, zeta=Fraction(2))
    with pytest.raises(ValueError):
        adhm_fixed_points(1, 2, zeta=Fraction(-1))
    with pytest.raises(ShapeMismatch):
        adhm_fixed_points(2, 2)


def test_stabilizer_guard():
    d = adhm_data([[0]], [[0]], [[0, 0]], [[0], [0]])
    with pytest.raises(StabilizerNotTrivial):
        check_stabilizer(d)
    ok = adhm_data([[0]], [[0]], [[1, 0]], [[0], [0]])
    check_stabilizer(ok)

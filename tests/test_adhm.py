from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest

from superloc import adhm
from superloc import scalars as sc
from superloc.actions import sigma_from_Q, verify_brst
from superloc.adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_binding,
    adhm_constraint_scalars,
    adhm_fixed_points,
    adhm_lifted_field,
    adhm_super_chart,
    cayley_unitary,
    check_stabilizer,
    entry_weight,
    group_act,
    multiplier_completion,
    random_datum,
    random_unitary,
    rank_bookkeeping,
    real_form,
    sector_completion,
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
    SuperChart,
    SuperFunction,
    SuperVectorField,
    field_is_zero,
)
from superloc.linalg import (
    det,
    identity,
    inverse,
    mat_add,
    mat_commutator,
    mat_equal,
    mat_mul,
    transpose,
)


def _body(comp):
    return comp.terms.get((), sc.ZERO)


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


def test_chart_indexing(boson_matrix):
    lay = adhm_super_chart(2, 3)
    assert lay.offset("B1") == 0
    assert lay.offset("B2") == 8
    assert lay.offset("I") == 16
    assert lay.offset("J") == 28
    assert lay.chart.coords[lay.coord_index("I", 1, 2)] == "I_12_re"
    assert lay.chart.coords[lay.coord_index("I", 1, 2, imag=True)] == "I_12_im"
    z = boson_matrix(lay, "B2")[0][1]
    assert _body(z.re) == sc.sym("B2_01_re")
    # Q sends each real coordinate to its positional odd partner
    p = lay.coord_index("B2", 0, 1)
    psi = adhm_Q_unconstrained(lay).a
    assert psi[p].terms == {(p + 1,): sc.ONE}
    assert psi[p + 1].terms == {(p + 2,): sc.ONE}
    assert lay.chart.coords[lay.offset("J")] == "J_00_re"
    with pytest.raises(ShapeMismatch):
        lay.coord_index("I", 2, 0)


def test_chart_names_are_distinct_up_to_k_11():
    # entry (i, j) is named by its digits, so from k = 12 on B1's entries
    # (1, 10) and (11, 0) share a name, and the chart refuses it
    with pytest.raises(ShapeMismatch, match="chart coordinate 'B1_110_re' is repeated"):
        adhm_super_chart(12, 2)
    lay = adhm_super_chart(11, 11, full=True)
    coords = lay.chart.coords
    assert len(set(coords)) == len(coords) == sum(2 * r * c for _, r, c in lay.sectors)


# ---------------------------------------------------------------------------
# data as bindings: constraints and group actions


def _cmul(z, w) -> tuple:
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _pairs(values, cols) -> list:
    """Flat (re, im, ...) values as rows of (re, im) pairs."""
    pairs = list(zip(values[0::2], values[1::2]))
    return [pairs[i:i + cols] for i in range(0, len(pairs), cols)]


def _zero(rows, cols) -> list:
    return [[(0, 0)] * cols for _ in range(rows)]


def test_binding_round_trips_through_the_chart(boson_matrix):
    rng = random.Random(5)
    lay = adhm_super_chart(2, 3)

    def draw():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    blocks = {}
    for name in adhm.MATTER_SECTORS:
        rows, cols = lay.shape(name)
        blocks[name] = [[(draw(), draw()) for _ in range(cols)] for _ in range(rows)]
    binding = adhm_binding(lay, *(blocks[name] for name in adhm.MATTER_SECTORS))
    assert list(binding) == list(lay.chart.coords)
    for name in adhm.MATTER_SECTORS:
        got = [
            [(sc.evaluate(_body(z.re), binding), sc.evaluate(_body(z.im), binding)) for z in row]
            for row in boson_matrix(lay, name)
        ]
        assert got == blocks[name]


def test_constraints_zero_data(constraint_values):
    lay = adhm_super_chart(2, 2)
    zero = _zero(2, 2)
    real, cplx = constraint_values(lay, adhm_binding(lay, zero, zero, zero, zero))
    assert real == [0] * 8 and cplx == [0] * 8
    assert rank_bookkeeping(2, 2, 2) == 16


def test_constraints_k1_scalars(constraint_values):
    lay = adhm_super_chart(1, 2)
    I, J = [[(2, 0), (0, 1)]], [[(1, 1)], [(0, 2)]]
    d = adhm_binding(lay, [[(1, 2)]], [[(0, 3)]], I, J)
    c1, c2 = constraint_values(lay, d)
    assert c1[0] == Fraction(4 + 1) - Fraction(2 + 4)
    assert c1[1] == 0
    want = [a + b for a, b in zip(_cmul(I[0][0], J[0][0]), _cmul(I[0][1], J[1][0]))]
    assert c2 == want


@pytest.mark.parametrize("k, N", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
@pytest.mark.parametrize("full", [False, True], ids=["matter", "full"])
def test_constraint_scalars_match_the_dense_moment_maps(k, N, full, dense_constraints):
    lay = adhm_super_chart(k, N, full)
    got, want = adhm_constraint_scalars(lay), dense_constraints(lay)
    assert len(got) == len(want) == 4 * k * k
    assert [sc.to_text(v) for v in got] == [sc.to_text(v) for v in want]


def test_transpose_of_a_real_form_is_the_real_form_of_the_dagger():
    rng = random.Random(30)

    def draw():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    for rows, cols in ((1, 1), (2, 2), (2, 3), (3, 1)):
        M = [[(draw(), draw()) for _ in range(cols)] for _ in range(rows)]
        dagger = [[(re, -im) for re, im in column] for column in zip(*M)]
        assert transpose(real_form(M)) == real_form(dagger)


def test_constraint_hermitian_random(constraint_values):
    rng = random.Random(31)
    lay = adhm_super_chart(2, 3)
    for _ in range(5):
        c1 = real_form(_pairs(constraint_values(lay, random_datum(lay, rng))[0], 2))
        assert mat_equal(c1, transpose(c1))


def test_group_identity():
    rng = random.Random(7)
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, rng)
    assert group_act(lay, d) == d


def test_group_torus_phases():
    rng = random.Random(8)
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, rng)
    t1, t2 = unit_phase(rng), unit_phase(rng)
    d2 = group_act(lay, d, t1=t1, t2=t2)
    for name, t in (("B1", t1), ("B2", t2), ("I", (1, 0)), ("J", _cmul(t1, t2))):
        want = [[_cmul(t, z) for z in row] for row in adhm._block(lay, d, name)]
        assert adhm._block(lay, d2, name) == want


def test_group_rejects_nonunitary():
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, random.Random(9))
    bad = real_form([[(2, 0), (0, 0)], [(0, 0), (1, 0)]])
    with pytest.raises(NotUnitary):
        group_act(lay, d, U=bad)
    with pytest.raises(NotUnitary):
        group_act(lay, d, V=bad)
    with pytest.raises(NotUnitary):
        group_act(lay, d, t1=(1, 1))
    with pytest.raises(NotUnitary):
        group_act(lay, d, t2=(Fraction(1, 2), Fraction(1, 2)))


def test_group_rejects_an_orthogonal_block_that_is_not_complex_linear():
    # complex conjugation on C^2: orthogonal in real form, but it
    # anticommutes with multiplication by i
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, random.Random(10))
    conj = [[Fraction(int(i == j) * (1 if i < 2 else -1)) for j in range(4)] for i in range(4)]
    assert mat_equal(mat_mul(transpose(conj), conj), identity(4))
    with pytest.raises(NotUnitary):
        group_act(lay, d, U=conj)
    with pytest.raises(NotUnitary):
        group_act(lay, d, V=conj)


def test_group_preserves_constraint_norms(constraint_norms):
    rng = random.Random(12)
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, rng)
    norms = constraint_norms(lay, d)
    for _ in range(12):
        U, V = random_unitary(2, rng), random_unitary(2, rng)
        d2 = group_act(lay, d, U, V, unit_phase(rng), unit_phase(rng))
        assert constraint_norms(lay, d2) == norms


def test_complex_constraint_equivariance(constraint_values):
    rng = random.Random(13)
    lay = adhm_super_chart(2, 2)
    d = random_datum(lay, rng)
    U = random_unitary(2, rng)
    t1, t2 = unit_phase(rng), unit_phase(rng)
    d2 = group_act(lay, d, U=U, t1=t1, t2=t2)
    t = _cmul(t1, t2)
    phase = real_form([[t, (0, 0)], [(0, 0), t]])
    c = real_form(_pairs(constraint_values(lay, d)[1], 2))
    want = mat_mul(phase, mat_mul(mat_mul(U, c), transpose(U)))
    assert mat_equal(real_form(_pairs(constraint_values(lay, d2)[1], 2)), want)


def test_cayley_and_inverse_exact():
    rng = random.Random(14)
    U = random_unitary(3, rng)
    i = real_form([[(0, 1) if r == c else (0, 0) for c in range(3)] for r in range(3)])
    assert mat_equal(mat_mul(transpose(U), U), identity(6))
    assert mat_equal(mat_mul(U, i), mat_mul(i, U))
    assert mat_equal(mat_mul(U, inverse(U)), identity(6))
    with pytest.raises(ShapeMismatch):
        cayley_unitary(real_form([[(1, 0)]]))


def test_data_shape_guards():
    lay = adhm_super_chart(1, 2)
    with pytest.raises(ShapeMismatch):
        adhm_binding(lay, _zero(1, 2), _zero(1, 1), _zero(1, 2), _zero(2, 1))
    with pytest.raises(ShapeMismatch):
        adhm_binding(lay, _zero(1, 1), _zero(1, 1), _zero(1, 2), _zero(1, 1))


# ---------------------------------------------------------------------------
# even fields


def _bound(field, values) -> SuperVectorField:
    """The field with the Cartan symbols bound to `values`."""

    def bind(comp):
        return SuperFunction(
            comp.chart, {idx: sc.substitute(c, values) for idx, c in comp.terms.items()}
        )

    return SuperVectorField(
        field.chart, field.parity, tuple(map(bind, field.a)), tuple(map(bind, field.b))
    )


def test_fundamental_zero_params_is_zero():
    lay = adhm_super_chart(1, 2)
    field = _bound(adhm_lifted_field(lay), {name: sc.ZERO for name in lay.params})
    assert field_is_zero(field)


def test_fundamental_cartan_weights_on_I():
    lay = adhm_super_chart(1, 2)
    field = adhm_lifted_field(lay)
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
    values = {"phi1": sc.ZERO, "a1": sc.ZERO, "e1": sc.rational(7, 10), "e2": sc.rational(2, 5)}
    field = _bound(adhm_lifted_field(lay), values)
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


def test_entry_weight_reads_the_charge_table():
    lay = adhm_super_chart(2, 3, full=True)
    phi1, phi2, a1, a2, e1, e2 = map(sc.sym, lay.params)
    cases = {
        ("B1", 0, 1): phi1 - phi2 + e1,
        ("B2", 1, 1): e2,
        ("I", 1, 2): phi2 + a1 + a2,
        ("J", 0, 1): a1 - phi2 + e1 + e2,
        ("HR", 1, 0): phi2 - phi1,
        ("HC", 0, 0): e1 + e2,
        ("PB", 0, 1): phi1 - phi2,
    }
    for (name, i, j), want in cases.items():
        assert entry_weight(lay, name, i, j) == sc.normalize(want)
    with pytest.raises(ShapeMismatch):
        entry_weight(lay, "I", 2, 0)
    with pytest.raises(KeyError):
        entry_weight(adhm_super_chart(2, 3), "HC", 0, 0)


@pytest.mark.parametrize("full", [False, True], ids=["matter", "full"])
@pytest.mark.parametrize("k, N", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
def test_builders_match_the_dense_cartan_product(k, N, full, dense_fields):
    # term for term, against L X - X R + (n1 e1 + n2 e2) X with L and R the
    # diagonal Cartan matrices, on every sector's bosons and partners
    lay = adhm_super_chart(k, N, full=full)
    got = {"lift": adhm_lifted_field(lay), "Q_unconstrained": adhm_Q_unconstrained(lay)}
    if full:
        got["Q_full"] = adhm_Q_full(lay)
    want = dense_fields(lay)
    assert list(got) == list(want)
    for name, field in got.items():
        assert field.parity == want[name].parity
        assert [c.terms for c in field.a + field.b] == [
            c.terms for c in want[name].a + want[name].b
        ]


# ---------------------------------------------------------------------------
# odd operators


def test_Q_displays_on_matter():
    lay = adhm_super_chart(1, 2)
    Q = adhm_Q_unconstrained(lay)
    # bosons map to their positional partners
    for idx in range(lay.chart.m):
        assert Q.a[idx].terms == {(idx + 1,): sc.ONE}
    # partners map to the even action components
    lift = adhm_lifted_field(lay)
    assert all((x - y).is_zero() for x, y in zip(Q.b, lift.a))


def test_Q_unconstrained_squares_to_lift(square_reference):
    lay = adhm_super_chart(1, 2)
    Q = adhm_Q_unconstrained(lay)
    assert field_is_zero(square_reference(Q, adhm_lifted_field(lay)))


def test_sigma_is_identity_on_matter():
    for k in (1, 2):
        lay = adhm_super_chart(k, 2)
        sig = sigma_from_Q(adhm_Q_unconstrained(lay))
        for i in range(lay.chart.m):
            for A in range(lay.chart.n):
                want = sc.ONE if i == A else sc.ZERO
                assert sc.is_zero(sig[i][A] - want)


def test_verify_brst_unconstrained():
    lay = adhm_super_chart(1, 2)
    report = verify_brst(adhm_Q_unconstrained(lay), adhm_lifted_field(lay), lay.params)
    assert report["passed"]
    names = [c["name"] for c in report["conditions"]]
    assert "square_equals_lift" in names and "sigma_injective" in names


def test_Q_full_displays(cartan_matrices, boson_matrix):
    lay = adhm_super_chart(1, 2, full=True)
    Q = adhm_Q_full(lay)
    phi = cartan_matrices(lay)["phi"]
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
    comm = mat_commutator(phi, boson_matrix(lay, "PB"))[0][0]
    assert (Q.b[pb] - comm.re).is_zero()
    assert (Q.b[pb + 1] - comm.im).is_zero()


def test_Q_full_squares_to_lift(square_reference):
    lay = adhm_super_chart(1, 2, full=True)
    assert field_is_zero(square_reference(adhm_Q_full(lay), adhm_lifted_field(lay)))


def test_Q_full_requires_multiplier_sector():
    lay = adhm_super_chart(1, 2)
    with pytest.raises(ShapeMismatch):
        adhm_Q_full(lay)


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
    Q = adhm_Q_full(lay)
    lift = adhm_lifted_field(lay)
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


# ---------------------------------------------------------------------------
# fermionic constraints: the odd shadow Q(V) of each constraint V


def _odd_shadows(lay, V):
    Q = adhm_Q_unconstrained(lay)
    return [Q.apply(SuperFunction.from_scalar(lay.chart, v)) for v in V]


def test_fermionic_constraints_toy():
    chart = SuperChart(("x",), 1)
    x = sc.sym("x")
    Q = SuperVectorField(chart, 1, [SuperFunction.generator(chart, 1)], [SuperFunction.zero(chart)])
    w = Q.apply(SuperFunction.from_scalar(chart, x * x))
    assert w.terms == {(1,): sc.normalize(sc.rational(2) * x)}


def test_fermionic_constraints_k1_complex_block(boson_matrix, fermion_matrix):
    lay = adhm_super_chart(1, 2)
    W = _odd_shadows(lay, adhm_constraint_scalars(lay))
    muI = fermion_matrix(lay, "I")
    muJ = fermion_matrix(lay, "J")
    I = boson_matrix(lay, "I")
    J = boson_matrix(lay, "J")
    want = mat_add(mat_mul(muI, J), mat_mul(I, muJ))[0][0]
    assert (W[-2] - want.re).is_zero()
    assert (W[-1] - want.im).is_zero()


def test_fermionic_constraints_are_the_linearization():
    lay = adhm_super_chart(2, 2)
    V = adhm_constraint_scalars(lay)
    W = _odd_shadows(lay, V)
    coords = lay.chart.coords
    fns = [sc.compile_numeric(v, coords) for v in V]
    coeff_fns = [
        {idx: sc.compile_numeric(cf, coords) for idx, cf in w.terms.items()} for w in W
    ]
    # Q(V) is first order in the odd generators: one theta per term
    assert all(len(idx) == 1 for table in coeff_fns for idx in table)
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


# ---------------------------------------------------------------------------
# multiplier completion


def _sector_completion(k, sector):
    lay = adhm_super_chart(k, 2, full=True)
    lifted = adhm_lifted_field(lay)
    return sector_completion(lay, lifted, adhm_constraint_scalars(lay), sector)


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


def _perturbed_completion(k, sector, entry, change):
    """sector_completion with the lift's even components on one complex
    entry (sector name, i, j) replaced by `change` of their bodies."""
    lay = adhm_super_chart(k, 2, full=True)
    lifted = adhm_lifted_field(lay)
    a = list(lifted.a)
    q = lay.coord_index(*entry)
    for p in (q, q + 1):
        a[p] = SuperFunction.from_scalar(lay.chart, change(_body(a[p])))
    lifted = SuperVectorField(lay.chart, 0, tuple(a), lifted.b)
    return sector_completion(lay, lifted, adhm_constraint_scalars(lay), sector)


def test_multiplier_pairing_fails_with_a_wrong_multiplier_weight():
    # one HC multiplier pair turns by e2 where its weight has e1
    _, report = _perturbed_completion(
        2, "HC", ("HC", 0, 1), lambda w: sc.substitute(w, {"e1": sc.sym("e2")})
    )
    assert not report["pairing_residual_zero"]
    assert report["pairing_residual_max"] > 0


def test_multiplier_pairing_fails_with_a_matter_entry_turned_backwards():
    # B1's entry (0, 1) turns by minus its weight; the multipliers do not follow
    _, report = _perturbed_completion(2, "HR", ("B1", 0, 1), lambda w: sc.ZERO - w)
    assert not report["pairing_residual_zero"]
    assert report["pairing_residual_max"] > 0


def test_multiplier_invertibility_is_certified_exactly():
    # a float or a division by zero at a sample certifies nothing
    x, h = sc.sym("x"), sc.sym("h")
    _, report = multiplier_completion([x], {}, [h * sc.exp(x)], ["h"])
    assert not report["invertible"]
    # x = 1 is among the samples; the others certify N = (x - 1)^-1
    _, report = multiplier_completion([x], {}, [h * (x - sc.ONE) ** (-1)], ["h"])
    assert report["invertible"]


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


def _fixed_points(k, N, full=False) -> list:
    lay = adhm_super_chart(k, N, full=full)
    return adhm_fixed_points(lay, adhm_constraint_scalars(lay))


def test_fixed_points_k1(constraint_values):
    points = _fixed_points(1, 2)
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
    lay = adhm_super_chart(1, 2)
    for fp in points:
        real, cplx = constraint_values(lay, fp.binding)
        assert real[0] == 1
        assert cplx == [0, 0]


def test_fixed_points_raise_when_constraint_fails():
    # an invariant, so it must hold under python -O as well: an exception;
    # here the complex constraint reads 1 + 0i
    lay = adhm_super_chart(1, 2)
    with pytest.raises(ComputationError):
        adhm_fixed_points(lay, [sc.ONE, sc.ZERO, sc.ONE, sc.ZERO])


@pytest.mark.parametrize("charge, weight", [((2, 0), "2\\*e1"), ((0, 0), "0")], ids=["2e1", "0"])
def test_fixed_points_raise_when_a_weight_to_remove_is_missing(monkeypatch, charge, weight):
    # a complex moment map of charge 2 e1 has no tangent direction to cancel;
    # one of charge 0 cancels the gauge weight 0 a second time, after HR
    monkeypatch.setitem(adhm._CHARGES, "HC", ("gauge", "gauge", charge))
    with pytest.raises(ComputationError, match="no tangent weight %s to remove" % (weight,)):
        _fixed_points(1, 2)


def test_fixed_points_scale_and_guards(constraint_values):
    points = _fixed_points(1, 3)
    lay = adhm_super_chart(1, 3)
    assert all(constraint_values(lay, fp.binding)[0][0] == 1 for fp in points)
    with pytest.raises(ShapeMismatch):
        _fixed_points(2, 2)
    with pytest.raises(ShapeMismatch):
        _fixed_points(1, 1)


@pytest.mark.parametrize("N", [2, 3])
def test_fixed_points_read_the_same_on_the_full_chart(N):
    # the full chart adds multiplier coordinates after the matter ones, so a
    # datum binds the same coordinates to the same values
    for matter, full in zip(_fixed_points(1, N), _fixed_points(1, N, full=True)):
        assert list(matter.binding.items()) == list(full.binding.items())
        assert (matter.r, matter.phi, matter.weights) == (full.r, full.phi, full.weights)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_charge_table_gives_the_fixed_point_weights(N):
    # at phi = a_r the flow's weight of each matter entry, leaving out the
    # I entry (weight 0) and the J entry (weight e1 + e2) of frame r, gives
    # the tangent weights, in order: e1, e2, a_r - a_s and a_s - a_r + e1 + e2.
    # The symbolic substitution below is a route independent of the character.
    e1, e2 = sc.sym("e1"), sc.sym("e2")
    a = [sc.sym("a%d" % (s + 1,)) for s in range(N - 1)]
    a.append(sc.ZERO - sum(a, sc.ZERO))
    lay = adhm_super_chart(1, N)
    for fp in _fixed_points(1, N):
        others = [s for s in range(N) if s != fp.r]
        literal = [e1, e2] + [a[fp.r] - a[s] for s in others]
        literal += [a[s] - a[fp.r] + e1 + e2 for s in others]
        assert fp.weights == tuple(sc.normalize(w) for w in literal)
        # 2kN directions at k = 1, none of them fixed by the torus
        assert len(fp.weights) == 2 * N
        assert sc.ZERO not in fp.weights
        dropped = {("I", 0, fp.r): [], ("J", fp.r, 0): []}
        weights = []
        for name in adhm.MATTER_SECTORS:
            rows, cols = lay.shape(name)
            for i in range(rows):
                for j in range(cols):
                    w = sc.substitute(entry_weight(lay, name, i, j), {"phi1": fp.phi})
                    dropped.get((name, i, j), weights).append(sc.to_text(w))
        assert weights == [sc.to_text(w) for w in fp.weights]
        assert list(dropped.values()) == [["0"], [sc.to_text(sc.normalize(e1 + e2))]]


def test_stabilizer_guard():
    lay = adhm_super_chart(1, 2)
    zero = _zero(1, 1)
    d = adhm_binding(lay, zero, zero, _zero(1, 2), _zero(2, 1))
    with pytest.raises(StabilizerNotTrivial):
        check_stabilizer(lay, d)
    ok = adhm_binding(lay, zero, zero, [[(1, 0), (0, 0)]], _zero(2, 1))
    check_stabilizer(lay, ok)

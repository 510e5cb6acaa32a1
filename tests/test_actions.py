"""Action specs, the equivariant differential, and BRST verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from superloc import actions
from superloc import scalars as sc
from superloc.actions import (
    ActionSpec,
    action_lift,
    check_sigma_parallel,
    christoffel,
    fundamental_field,
    kahler_Q,
    kahler_lift,
    metric_invariance_report,
    positive_definite_report,
    residual_verdict,
    sample_bindings,
    sigma_from_Q,
    square_residual,
    tautological_Q,
    verify_brst,
)
from superloc.adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_lifted_field,
    adhm_super_chart,
)
from superloc.errors import (
    DimensionMismatch,
    NotInjective,
    NotLinearInTheta,
    NotTautological,
    OddComplexDimension,
    ShapeMismatch,
)
from superloc.actions import _coordinate_free, _is_affine
from superloc.geometry import PLANE_ROTATION, sphere_chart
from superloc.grassmann import (
    SuperChart,
    SuperFunction,
    SuperVectorField,
    field_is_zero,
    parse_super,
    to_super_text,
)

X = sc.sym("x")
Y = sc.sym("y")
T = sc.sym("t")

CHART = SuperChart(("x", "y"), 2)

ROTATION = ActionSpec(("t",), CHART, ((sc.ZERO - Y, X),))
DILATION = ActionSpec(("t",), CHART, ((X, Y),))

# the torus on C^2 in holomorphic coordinates, with weights e_j on z_j
CHART4 = SuperChart(("z1", "zb1", "z2", "zb2"), 2)
TORUS = ActionSpec(
    ("e1", "e2"),
    CHART4,
    (
        (sc.sym("z1"), -sc.sym("zb1"), sc.ZERO, sc.ZERO),
        (sc.ZERO, sc.ZERO, sc.sym("z2"), -sc.sym("zb2")),
    ),
)

TAUT4 = SuperChart(("x1", "y1", "x2", "y2"), 4)
TORUS_TAUT = ActionSpec(
    ("e1", "e2"),
    TAUT4,
    (
        (sc.ZERO - sc.sym("y1"), sc.sym("x1"), sc.ZERO, sc.ZERO),
        (sc.ZERO, sc.ZERO, sc.ZERO - sc.sym("y2"), sc.sym("x2")),
    ),
)


def _exterior_d(f: SuperFunction) -> SuperFunction:
    chart = f.chart
    a = tuple(SuperFunction.generator(chart, i + 1) for i in range(chart.m))
    b = tuple(SuperFunction.zero(chart) for _ in range(chart.n))
    return SuperVectorField(chart, 1, a, b).apply(f)


def _contract(f: SuperFunction, spec: ActionSpec) -> SuperFunction:
    chart = spec.chart
    a = tuple(SuperFunction.zero(chart) for _ in range(chart.m))
    b = []
    for A in range(chart.n):
        comp = sc.ZERO
        for alpha, name in enumerate(spec.params):
            comp = comp + sc.sym(name) * spec.T[alpha][A]
        b.append(SuperFunction.from_scalar(chart, comp))
    return SuperVectorField(chart, 1, a, tuple(b)).apply(f)


def _cartan_lie(f: SuperFunction, spec: ActionSpec) -> SuperFunction:
    return _exterior_d(_contract(f, spec)) + _contract(_exterior_d(f), spec)


def _random_forms(chart, count, seed):
    rng = random.Random(seed)
    coords = chart.coords
    out = []
    indices = [()]
    for k in range(1, chart.n + 1):
        indices += _tuples(chart.n, k)
    for _ in range(count):
        terms = {}
        for idx in indices:
            if rng.random() < 0.4:
                continue
            coeff = sc.rational(rng.randint(-3, 3))
            for c in coords:
                if rng.random() < 0.5:
                    coeff = coeff * sc.sym(c) ** rng.randint(1, 2)
            terms[idx] = coeff
        out.append(SuperFunction(chart, terms))
    return out


def _tuples(n, k):
    if k == 0:
        return [()]
    out = []

    def rec(start, chosen):
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for i in range(start, n + 1):
            rec(i + 1, chosen + [i])

    rec(1, [])
    return out


def test_fundamental_field_rotation():
    field = fundamental_field(ROTATION)
    assert field.a[0] == SuperFunction.from_scalar(CHART, sc.ZERO - T * Y)
    assert field.a[1] == SuperFunction.from_scalar(CHART, T * X)
    assert all(comp.is_zero() for comp in field.b)


def test_lifted_field_annihilates_invariants():
    field = action_lift(ROTATION)
    r2 = parse_super(CHART, "x^2 + y^2")
    vol = parse_super(CHART, "th1*th2")
    ang = parse_super(CHART, "x*th2 - y*th1")
    for inv in (r2, vol, ang):
        assert field.apply(inv).is_zero()


def test_action_lift_picks_the_spec_lift():
    # the tautological lift on a square chart: theta^B d(flow_A)/dx^B
    # d/dtheta^A, one derivative of the flow per (A, B); else no fiber part
    assert action_lift(ROTATION) == SuperVectorField(
        CHART, 0, fundamental_field(ROTATION).a,
        (parse_super(CHART, "-t*th2"), parse_super(CHART, "t*th1")),
    )
    assert action_lift(DILATION).b == (parse_super(CHART, "t*th1"), parse_super(CHART, "t*th2"))
    assert action_lift(TORUS) == fundamental_field(TORUS)


def test_tautological_Q_requires_square_chart():
    with pytest.raises(NotTautological):
        tautological_Q(TORUS)


def test_equivariant_differential_on_angular_form():
    alpha = parse_super(CHART, "x*th2 - y*th1")
    out = tautological_Q(ROTATION).apply(alpha)
    expected = parse_super(CHART, "2*th1*th2 + t*(x^2 + y^2)")
    assert (out - expected).is_zero()


def test_differential_extends_exterior_plus_contraction():
    # on a translated 1-form the operator is d plus contraction
    for f in _random_forms(CHART, 12, seed=401):
        lhs = tautological_Q(ROTATION).apply(f)
        rhs = _exterior_d(f) + _contract(f, ROTATION)
        assert (lhs - rhs).is_zero()


def test_square_is_lie_derivative():
    for spec in (ROTATION, DILATION):
        Q = tautological_Q(spec)
        lift = action_lift(spec)
        for f in _random_forms(spec.chart, 10, seed=402):
            assert (Q.apply(Q.apply(f)) - _cartan_lie(f, spec)).is_zero()
            assert (lift.apply(f) - _cartan_lie(f, spec)).is_zero()


def test_square_as_fields(square_reference):
    Q = tautological_Q(ROTATION)
    assert field_is_zero(square_reference(Q, action_lift(ROTATION)))


def test_verify_brst_rotation_passes():
    Q = tautological_Q(ROTATION)
    report = verify_brst(Q, action_lift(ROTATION), ROTATION.params)
    assert report["passed"]
    by_name = {c["name"]: c["status"] for c in report["conditions"]}
    assert by_name["square_equals_lift"] == "pass"
    assert by_name["equivariance_infinitesimal"] == "pass"
    assert by_name["equivariance_finite"] == "pass"
    assert by_name["sigma_injective"] == "pass"


def test_verify_brst_torus_tautological_passes():
    Q = tautological_Q(TORUS_TAUT)
    report = verify_brst(Q, action_lift(TORUS_TAUT), TORUS_TAUT.params)
    assert report["passed"]
    assert all(
        c["status"] == "pass" for c in report["conditions"]
    ), report["conditions"]


def test_verify_brst_names_only_the_failing_parameter():
    # doubling Q(theta^3) breaks [dlift/de2, Q] = 0 but leaves [dlift/de1, Q] = 0
    Q = tautological_Q(TORUS_TAUT)
    b = Q.b[:2] + (2 * Q.b[2],) + Q.b[3:]
    broken = SuperVectorField(TAUT4, 1, Q.a, b)
    report = verify_brst(broken, action_lift(TORUS_TAUT), TORUS_TAUT.params)
    by_name = {c["name"]: c for c in report["conditions"]}
    assert by_name["equivariance_infinitesimal"]["status"] == "fail"
    assert by_name["equivariance_infinitesimal"]["residual"] == ["e2"]


def test_verify_brst_flags_wrong_sign():
    good = tautological_Q(ROTATION)
    flipped = SuperVectorField(
        CHART, 1, good.a, tuple(-comp for comp in good.b)
    )
    report = verify_brst(flipped, action_lift(ROTATION), ROTATION.params)
    assert not report["passed"]
    assert report["conditions"][0]["status"] == "fail"
    assert report["conditions"][0]["residual"]


def test_verify_brst_flags_broken_symbol():
    good = tautological_Q(ROTATION)
    th1 = SuperFunction.generator(CHART, 1)
    degenerate = SuperVectorField(CHART, 1, (th1, 2 * th1), good.b)
    report = verify_brst(degenerate, action_lift(ROTATION), ROTATION.params)
    by_name = {c["name"]: c["status"] for c in report["conditions"]}
    assert by_name["sigma_injective"] == "fail"
    assert not report["passed"]


def _finite_status(Q, lift, params):
    report = verify_brst(Q, lift, params)
    return {c["name"]: c["status"] for c in report["conditions"]}["equivariance_finite"]


def test_verify_brst_skips_finite_equivariance_of_a_nonlinear_base_action():
    spec = ActionSpec(("t",), CHART, ((X * X, Y),))
    status = _finite_status(tautological_Q(spec), action_lift(spec), spec.params)
    assert status == "skipped(nonlinear base action)"


def test_verify_brst_skips_finite_equivariance_of_a_coordinate_dependent_fiber():
    lift = action_lift(ROTATION)
    fiber = (lift.b[0] + parse_super(CHART, "x*th2"), *lift.b[1:])
    bent = SuperVectorField(CHART, 0, lift.a, fiber)
    status = _finite_status(tautological_Q(ROTATION), bent, ROTATION.params)
    assert status == "skipped(coordinate-dependent fiber action)"


def test_verify_brst_skips_finite_equivariance_of_odd_components_with_theta():
    Q = tautological_Q(ROTATION)
    shifted = SuperVectorField(CHART, 1, Q.a, (Q.b[0] + parse_super(CHART, "th1*th2"), *Q.b[1:]))
    status = _finite_status(shifted, action_lift(ROTATION), ROTATION.params)
    assert status == "skipped(odd components not of grade zero)"


def test_sigma_from_Q_tautological():
    sigma = sigma_from_Q(tautological_Q(ROTATION))
    assert all(
        sc.is_zero(sigma[i][A] - (sc.ONE if i == A else sc.ZERO))
        for i in range(2)
        for A in range(2)
    )


def test_sigma_from_Q_reads_coefficients():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    Q = SuperVectorField(
        CHART,
        1,
        (th1 + X * th2, th2),
        (SuperFunction.zero(CHART), SuperFunction.zero(CHART)),
    )
    sigma = sigma_from_Q(Q)
    assert sc.is_zero(sigma[0][1] - X)
    assert sc.is_zero(sigma[1][0])


def test_sigma_from_Q_guards():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    zero = SuperFunction.zero(CHART)
    with pytest.raises(NotLinearInTheta):
        sigma_from_Q(SuperVectorField(CHART, 1, (th1 * th2, th2), (zero, zero)))
    with pytest.raises(NotInjective):
        sigma_from_Q(SuperVectorField(CHART, 1, (th1, 2 * th1), (zero, zero)))


def _broken_b(Q, lift):
    b = (Q.b[0] + parse_super(Q.chart, "x"),) + Q.b[1:]
    return SuperVectorField(Q.chart, 1, Q.a, b), lift


def _broken_sigma(Q, lift):
    return SuperVectorField(Q.chart, 1, (2 * Q.a[0],) + Q.a[1:], Q.b), lift


def _broken_fiber_weight(Q, lift):
    b = (lift.b[0] + parse_super(lift.chart, "t*th1"),) + lift.b[1:]
    return Q, SuperVectorField(lift.chart, 0, lift.a, b)


@pytest.mark.parametrize(
    "breakage", [_broken_b, _broken_sigma, _broken_fiber_weight], ids=["b1", "a1", "fiber"]
)
def test_broken_Q_fails_equivariance_finite(breakage):
    # b[1] + x, a[1] doubled and t*th1 added to the lift's b[1] each break
    # the flow identity; the exact commutator names the generator whose
    # flow breaks it
    spec = PLANE_ROTATION
    Q, lift = breakage(tautological_Q(spec), action_lift(spec))
    report = verify_brst(Q, lift, spec.params)
    by_name = {c["name"]: c for c in report["conditions"]}
    assert not report["passed"]
    assert by_name["equivariance_finite"]["status"] == "fail"
    assert by_name["equivariance_finite"]["residual"] == ["t"]


def _kahler_with_scaled_second_direction(factor):
    Q = kahler_Q(TORUS)
    return SuperVectorField(CHART4, 1, Q.a[:2] + tuple(factor * c for c in Q.a[2:]), Q.b)


def test_sigma_rank_is_exact_not_a_float_tolerance():
    # rows (1, 0) and (1, 1e-12) are independent over Q; a float rank at
    # tolerance 1e-9 counts one
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    zero = SuperFunction.zero(CHART)
    tiny = Fraction(1, 10**12)
    sigma = sigma_from_Q(SuperVectorField(CHART, 1, (th1, th1 + tiny * th2), (zero, zero)))
    assert sc.evaluate(sigma[1][1], {}) == tiny
    # the symbol of kahler_Q with its second direction scaled by 1e-12
    rows = sigma_from_Q(_kahler_with_scaled_second_direction(tiny))
    values = [[sc.evaluate(e, {}) for e in row] for row in rows]
    assert values == [[1, 0], [0, 0], [0, tiny], [0, 0]]


def test_sigma_of_lower_rank_is_not_injective():
    th1 = SuperFunction.generator(CHART, 1)
    th2 = SuperFunction.generator(CHART, 2)
    zero = SuperFunction.zero(CHART)
    x = SuperFunction.from_scalar(CHART, X)
    # row 2 is twice row 1 at every point
    with pytest.raises(NotInjective):
        sigma_from_Q(
            SuperVectorField(CHART, 1, (th1 + x * th2, 2 * th1 + 2 * x * th2), (zero, zero))
        )
    with pytest.raises(NotInjective):
        sigma_from_Q(_kahler_with_scaled_second_direction(Fraction(0)))


def test_kahler_Q_components():
    # Q(z_j) = theta^j, Q(zb_j) = 0 and Q(theta^j) = e_j z_j
    Q = kahler_Q(TORUS)
    assert Q.parity == 1
    assert [to_super_text(c) for c in Q.a] == ["th1", "0", "th2", "0"]
    assert Q.b == (parse_super(CHART4, "e1*z1"), parse_super(CHART4, "e2*z2"))


def test_kahler_lift_rotation_weights():
    # the flow on z_j, nothing on zb_j, and theta^j turns with the weight of z_j
    lift = kahler_lift(TORUS)
    assert lift.parity == 0
    assert lift.a == tuple(parse_super(CHART4, t) for t in ("e1*z1", "0", "e2*z2", "0"))
    assert lift.b == (parse_super(CHART4, "e1*th1"), parse_super(CHART4, "e2*th2"))


def test_kahler_square_closes(square_reference):
    Q = kahler_Q(TORUS)
    assert field_is_zero(square_reference(Q, kahler_lift(TORUS)))


def test_square_residual_matches_the_reference_on_complex_and_adhm_fields(square_reference):
    # the holomorphic operator on C^2, with the true lift and one that
    # leaves a residual, and the real ADHM operators at k = 1
    lift = kahler_lift(TORUS)
    perturbed = SuperVectorField(CHART4, 0, (lift.a[0] + sc.sym("zb2"), *lift.a[1:]), lift.b)
    cases = [(kahler_Q(TORUS), lift), (kahler_Q(TORUS), perturbed)]
    for full in (False, True):
        lay = adhm_super_chart(1, 2, full=full)
        Q = (adhm_Q_full if full else adhm_Q_unconstrained)(lay)
        cases.append((Q, adhm_lifted_field(lay)))
    for Q, flow in cases:
        got, want = square_residual(Q, flow), square_reference(Q, flow)
        assert [to_super_text(c) for c in got.a + got.b] == [
            to_super_text(c) for c in want.a + want.b
        ]
    assert field_is_zero(square_residual(*cases[0]))
    assert not field_is_zero(square_residual(*cases[1]))


def test_verify_brst_kahler():
    report = verify_brst(kahler_Q(TORUS), kahler_lift(TORUS), TORUS.params)
    assert report["passed"]
    by_name = {c["name"]: c["status"] for c in report["conditions"]}
    assert by_name["square_equals_lift"] == "pass"
    assert by_name["equivariance_infinitesimal"] == "pass"
    # an affine base action, a linear fiber action and an injective symbol
    assert by_name["equivariance_finite"] == "pass"
    assert by_name["sigma_injective"] == "pass"


def test_kahler_lift_with_a_wrong_fiber_weight_fails_all_three_conditions():
    # theta^2 turning with e1 in place of e2
    lift = kahler_lift(TORUS)
    wrong = SuperVectorField(CHART4, 0, lift.a, (lift.b[0], parse_super(CHART4, "e1*th2")))
    report = verify_brst(kahler_Q(TORUS), wrong, TORUS.params)
    by_name = {c["name"]: c for c in report["conditions"]}
    assert not report["passed"]
    assert by_name["square_equals_lift"]["residual"] == ["b[2] = (-e1 + e2)*th2"]
    for name in ("equivariance_infinitesimal", "equivariance_finite"):
        assert by_name[name]["status"] == "fail"
        assert by_name[name]["residual"] == ["e1", "e2"]
    assert by_name["sigma_injective"]["status"] == "pass"


def test_kahler_guards():
    two = SuperChart(("z1", "zb1"), 1)
    spec = ActionSpec(("t",), two, ((sc.sym("z1"), -sc.sym("zb1")),))
    with pytest.raises(OddComplexDimension):
        kahler_Q(spec)
    odd_m = SuperChart(("z1", "zb1", "z2"), 1)
    spec3 = ActionSpec(("t",), odd_m, ((sc.ZERO, sc.ZERO, sc.ZERO),))
    with pytest.raises(ShapeMismatch):
        kahler_Q(spec3)
    wrong_n = SuperChart(("z1", "zb1", "z2", "zb2"), 3)
    spec_n = ActionSpec(("t",), wrong_n, ((sc.ZERO, sc.ZERO, sc.ZERO, sc.ZERO),))
    with pytest.raises(DimensionMismatch):
        kahler_Q(spec_n)


def test_metric_invariance():
    euclid = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    report = metric_invariance_report(euclid, ROTATION)
    assert report["status"] == "pass" and report["symbolic"]
    stretched = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.rational(2)))
    assert metric_invariance_report(stretched, ROTATION)["status"] == "fail"


def test_positive_definite_report():
    good = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.rational(2)))
    bad = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.rational(-1)))
    assert positive_definite_report(good, [{}])["status"] == "pass"
    assert positive_definite_report(bad, [{}])["status"] == "fail"
    # Sylvester's criterion is exact: leading minors 1 and 1e-30
    tiny = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.rational(1, 10**30)))
    assert positive_definite_report(tiny, [{}]) == {
        "status": "pass",
        "min_leading_minor": Fraction(1, 10**30),
    }


def test_christoffel_against_finite_differences():
    np = pytest.importorskip("numpy")
    h = (
        (sc.ONE + X * X, X * Y),
        (X * Y, sc.ONE + Y * Y),
    )
    gamma = christoffel(h, ("x", "y"))
    point = {"x": 0.3, "y": -0.2}
    eps = 1e-6

    def h_num(px, py):
        binding = {"x": px, "y": py}
        return [[float(sc.evaluate(e, binding)) for e in row] for row in h]

    h0 = np.array(h_num(point["x"], point["y"]))
    hinv = np.linalg.inv(h0)
    dh = np.zeros((2, 2, 2))
    for k, name in enumerate(("x", "y")):
        up = dict(point)
        dn = dict(point)
        up[name] += eps
        dn[name] -= eps
        dh[k] = (np.array(h_num(up["x"], up["y"])) - np.array(h_num(dn["x"], dn["y"]))) / (
            2 * eps
        )
    for i in range(2):
        for k in range(2):
            for j in range(2):
                fd = 0.0
                for l in range(2):
                    fd += 0.5 * hinv[i, l] * (dh[k][l, j] + dh[j][l, k] - dh[l][k, j])
                sym = float(sc.evaluate(gamma[i][k][j], point))
                assert abs(sym - fd) < 1e-6


def test_christoffel_takes_each_metric_partial_once(monkeypatch):
    # m^3 = 8 partials d_k h_lj on a 2-dimensional chart; three per term of
    # every symbol would be 3 m^4 = 48
    calls = []
    real = sc.differentiate

    def counted(e, name):
        calls.append(name)
        return real(e, name)

    north = sphere_chart("north")
    want = christoffel(north.h, ("x", "y"))
    monkeypatch.setattr(sc, "differentiate", counted)
    assert christoffel(north.h, ("x", "y")) == want
    assert len(calls) <= 8


def test_sigma_parallel_tautological():
    h = ((sc.ONE + X * X, sc.ZERO), (sc.ZERO, sc.ONE))
    sigma = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    report = check_sigma_parallel(sigma, h, CHART)
    assert report["status"] == "pass"
    assert report["symbolic"]


def test_sigma_parallel_builds_one_christoffel_table(monkeypatch):
    calls = []
    real = christoffel

    def counted(h, coords):
        calls.append(coords)
        return real(h, coords)

    monkeypatch.setattr(actions, "christoffel", counted)
    h = ((sc.ONE + X * X, sc.ZERO), (sc.ZERO, sc.ONE))
    sigma = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    assert check_sigma_parallel(sigma, h, CHART)["status"] == "pass"
    assert calls == [("x", "y")]


def test_sigma_parallel_on_the_sphere_metric():
    # the conformal metric's Christoffel symbols carry the composite
    # inverse atom (1 + x^2 + y^2)^-1; rotation by a right angle is its
    # complex structure, so it is parallel like the identity
    north = sphere_chart("north")
    for sigma in (((1, 0), (0, 1)), ((0, 1), (-1, 0))):
        report = check_sigma_parallel(sigma, north.h, north.spec.chart)
        assert report == {"status": "pass", "max_residual": 0.0, "symbolic": True}
    inv = (sc.ONE + X * X + Y * Y) ** -1
    report = check_sigma_parallel(((inv, sc.ZERO), (sc.ZERO, inv)), north.h, north.spec.chart)
    assert report == {"status": "fail", "max_residual": 0.4487534626038781, "symbolic": False}


def test_sigma_parallel_shear_fails():
    h = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    sigma = ((sc.ONE, X), (sc.ZERO, sc.ONE))
    report = check_sigma_parallel(sigma, h, CHART)
    assert report["status"] == "fail"
    assert report["max_residual"] > 1e-3


def test_sigma_parallel_fails_when_no_sample_evaluates():
    chart = SuperChart(("x",), 1)
    one = ((sc.ONE,),)
    sigma = ((X ** -1,),)
    # the residual -1/x^2 divides by zero at x = 0, which certifies nothing
    report = check_sigma_parallel(sigma, one, chart, samples=[{"x": 0}])
    assert report == {"status": "fail", "max_residual": None, "symbolic": False}
    report = check_sigma_parallel(sigma, one, chart, samples=[{"x": 0}, {"x": 2}])
    assert report == {"status": "fail", "max_residual": 0.25, "symbolic": False}


def test_residual_verdict_rule():
    assert residual_verdict([sc.ZERO, sc.ZERO]) == {
        "status": "pass", "max_residual": 0.0, "symbolic": True
    }
    tiny = sc.rational(1, 10**12) * X
    assert residual_verdict([tiny], [{"x": 1}, {"x": -3}]) == {
        "status": "pass", "max_residual": 3e-12, "symbolic": False
    }
    assert residual_verdict([tiny], [{"x": 1}], tol=1e-13)["status"] == "fail"
    # drawn samples bind every free symbol of the residuals
    assert residual_verdict([X * Y - T])["max_residual"] > 0


def test_sample_bindings_bind_the_free_symbols():
    exprs = [X * Y, sc.exp(T), sc.ONE]
    samples = sample_bindings(exprs)
    assert len(samples) == 5
    assert all(set(b) == {"x", "y", "t"} for b in samples)
    assert all(isinstance(v, Fraction) for b in samples for v in b.values())
    assert sample_bindings(iter(exprs)) == samples
    assert sample_bindings([sc.ONE]) == [{}] * 5


def test_sigma_parallel_needs_a_square_chart():
    chart = SuperChart(("x", "y"), 1)
    h = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))
    with pytest.raises(DimensionMismatch):
        check_sigma_parallel(((sc.ONE,), (sc.ZERO,)), h, chart)


def _affine_probe_expr(rng: random.Random, depth: int = 3) -> sc.ScalarExpr:
    """Random expression in coordinates x, y and a parameter t, with
    exp/sin/cos atoms, inverse atoms and unsimplified cancellations."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([X, Y, T, sc.rational(rng.randint(-3, 3))])
    pick = rng.randrange(6)
    a = _affine_probe_expr(rng, depth - 1)
    if pick == 0:
        return a + _affine_probe_expr(rng, depth - 1)
    if pick == 1:
        return a * _affine_probe_expr(rng, depth - 1)
    if pick == 2:
        return a ** rng.randrange(0, 3)
    if pick == 3:
        return sc.Func(rng.choice(["exp", "sin", "cos"]), a)
    if pick == 4:
        return (a * a + 1) ** -1
    # names a coordinate that cancels only once normalized
    c = rng.choice([X, Y])
    return sc.Add((a, c * c, sc.Mul((sc.rational(-1), c, c))))


def _coordinate_free_by_definition(expr, coords) -> bool:
    return all(sc.is_zero(sc.differentiate(expr, c)) for c in coords)


def _affine_by_definition(expr, coords) -> bool:
    return all(
        sc.is_zero(sc.differentiate(sc.differentiate(expr, c1), c2))
        for c1 in coords
        for c2 in coords
    )


def test_affine_and_coordinate_free_match_their_definitions():
    rng = random.Random(907)
    coords = ("x", "y")
    seen = {"affine": set(), "free": set()}
    for _ in range(200):
        e = _affine_probe_expr(rng)
        for probe in (e, sc.differentiate(e, "x")):
            free = _coordinate_free_by_definition(probe, coords)
            affine = _affine_by_definition(probe, coords)
            assert _coordinate_free(probe, coords) == free, sc.to_text(probe)
            assert _is_affine(probe, coords) == affine, sc.to_text(probe)
            seen["free"].add(free)
            seen["affine"].add(affine)
    assert seen == {"affine": {True, False}, "free": {True, False}}

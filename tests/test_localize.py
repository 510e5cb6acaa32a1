"""Fixed points, Pfaffian square roots, and the localization sums."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from superloc import scalars as sc
from superloc.actions import ActionSpec, action_lift, fundamental_field, tautological_Q
from superloc.errors import (
    DimensionMismatch,
    NonInvertibleQBeta,
    NonIsolatedZero,
    NotAZero,
    OddDimension,
    SingularFiberBlock,
    SingularLinearization,
)
from superloc.grassmann import SuperChart, SuperFunction, SuperVectorField, parse_super
from superloc.localize import (
    FixedPointData,
    PiScaled,
    build_lambda_beta,
    classical_localize,
    classical_prefactor,
    exactness_witness,
    find_fixed_points,
    linearize,
    sqrt_det_base,
    sqrt_exact,
    sqrt_sdet_via_pfaffian,
    super_localize,
    super_prefactor,
    superdeterminant,
)

X = sc.sym("x")
Y = sc.sym("y")
CHART = SuperChart(("x", "y"), 2)
ROTATION = ActionSpec(("t",), CHART, ((sc.ZERO - Y, X),))
LIFT = action_lift(ROTATION)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert isinstance(sqrt_exact(Fraction(9, 4)), Fraction)
    assert abs(sqrt_exact(Fraction(2)) - math.sqrt(2)) < 1e-15
    assert isinstance(sqrt_exact(Fraction(2)), float)
    with pytest.raises(ValueError):
        sqrt_exact(Fraction(-1))


def test_pi_scaled_arithmetic():
    a = PiScaled(Fraction(-2), 1)
    assert abs(a.value() + 2 * math.pi) < 1e-14
    assert (a + PiScaled(Fraction(3), 1)).coeff == Fraction(1)
    assert (a * Fraction(1, 2)).coeff == Fraction(-1)
    b = a * PiScaled(Fraction(2), 1)
    assert b.coeff == Fraction(-4) and b.pi_power == 2
    with pytest.raises(ValueError):
        a + PiScaled(Fraction(1), 2)


def test_prefactors():
    assert classical_prefactor(2) == PiScaled(Fraction(-2), 1)
    assert classical_prefactor(4) == PiScaled(Fraction(4), 2)
    # square chart: both formulas carry the same factor
    assert super_prefactor(2, 2) == classical_prefactor(2)
    assert super_prefactor(4, 4) == classical_prefactor(4)
    # half-odd chart on four coordinates
    assert super_prefactor(4, 2) == PiScaled(Fraction(-1), 2)
    with pytest.raises(OddDimension):
        classical_prefactor(3)
    with pytest.raises(OddDimension):
        super_prefactor(4, 1)


def test_linearize_rotation():
    L, fiber = linearize(LIFT, {"x": 0, "y": 0, "t": 2})
    assert L == ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))
    assert fiber == L


def test_find_fixed_points_declared():
    pts = find_fixed_points(LIFT, declared=[{"x": 0, "y": 0, "t": 1}])
    assert len(pts) == 1
    fp = pts[0]
    assert fp.point == (Fraction(0), Fraction(0))
    assert fp.L == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    # at symbolic t the linearization stays symbolic
    (fp,) = find_fixed_points(LIFT, declared=[(0, 0)])
    assert sc.is_zero(fp.L[0][1] - sc.sym("t"))
    with pytest.raises(NotAZero):
        find_fixed_points(LIFT, declared=[(1, 0)])
    # the zero action fixes every point, so none is isolated
    flat = ActionSpec(("t",), CHART, ((sc.ZERO, sc.ZERO),))
    with pytest.raises(NonIsolatedZero):
        find_fixed_points(action_lift(flat), declared=[(0, 0)])


def test_non_isolated_zero_is_caught_at_symbolic_t():
    # the shear t*y d/dx vanishes on the whole line y = 0: L = ((0, -t), (0, 0))
    # has det 0 as a polynomial in t, so no value of t needs to be bound
    shear = action_lift(ActionSpec(("t",), CHART, ((Y, sc.ZERO),)))
    with pytest.raises(NonIsolatedZero):
        find_fixed_points(shear, declared=[(0, 0)])
    with pytest.raises(NonIsolatedZero):
        find_fixed_points(shear, declared=[{"x": 0, "y": 0, "t": 1}])


def test_declared_points_are_checked_exactly():
    lift = action_lift(ActionSpec(("t",), CHART, ((sc.sin(X), Y),)))
    (fp,) = find_fixed_points(lift, declared=[(0, 0)])
    assert fp.point == (Fraction(0), Fraction(0))
    # the float pi is not a zero of sin: the residual 1.2e-16 is not forgiven
    with pytest.raises(NotAZero):
        find_fixed_points(lift, declared=[(math.pi, 0)])


def test_superdeterminant_values():
    even = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(3)))
    odd = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
    assert superdeterminant(even, odd) == Fraction(3)
    with pytest.raises(SingularFiberBlock):
        superdeterminant(even, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    sym = superdeterminant(((X,),), ((Y,),))
    assert sc.is_zero(sym - sc.normalize(X * Y ** (-1)))


def test_superdeterminant_multiplicative():
    rng = random.Random(1104)

    def rand_invertible():
        while True:
            M = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
            if M[0][0] * M[1][1] - M[0][1] * M[1][0] != 0:
                return M

    from superloc.linalg import mat_mul

    for _ in range(10):
        A1, A2 = rand_invertible(), rand_invertible()
        B1, B2 = rand_invertible(), rand_invertible()
        lhs = superdeterminant(mat_mul(A1, A2), mat_mul(B1, B2))
        rhs = superdeterminant(A1, B1) * superdeterminant(A2, B2)
        assert lhs == rhs


def _rotation_fp(t, orientation=1, scale=1, lift=LIFT):
    h = ((sc.rational(scale), sc.ZERO), (sc.ZERO, sc.rational(scale)))
    return find_fixed_points(
        lift, declared=[{"x": 0, "y": 0, "t": t}], h=h, orientation=orientation
    )[0]


def test_sqrt_pair_inverse_on_square_chart():
    fp = _rotation_fp(Fraction(2), scale=4)
    root = sqrt_det_base(fp)
    half = sqrt_sdet_via_pfaffian(fp)
    assert root == Fraction(2)
    assert half == Fraction(1, 2)
    assert root * half == 1
    flipped = _rotation_fp(Fraction(2), orientation=-1, scale=4)
    assert sqrt_det_base(flipped) == Fraction(-2)
    assert sqrt_sdet_via_pfaffian(flipped) == Fraction(-1, 2)


def test_sqrt_sdet_detects_singular_fiber():
    fp = _rotation_fp(Fraction(2))
    broken = FixedPointData(
        fp.chart_id,
        fp.coords,
        fp.point,
        fp.L,
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        fp.h,
        fp.orientation,
    )
    with pytest.raises(SingularFiberBlock):
        sqrt_sdet_via_pfaffian(broken)


def test_sqrt_det_detects_singular_linearization():
    fp = _rotation_fp(Fraction(2))
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    broken = FixedPointData(fp.chart_id, fp.coords, fp.point, zero, fp.fiber, fp.h, fp.orientation)
    with pytest.raises(SingularLinearization):
        sqrt_det_base(broken)


def test_fiber_square_roots_need_a_square_chart():
    chart = SuperChart(("x1", "y1", "x2", "y2"), 2)
    x1, y1, x2, y2 = (sc.sym(c) for c in chart.coords)
    flow = fundamental_field(ActionSpec(("t",), chart, ((sc.ZERO - y1, x1, sc.ZERO - y2, x2),)))
    turning = SuperVectorField(
        chart, 0, flow.a, (parse_super(chart, "-t*th2"), parse_super(chart, "t*th1"))
    )
    F = SuperFunction.one(chart)
    # the fundamental field has a zero fiber block, the turning lift an
    # invertible one; neither has a fiber metric on this chart
    for lift, pf in ((flow, 0), (turning, 1)):
        (fp,) = find_fixed_points(lift, declared=[(0, 0, 0, 0)])
        assert len(fp.fiber) == 2 and sc.evaluate(sc.as_expr(fp.fiber[0][1]), {"t": 1}) == pf
        with pytest.raises(DimensionMismatch):
            sqrt_sdet_via_pfaffian(fp)
        with pytest.raises(DimensionMismatch):
            super_localize({fp.chart_id: F}, [fp])


def _gaussian_closed_form(coeffs):
    """Polynomial in Q(gamma) with gamma = (x th2 - y th1)/2; Q-closed."""
    qgamma = parse_super(CHART, "th1*th2 + (1/2)*t*(x^2 + y^2)")
    out = SuperFunction.from_scalar(CHART, sc.rational(coeffs[0]))
    power = SuperFunction.one(CHART)
    for c in coeffs[1:]:
        power = power * qgamma
        out = out + sc.rational(c) * power
    return out


def test_localize_plane_rotation_exact():
    fp = _rotation_fp(Fraction(2))
    F = _gaussian_closed_form([1, 1])
    classical = classical_localize({fp.chart_id: F}, [fp], binding={"t": Fraction(2)})
    sup = super_localize({fp.chart_id: F}, [fp], binding={"t": Fraction(2)})
    assert classical["coefficient"] == Fraction(-1)
    assert classical["pi_power"] == 1
    assert sup["coefficient"] == classical["coefficient"]
    assert sup["terms"][0]["contribution"] == classical["terms"][0]["contribution"]
    assert abs(classical["value"] + math.pi) < 1e-14


def test_localize_random_closed_forms_match():
    rng = random.Random(1105)
    for _ in range(8):
        t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        fp = _rotation_fp(t)
        F = _gaussian_closed_form([rng.randint(-5, 5) for _ in range(3)])
        classical = classical_localize({fp.chart_id: F}, [fp], binding={"t": t})
        sup = super_localize({fp.chart_id: F}, [fp], binding={"t": t})
        assert sup["coefficient"] == classical["coefficient"]
        assert isinstance(sup["coefficient"], Fraction)


def test_a_fiber_that_is_not_the_tangent_bundle():
    # the plane's flow with its odd generators turning at 2t, not at the
    # base weight t: Pf of the fiber block doubles, so the super sum halves,
    # and the base block, which alone enters the classical sum, is the same
    doubled = SuperVectorField(
        CHART, 0, LIFT.a, (parse_super(CHART, "-2*t*th2"), parse_super(CHART, "2*t*th1"))
    )
    rng = random.Random(1108)
    for _ in range(5):
        t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        F = {"chart": _gaussian_closed_form([rng.randint(1, 5) for _ in range(3)])}
        taut, turned = _rotation_fp(t), _rotation_fp(t, lift=doubled)
        assert turned.L == taut.L and turned.fiber != taut.fiber
        half = super_localize(F, [turned], binding={"t": t})["coefficient"]
        assert half == super_localize(F, [taut], binding={"t": t})["coefficient"] / 2
        assert isinstance(half, Fraction) and half != 0
        assert (
            classical_localize(F, [turned], binding={"t": t})
            == classical_localize(F, [taut], binding={"t": t})
        )


def test_closed_forms_are_closed():
    rng = random.Random(1106)
    for _ in range(5):
        F = _gaussian_closed_form([rng.randint(-4, 4) for _ in range(3)])
        Q = tautological_Q(ROTATION)
        assert Q.apply(F).is_zero()


def test_build_lambda_beta_flat_rotation():
    lam, beta = build_lambda_beta(LIFT, (0, 0))
    rng = random.Random(1107)
    comps = (sc.ZERO - sc.sym("t") * Y, sc.sym("t") * X)
    for _ in range(5):
        binding = {
            "x": Fraction(rng.randint(-5, 5), 2),
            "y": Fraction(rng.randint(-5, 5), 2),
            "t": Fraction(rng.randint(1, 5)),
        }
        pairing = sum(
            float(sc.evaluate(l, binding)) * float(sc.evaluate(c, binding))
            for l, c in zip(lam, comps)
        )
        r2 = float(binding["x"] ** 2 + binding["y"] ** 2)
        assert abs(pairing - r2) < 1e-12
    # invariance: the lifted field annihilates beta
    residual = LIFT.apply(beta)
    for coeff in residual.terms.values():
        for _ in range(3):
            binding = {
                "x": Fraction(rng.randint(1, 5)),
                "y": Fraction(rng.randint(1, 5)),
                "t": Fraction(rng.randint(1, 4)),
            }
            assert abs(float(sc.evaluate(coeff, binding))) < 1e-12


def test_exactness_witness_reproduces_form():
    Q = tautological_Q(ROTATION)
    _, beta = build_lambda_beta(LIFT, (0, 0))
    F = parse_super(CHART, "1 + th1*th2 + (1/2)*t*(x^2 + y^2)")
    nu = exactness_witness(F, beta, Q, samples=({"x": 1, "y": 0},))
    assert (Q.apply(nu) - F).is_zero()


def test_exactness_witness_needs_invertible_body():
    flat = ActionSpec(("t",), CHART, ((sc.ZERO, sc.ZERO),))
    Q = tautological_Q(flat)
    beta = parse_super(CHART, "x*th2 - y*th1")
    F = SuperFunction.one(CHART)
    with pytest.raises(NonInvertibleQBeta):
        exactness_witness(F, beta, Q)

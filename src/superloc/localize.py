"""Fixed points of a lifted field and exact localization sums.

All point data is kept rational (floats are converted exactly), so the
Pfaffian square roots and prefactors stay in Fraction arithmetic whenever
the inputs allow it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from typing import Mapping, Sequence, Tuple

from . import linalg
from . import scalars as sc
from .errors import (
    ComputationError,
    DegenerateField,
    DimensionMismatch,
    NonInvertibleQBeta,
    NonIsolatedZero,
    NotAZero,
    OddDimension,
    SingularFiberBlock,
    SingularLinearization,
    WrongGrade,
    ZeroBody,
    float_errors,
)
from .grassmann import SuperFunction, SuperVectorField, invert_even
from .records import FrozenRecord, Record
from .scalars import ScalarExpr


def sqrt_exact(value):
    """Square root that stays a Fraction when the input is a perfect square."""
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        if f < 0:
            raise ValueError("negative value has no real square root")
        pn, qn = isqrt(f.numerator), isqrt(f.denominator)
        if pn * pn == f.numerator and qn * qn == f.denominator:
            return Fraction(pn, qn)
        return math.sqrt(f)
    return math.sqrt(value)


class PiScaled(FrozenRecord):
    """A number of the form coeff * pi^pi_power, exact when coeff is rational."""

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff: object, pi_power: int) -> None:
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_power", pi_power)

    def value(self) -> float:
        return float(self.coeff) * math.pi**self.pi_power

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.coeff * other.coeff, self.pi_power + other.pi_power)
        return PiScaled(self.coeff * other, self.pi_power)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        if other.pi_power != self.pi_power:
            raise ValueError("cannot add different powers of pi")
        return PiScaled(self.coeff + other.coeff, self.pi_power)


def classical_prefactor(m: int) -> PiScaled:
    if m % 2:
        raise OddDimension("even-dimensional base required")
    return PiScaled(Fraction((-2) ** (m // 2)), m // 2)


def super_prefactor(m: int, n: int) -> PiScaled:
    if m % 2 or n % 2:
        raise OddDimension("even dimensions required")
    coeff = Fraction(
        (-2) ** (n // 2) * math.factorial(n // 2), math.factorial(m // 2)
    )
    return PiScaled(coeff, m // 2)


def _num(value):
    """Exact rational image of a numeric value; ScalarExpr passes through."""
    return value if isinstance(value, ScalarExpr) else Fraction(value)


class FixedPointData(Record):
    """Linearization data of a lifted field at an isolated zero: the base
    block L and the fiber block, an n x n matrix."""

    __slots__ = ("chart_id", "coords", "point", "L", "fiber", "h", "orientation")

    def __init__(self, chart_id: str, coords: Tuple[str, ...], point: tuple, L: tuple,
                 fiber: tuple, h: tuple, orientation: int = 1) -> None:
        self.chart_id = chart_id
        self.coords = coords
        self.point = point
        self.L = L
        self.fiber = fiber
        self.h = h
        self.orientation = orientation

    def binding(self) -> dict:
        return dict(zip(self.coords, self.point))


def _eval_entry(e, binding):
    """Close over the binding; leftover symbols keep the entry symbolic."""
    e = sc.as_expr(e)
    sub = {k: sc.as_expr(v) for k, v in binding.items() if not isinstance(v, ScalarExpr)}
    e2 = sc.substitute(e, sub)
    if sc.free_symbols(e2):
        return e2
    return _num(sc.evaluate(e2, {}))


def linearize(lift: SuperVectorField, binding):
    """(L, fiber) at the point: L is minus the Jacobian of the lift's even
    components, and fiber[A][B] is minus the coefficient of theta^B in its
    d/dtheta^A component."""
    coords, n = lift.chart.coords, lift.chart.n
    L = tuple(
        tuple(_eval_entry(sc.ZERO - sc.differentiate(comp.body(), c), binding) for c in coords)
        for comp in lift.a
    )
    fiber = tuple(
        tuple(_eval_entry(sc.ZERO - comp.coefficient((B,)), binding) for B in range(1, n + 1))
        for comp in lift.b
    )
    return L, fiber


def _eval_matrix(mat, binding):
    return tuple(tuple(_eval_entry(e, binding) for e in row) for row in mat)


def _check_declared(comps, binding):
    """Raise NotAZero unless every component vanishes exactly at the point."""
    for comp in comps:
        res = _eval_entry(comp, binding)
        if isinstance(res, ScalarExpr):
            if not sc.is_zero(res):
                raise NotAZero(
                    "field does not vanish at declared point: %s" % (sc.to_text(res),)
                )
        elif res != 0:
            raise NotAZero("field does not vanish at declared point: %s" % (res,))


def find_fixed_points(
    lift: SuperVectorField,
    *,
    declared,
    h=None,
    chart_id: str = "chart",
    orientation: int = 1,
):
    """Check the declared isolated zeros of the lifted field and linearize
    there.

    A declared point must be an exact zero: the field is evaluated there in
    exact arithmetic, so (sin x, y) at (math.pi, 0) raises NotAZero; det(L)
    that normalizes to zero, at bound or symbolic t, raises NonIsolatedZero.
    The metric h defaults to the identity; it is also the fiber metric, which
    the super formula therefore takes on square charts only.
    """
    if not declared:
        raise ValueError("no fixed points declared")
    coords = lift.chart.coords
    comps = [comp.body() for comp in lift.a]
    if h is None:
        h = linalg.identity(lift.chart.m)
    out = []
    for pt in declared:
        binding = {c: _num(v) for c, v in (pt.items() if isinstance(pt, Mapping) else zip(coords, pt))}
        _check_declared(comps, binding)
        L, fiber = linearize(lift, binding)
        if sc.is_zero(sc.as_expr(linalg.det(L))):
            raise NonIsolatedZero("zero of the field is not isolated at linear order")
        point = tuple(_num(binding[c]) for c in coords)
        h_p = _eval_matrix(h, binding)
        out.append(FixedPointData(chart_id, coords, point, L, fiber, h_p, orientation))
    return out


# ---------------------------------------------------------------------------
# Square roots of the linearization determinants.
# ---------------------------------------------------------------------------


def superdeterminant(even_block, odd_block):
    """det(even)/det(odd) of a diagonal even operator on a super space."""
    num = linalg.det([list(row) for row in even_block])
    den = linalg.det([list(row) for row in odd_block])
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        if den == 0:
            raise SingularFiberBlock("odd block is singular")
        return Fraction(num) / Fraction(den)
    return sc.normalize(sc.as_expr(num) * sc.as_expr(den) ** (-1))


_SINGULAR = {"base": SingularLinearization, "fiber": SingularFiberBlock}


def _pfaffian_pair(fp: FixedPointData, part: str, operator, binding):
    """(orientation * Pf(h_p . operator), det(h_p)^{1/2}) at the fixed point;
    h_p is fp.h, evaluated there already, and binding closes the operator."""
    pf = linalg.pfaffian(linalg.mat_mul(fp.h, _eval_matrix(operator, binding or {})))
    if not isinstance(pf, (int, Fraction)):
        raise ComputationError("bind all parameters before taking square roots")
    if pf == 0:
        raise _SINGULAR[part]("%s linearization is singular" % (part,))
    return fp.orientation * pf, sqrt_exact(linalg.det(fp.h))


def sqrt_sdet_via_pfaffian(fp: FixedPointData, binding=None):
    """orientation * det(h_p)^{1/2} / Pf(h_p . fiber operator).

    The fiber metric is h_p, so the chart must be square.
    """
    if len(fp.fiber) != len(fp.coords):
        raise DimensionMismatch(
            "the super formula needs a square chart, got (%d, %d)" % (len(fp.coords), len(fp.fiber))
        )
    pf, root = _pfaffian_pair(fp, "fiber", fp.fiber, binding)
    return root / pf


def sqrt_det_base(fp: FixedPointData, binding=None):
    """orientation * Pf(h_p . L) / det(h_p)^{1/2}."""
    pf, root = _pfaffian_pair(fp, "base", fp.L, binding)
    return pf / root


# ---------------------------------------------------------------------------
# Localization sums.
# ---------------------------------------------------------------------------


@float_errors("fixed-point sum")
def _localize(integrands, fps: Sequence[FixedPointData], binding, root_key, weight):
    """Sum prefactor * weighted F_0(p) over the fixed points.

    weight(fp, F_0(p), binding) returns (prefactor, root, weighted value).
    A float error on the way, such as an overflow, raises ComputationError.
    """
    binding = dict(binding or {})
    terms = []
    total = None
    for fp in fps:
        F = integrands[fp.chart_id]
        local = dict(binding)
        local.update(fp.binding())
        value = sc.evaluate(F.body(), local)
        pref, root, weighted = weight(fp, value, binding)
        contribution = pref * weighted
        terms.append(
            {
                "chart": fp.chart_id,
                "point": [str(v) for v in fp.point],
                "value_at_point": float(value),
                root_key: float(root),
                "contribution": contribution.value(),
            }
        )
        total = contribution if total is None else total + contribution
    if total is None:
        total = PiScaled(Fraction(0), 0)
    return {
        "value": total.value(),
        "coefficient": total.coeff,
        "pi_power": total.pi_power,
        "terms": terms,
    }


def _classical_weight(fp: FixedPointData, a0, binding):
    root = sqrt_det_base(fp, binding=binding)
    return classical_prefactor(len(fp.coords)), root, a0 / root


def _super_weight(fp: FixedPointData, f0, binding):
    half_sdet = sqrt_sdet_via_pfaffian(fp, binding=binding)
    return super_prefactor(len(fp.coords), len(fp.fiber)), half_sdet, f0 * half_sdet


def classical_localize(forms, fps: Sequence[FixedPointData], binding=None):
    """Sum of (-2 pi)^{m/2} alpha_0(p) / det^{1/2}(L_p) over fixed points.

    forms maps chart ids to translated equivariant forms; binding supplies
    symbol values (group parameters).
    """
    return _localize(forms, fps, binding, "sqrt_det", _classical_weight)


def super_localize(fields, fps: Sequence[FixedPointData], binding=None):
    """Superfunction localization: prefactor * Sdet^{1/2} * F_0(p), summed.

    fields maps chart ids to integrands.  The formula assumes each is
    Q-closed; that is a fact about the integrand, not about the binding, so
    the caller checks it once rather than at every value.
    """
    return _localize(fields, fps, binding, "sqrt_sdet", _super_weight)


# ---------------------------------------------------------------------------
# The exactness witness used in the proof of the localization formula.
# ---------------------------------------------------------------------------


def build_lambda_beta(lift: SuperVectorField, center):
    """Invariant 1-form lambda with lambda(xi*) = squared distance, and its
    image beta under the symbol map.

    Distance and metric are the flat ones on a square chart, where the
    symbol map is the identity. Returns (lambda components, beta
    superfunction).
    """
    chart = lift.chart
    comps = [comp.body() for comp in lift.a]
    dist2 = sc.ZERO
    for c, v in zip(chart.coords, center):
        delta = sc.sym(c) - sc.as_expr(v)
        dist2 = dist2 + delta * delta
    norm2 = sc.ZERO
    for comp in comps:
        norm2 = norm2 + comp * comp
    norm2 = sc.normalize(norm2)
    if sc.is_zero(norm2):
        raise DegenerateField("fundamental field vanishes identically")
    scale = sc.normalize(dist2 * norm2 ** (-1))
    lam = [sc.normalize(comp * scale) for comp in comps]
    if chart.n != chart.m:
        raise DimensionMismatch("lambda maps to beta only on a square chart")
    terms = {(A + 1,): lam[A] for A in range(chart.n) if not sc.is_zero(lam[A])}
    return lam, SuperFunction(chart, terms)


def exactness_witness(F: SuperFunction, beta: SuperFunction, Q: SuperVectorField, samples=()):
    """nu with Q(nu) = top-grade part of F away from the fixed points.

    nu = (beta F / Q(beta)) restricted to grade n-1.
    """
    qbeta = Q.apply(beta)
    try:
        inv = invert_even(qbeta, samples=samples)
    except (ZeroBody, WrongGrade) as exc:
        raise NonInvertibleQBeta(str(exc))
    n = F.chart.n
    return (beta * F * inv).grade(n - 1)

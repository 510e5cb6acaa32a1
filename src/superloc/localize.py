"""Fixed points of the fundamental field and exact localization sums.

All point data is kept rational (floats are converted exactly), so the
Pfaffian square roots and prefactors stay in Fraction arithmetic whenever
the inputs allow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from . import scalars as sc
from .actions import (
    ActionSpec,
    _as_expr,
    _is_affine,
    fundamental_field,
    lifted_field,
    tautological_lift,
)
from .errors import (
    ComputationError,
    DegenerateField,
    DimensionMismatch,
    NoConvergence,
    NonInvertibleQBeta,
    NonIsolatedZero,
    NotAZero,
    NotQClosed,
    OddDimension,
    SingularFiberBlock,
    SingularLinearization,
    WrongGrade,
    ZeroBody,
)
from .grassmann import SuperFunction, SuperVectorField, invert_even
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


@dataclass(frozen=True)
class PiScaled:
    """A number of the form coeff * pi^pi_power, exact when coeff is rational."""

    coeff: object
    pi_power: int

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
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, float):
        return Fraction(value)
    return Fraction(value)


@dataclass(frozen=True)
class FixedPointData:
    """Linearization data of the fundamental field at an isolated zero."""

    chart_id: str
    coords: Tuple[str, ...]
    point: tuple
    L: tuple
    fiber: Optional[tuple]
    h: tuple
    H: Optional[tuple]
    orientation: int = 1

    def binding(self) -> dict:
        return dict(zip(self.coords, self.point))


def _eval_entry(e, binding):
    """Close over the binding; leftover symbols keep the entry symbolic."""
    e = _as_expr(e)
    sub = {k: _as_expr(v) for k, v in binding.items() if not isinstance(v, ScalarExpr)}
    e2 = sc.normalize(sc.substitute(e, sub))
    if sc.free_symbols(e2):
        return e2
    return _num(sc.evaluate(e2, {}))


def linearize_base(spec: ActionSpec, xi, binding, require_invertible: bool = False):
    """Matrix L = -Jacobian of the fundamental field at the given point."""
    comps = [comp.body() for comp in fundamental_field(spec, xi).a]
    coords = spec.chart.coords
    L = []
    for i in range(len(coords)):
        row = []
        for j in range(len(coords)):
            row.append(
                _eval_entry(sc.ZERO - sc.differentiate(comps[i], coords[j]), binding)
            )
        L.append(tuple(row))
    if require_invertible and all(
        isinstance(e, (int, Fraction)) for row in L for e in row
    ):
        if linalg.det([list(row) for row in L]) == 0:
            raise SingularLinearization("base linearization is singular")
    return tuple(L)


def linearize_fiber(spec: ActionSpec, xi, binding):
    """Negated theta-flow generator of the lifted field at the point.

    Returns None when no fiber action is available.
    """
    lift_spec = spec
    if spec.U is None:
        if spec.chart.n != spec.chart.m:
            return None
        lift_spec = tautological_lift(spec)
    b = lifted_field(lift_spec, xi).b
    n = spec.chart.n
    return tuple(
        tuple(_eval_entry(sc.ZERO - b[A].coefficient((B + 1,)), binding) for B in range(n))
        for A in range(n)
    )


def _eval_matrix(mat, binding):
    return tuple(tuple(_eval_entry(e, binding) for e in row) for row in mat)


def _identity_metric(m: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(m)) for i in range(m)
    )


def _check_declared(comps, binding, tol):
    for comp in comps:
        res = _eval_entry(comp, binding)
        if isinstance(res, ScalarExpr):
            if not sc.is_zero(res):
                raise NotAZero(
                    "field does not vanish at declared point: %s" % (sc.to_text(res),)
                )
        elif isinstance(res, Fraction):
            if res != 0:
                raise NotAZero("field does not vanish at declared point: %s" % (res,))
        elif abs(float(res)) > tol:
            raise NotAZero("field does not vanish at declared point: %s" % (res,))


def _assemble(spec, xi, binding, chart_id, h, sigma, H, orientation):
    coords = spec.chart.coords
    L = linearize_base(spec, xi, binding)
    numeric = all(isinstance(e, (int, Fraction)) for row in L for e in row)
    if numeric and linalg.det([list(row) for row in L]) == 0:
        raise NonIsolatedZero("zero of the field is not isolated at linear order")
    fiber = linearize_fiber(spec, xi, binding)
    h_p = _eval_matrix(h, binding) if h is not None else _identity_metric(spec.chart.m)
    if H is not None:
        H_p = _eval_matrix(H, binding)
    elif sigma is not None:
        s_p = [list(row) for row in _eval_matrix(sigma, binding)]
        hp = [list(row) for row in h_p]
        H_p = tuple(
            tuple(r) for r in linalg.mat_mul(linalg.mat_mul(linalg.transpose(s_p), hp), s_p)
        )
    elif spec.chart.n == spec.chart.m:
        H_p = h_p
    else:
        H_p = None
    point = tuple(_num(binding[c]) for c in coords)
    return FixedPointData(chart_id, coords, point, L, fiber, h_p, H_p, orientation)


def find_fixed_points(
    spec: ActionSpec,
    xi=None,
    strategy: str = "declared",
    declared=None,
    region=None,
    grid: int = 5,
    tol: float = 1e-10,
    h=None,
    sigma=None,
    H=None,
    chart_id: str = "chart",
    orientation: int = 1,
):
    """Locate isolated zeros of the fundamental field and linearize there.

    Strategies: "declared" verifies supplied points, "linear" solves an
    affine field exactly, "newton" seeds damped iterations over a box.
    """
    comps = [comp.body() for comp in fundamental_field(spec, xi).a]
    coords = spec.chart.coords
    m = spec.chart.m
    out = []
    if strategy == "declared":
        if not declared:
            raise ValueError("declared strategy needs points")
        for pt in declared:
            binding = {c: _num(v) for c, v in (pt.items() if isinstance(pt, Mapping) else zip(coords, pt))}
            _check_declared(comps, binding, tol)
            out.append(_assemble(spec, xi, binding, chart_id, h, sigma, H, orientation))
        return out
    if strategy == "linear":
        origin = {c: Fraction(0) for c in coords}
        A = []
        c0 = []
        for i in range(m):
            if not _is_affine(comps[i], coords):
                raise ValueError("field is not affine; use the newton strategy")
            A.append(
                [Fraction(sc.evaluate(sc.differentiate(comps[i], c), origin)) for c in coords]
            )
            c0.append(Fraction(sc.evaluate(comps[i], origin)))
        try:
            sol = linalg.solve(A, [-v for v in c0])
        except ValueError:
            raise DegenerateField("affine field has no isolated zero")
        binding = dict(zip(coords, sol))
        out.append(_assemble(spec, xi, binding, chart_id, h, sigma, H, orientation))
        return out
    if strategy == "newton":
        if region is None:
            raise ValueError("newton strategy needs a region box")
        funcs = [sc.compile_numeric(comp) for comp in comps]
        jac = [
            [sc.compile_numeric(sc.differentiate(comps[i], coords[j])) for j in range(m)]
            for i in range(m)
        ]
        seeds = _grid_points(region, grid)
        roots = []
        for seed in seeds:
            x = np.array(seed, dtype=float)
            ok = False
            for _ in range(60):
                binding = dict(zip(coords, x))
                f = np.array([fn(binding) for fn in funcs])
                if np.max(np.abs(f)) < 1e-13:
                    ok = True
                    break
                J = np.array([[jfn(binding) for jfn in row] for row in jac])
                try:
                    step = np.linalg.solve(J, f)
                except np.linalg.LinAlgError:
                    break
                if np.max(np.abs(step)) > 1e6:
                    break
                x = x - step
            if ok and all(
                region[k][0] - 1e-6 <= x[k] <= region[k][1] + 1e-6 for k in range(m)
            ):
                if not any(np.max(np.abs(np.array(r) - x)) < 1e-7 for r in roots):
                    roots.append([float(v) for v in x])
        if not roots:
            raise NoConvergence("no zero found in the search box")
        for r in sorted(roots):
            binding = {c: _snap(v) for c, v in zip(coords, r)}
            if not all(sc.is_zero(_as_expr(_eval_entry(comp, binding))) for comp in comps):
                binding = {c: Fraction(v) for c, v in zip(coords, r)}
            out.append(_assemble(spec, xi, binding, chart_id, h, sigma, H, orientation))
        return out
    raise ValueError("unknown strategy %r" % (strategy,))


def _grid_points(region, grid):
    axes = []
    for lo, hi in region:
        axes.append([lo + (hi - lo) * (k + 0.5) / grid for k in range(grid)])
    pts = [[]]
    for axis in axes:
        pts = [p + [v] for p in pts for v in axis]
    return pts


def _snap(v: float, denom: int = 10**6):
    """Round near-rational Newton output so exact arithmetic can take over;
    the caller keeps the rounded point only where the field vanishes exactly."""
    f = Fraction(v).limit_denominator(denom)
    if abs(float(f) - v) < 1e-9:
        return f
    return Fraction(v)


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
    return sc.normalize(_as_expr(num) * _as_expr(den) ** (-1))


def sqrt_sdet_via_pfaffian(fp: FixedPointData, H=None, binding=None):
    """orientation * det(H_p)^{1/2} / Pf(H_p . fiber operator)."""
    H_p = fp.H if H is None else H
    if H_p is None or fp.fiber is None:
        raise DimensionMismatch("fixed point carries no fiber data")
    if binding:
        H_p = _eval_matrix(H_p, binding)
    fiber = _eval_matrix(fp.fiber, binding) if binding else [list(r) for r in fp.fiber]
    a = linalg.mat_mul([list(r) for r in H_p], fiber)
    linalg.check_skew(a)
    pf = linalg.pfaffian(a)
    if not isinstance(pf, (int, Fraction)):
        raise ComputationError("bind all parameters before taking square roots")
    if pf == 0:
        raise SingularFiberBlock("fiber linearization is singular")
    return fp.orientation * sqrt_exact(linalg.det([list(r) for r in H_p])) / pf


def sqrt_det_base(fp: FixedPointData, h=None, binding=None):
    """orientation * Pf(h_p . L) / det(h_p)^{1/2}."""
    h_p = fp.h if h is None else h
    if binding:
        h_p = _eval_matrix(h_p, binding)
    L = _eval_matrix(fp.L, binding) if binding else [list(r) for r in fp.L]
    a = linalg.mat_mul([list(r) for r in h_p], L)
    linalg.check_skew(a)
    pf = linalg.pfaffian(a)
    if not isinstance(pf, (int, Fraction)):
        raise ComputationError("bind all parameters before taking square roots")
    if pf == 0:
        raise SingularLinearization("base linearization is singular")
    return fp.orientation * pf / sqrt_exact(linalg.det([list(r) for r in h_p]))


# ---------------------------------------------------------------------------
# Localization sums.
# ---------------------------------------------------------------------------


def _body_value(F: SuperFunction, binding):
    return sc.evaluate(F.body(), binding)


def classical_localize(forms, fps: Sequence[FixedPointData], binding=None):
    """Sum of (-2 pi)^{m/2} alpha_0(p) / det^{1/2}(L_p) over fixed points.

    forms maps chart ids to translated equivariant forms; binding supplies
    symbol values (group parameters).
    """
    binding = dict(binding or {})
    terms = []
    total = None
    for fp in fps:
        alpha = forms[fp.chart_id] if isinstance(forms, Mapping) else forms
        local = dict(binding)
        local.update(fp.binding())
        a0 = _body_value(alpha, local)
        root = sqrt_det_base(fp, binding=binding)
        pref = classical_prefactor(len(fp.coords))
        contribution = pref * (a0 / root)
        terms.append(
            {
                "chart": fp.chart_id,
                "point": [str(v) for v in fp.point],
                "value_at_point": _to_float(a0),
                "sqrt_det": _to_float(root),
                "contribution": contribution.value(),
            }
        )
        total = contribution if total is None else total + contribution
    return _sum_report(total, terms)


def super_localize(fields, fps: Sequence[FixedPointData], binding=None, Q=None):
    """Superfunction localization: prefactor * Sdet^{1/2} * F_0(p), summed.

    When Q is supplied (one field, or a mapping by chart id) each
    integrand is first checked to be annihilated by it, symbolically.
    """
    binding = dict(binding or {})
    if Q is not None:
        seen = set()
        for fp in fps:
            if fp.chart_id in seen:
                continue
            seen.add(fp.chart_id)
            F = fields[fp.chart_id] if isinstance(fields, Mapping) else fields
            q = Q[fp.chart_id] if isinstance(Q, Mapping) else Q
            if not q.apply(F).is_zero():
                raise NotQClosed("integrand on chart %r is not closed" % (fp.chart_id,))
    terms = []
    total = None
    for fp in fps:
        F = fields[fp.chart_id] if isinstance(fields, Mapping) else fields
        if fp.fiber is None:
            raise DimensionMismatch("fixed point carries no fiber data")
        local = dict(binding)
        local.update(fp.binding())
        f0 = _body_value(F, local)
        pref = super_prefactor(len(fp.coords), len(fp.fiber))
        half_sdet = sqrt_sdet_via_pfaffian(fp, binding=binding)
        contribution = pref * (f0 * half_sdet)
        terms.append(
            {
                "chart": fp.chart_id,
                "point": [str(v) for v in fp.point],
                "value_at_point": _to_float(f0),
                "sqrt_sdet": _to_float(half_sdet),
                "contribution": contribution.value(),
            }
        )
        total = contribution if total is None else total + contribution
    return _sum_report(total, terms)


def _to_float(v) -> float:
    return float(v)


def _sum_report(total: Optional[PiScaled], terms):
    if total is None:
        return {"value": 0.0, "coefficient": Fraction(0), "pi_power": 0, "terms": []}
    return {
        "value": total.value(),
        "coefficient": total.coeff,
        "pi_power": total.pi_power,
        "terms": terms,
    }


# ---------------------------------------------------------------------------
# The exactness witness used in the proof of the localization formula.
# ---------------------------------------------------------------------------


def build_lambda_beta(spec: ActionSpec, xi, center, h=None, sigma=None, dist2=None):
    """Invariant 1-form lambda with lambda(xi*) = squared distance, and its
    image beta under the symbol map.

    The default squared distance is the flat one; a chart-specific expression
    can be supplied. Returns (lambda components, beta superfunction).
    """
    chart = spec.chart
    coords = chart.coords
    comps = [comp.body() for comp in fundamental_field(spec, xi).a]
    if h is None:
        h_mat = [[sc.ONE if i == j else sc.ZERO for j in range(chart.m)] for i in range(chart.m)]
    else:
        h_mat = [[_as_expr(e) for e in row] for row in h]
    if dist2 is None:
        dist2 = sc.ZERO
        for c, v in zip(coords, center):
            delta = sc.sym(c) - _as_expr(v)
            dist2 = dist2 + delta * delta
    flat = []
    for i in range(chart.m):
        acc = sc.ZERO
        for j in range(chart.m):
            acc = acc + h_mat[i][j] * comps[j]
        flat.append(acc)
    norm2 = sc.ZERO
    for i in range(chart.m):
        norm2 = norm2 + flat[i] * comps[i]
    norm2 = sc.normalize(norm2)
    if sc.is_zero(norm2):
        raise DegenerateField("fundamental field vanishes identically")
    scale = sc.normalize(dist2 * norm2 ** (-1))
    lam = [sc.normalize(flat[i] * scale) for i in range(chart.m)]
    if sigma is None:
        if chart.n != chart.m:
            raise DimensionMismatch("provide sigma when the chart is not square")
        sigma = [[sc.ONE if i == j else sc.ZERO for j in range(chart.n)] for i in range(chart.m)]
    terms = {}
    for A in range(chart.n):
        acc = sc.ZERO
        for i in range(chart.m):
            acc = acc + _as_expr(sigma[i][A]) * lam[i]
        if not sc.is_zero(acc):
            terms[(A + 1,)] = acc
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

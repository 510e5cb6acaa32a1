"""Group actions, equivariant differential, and BRST operators.

An action is stored through its infinitesimal generators: base components
T[alpha][i] on the chart's even coordinates. Every consumer reads the
action through its lifted field, the fundamental field plus a rotation of
the odd generators; the operators here build it, and the odd operator
whose square it is, by pairing each odd generator with a partner
coordinate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from . import linalg
from . import scalars as sc
from .errors import (
    DimensionMismatch,
    NotInjective,
    NotLinearInTheta,
    NotTautological,
    OddComplexDimension,
    ShapeMismatch,
)
from .grassmann import (
    SuperChart,
    SuperFunction,
    SuperVectorField,
    field_is_zero,
    graded_commutator,
    square_residual,
    to_super_text,
)
from .records import Record
from .scalars import ScalarExpr, normalize


class ActionSpec(Record):
    """Infinitesimal generators of a group action on an (m, n) chart."""

    __slots__ = ("params", "chart", "T")

    def __init__(self, params: Tuple[str, ...], chart: SuperChart, T: tuple) -> None:
        params = tuple(params)
        T = tuple(tuple(sc.as_expr(e) for e in row) for row in T)
        if len(T) != len(params) or any(len(row) != chart.m for row in T):
            raise ShapeMismatch("T must be %d x %d" % (len(params), chart.m))
        self.params = params
        self.chart = chart
        self.T = T


def fundamental_field(spec: ActionSpec) -> SuperVectorField:
    """Even field p^alpha T_alpha^i d/dx^i at the symbolic parameters p,
    with no odd components."""
    a = []
    for i in range(spec.chart.m):
        comp = sc.ZERO
        for alpha, name in enumerate(spec.params):
            comp = comp + sc.sym(name) * spec.T[alpha][i]
        a.append(SuperFunction.from_scalar(spec.chart, comp))
    zero = SuperFunction.zero(spec.chart)
    return SuperVectorField(spec.chart, 0, tuple(a), tuple(zero for _ in range(spec.chart.n)))


# ---------------------------------------------------------------------------
# The pairing rule: theta^A is the partner of the coordinate x_{p(A)}.
# ---------------------------------------------------------------------------


def _paired_Q(spec: ActionSpec, partners) -> SuperVectorField:
    """Odd field Q(x_{p(A)}) = theta^A, zero on unpaired coordinates, and
    Q(theta^A) = the flow's x_{p(A)} component."""
    chart = spec.chart
    flow = fundamental_field(spec).a
    a = [SuperFunction.zero(chart)] * chart.m
    for A, i in enumerate(partners, start=1):
        a[i] = SuperFunction.generator(chart, A)
    return SuperVectorField(chart, 1, tuple(a), tuple(flow[i] for i in partners))


def _paired_lift(spec: ActionSpec, partners) -> SuperVectorField:
    """The square of `_paired_Q`: the flow on the partner coordinates, zero
    on the others, and theta^B d(flow_{p(A)})/dx_{p(B)} d/dtheta^A on the
    fiber."""
    chart = spec.chart
    flow = fundamental_field(spec).a
    a = [SuperFunction.zero(chart)] * chart.m
    for i in partners:
        a[i] = flow[i]
    b = tuple(
        SuperFunction(chart, {
            (B,): sc.differentiate(flow[i].body(), chart.coords[j])
            for B, j in enumerate(partners, start=1)
        })
        for i in partners
    )
    return SuperVectorField(chart, 0, tuple(a), b)


def action_lift(spec: ActionSpec) -> SuperVectorField:
    """The lifted field of a spec: on a square chart the tautological lift
    (the action on 1-forms), otherwise the fundamental field."""
    if spec.chart.n != spec.chart.m:
        return fundamental_field(spec)
    return _paired_lift(spec, range(spec.chart.m))


def tautological_Q(spec: ActionSpec) -> SuperVectorField:
    """Odd field Q(x^i) = theta^i, Q(theta^A) = p^alpha T_alpha^A."""
    if spec.chart.n != spec.chart.m:
        raise NotTautological("tautological operator needs n = m")
    return _paired_Q(spec, range(spec.chart.m))


# ---------------------------------------------------------------------------
# Complex-structure operator.
# ---------------------------------------------------------------------------


def _holomorphic_indices(chart: SuperChart) -> tuple:
    """0-based indices of the z_j on a chart whose coordinates pair
    consecutively into (z_j, zb_j)."""
    if chart.m % 2:
        raise ShapeMismatch("complex pairing needs an even number of coordinates")
    mc = chart.m // 2
    if chart.n != mc:
        raise DimensionMismatch(
            "need one odd generator per complex direction (%d), got %d" % (mc, chart.n)
        )
    if mc % 2:
        raise OddComplexDimension("complex dimension %d is odd" % (mc,))
    return tuple(range(0, chart.m, 2))


def kahler_Q(spec: ActionSpec) -> SuperVectorField:
    """Holomorphic-side BRST operator on a holomorphic chart.

    Coordinates pair into (z_j, zb_j); the j-th odd generator is the
    partner of dz_j. Components: Q(z_j) = theta^j, Q(zb_j) = 0,
    Q(theta^j) = the flow's z_j component.
    """
    return _paired_Q(spec, _holomorphic_indices(spec.chart))


def kahler_lift(spec: ActionSpec) -> SuperVectorField:
    """Holomorphic part of the lifted action: the flow on the z_j, zero on
    the zb_j, and theta^k d(flow_j)/dz_k d/dtheta^j on the fiber."""
    return _paired_lift(spec, _holomorphic_indices(spec.chart))


# ---------------------------------------------------------------------------
# The symbol morphism sigma.
# ---------------------------------------------------------------------------


def sample_bindings(exprs) -> list:
    """The one sampler: five seeded rational bindings of the free symbols
    of exprs, numerators in -7..7 and denominators in 1..3."""
    names = sorted(set().union(*(sc.free_symbols(e) for e in exprs)))
    rng = random.Random(802)
    return [
        {name: Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for name in names}
        for _ in range(5)
    ]


def residual_verdict(residuals, samples=None, tol=1e-8) -> dict:
    """Pass when every normalized residual is zero; otherwise compare the
    largest |residual| over the samples (drawn from the residuals when
    None) with tol. A sample where a residual divides by zero certifies
    nothing, and a verdict that no sample certifies fails."""
    if all(sc.is_zero(r) for r in residuals):
        return {"status": "pass", "max_residual": 0.0, "symbolic": True}
    worst = None
    for binding in sample_bindings(residuals) if samples is None else samples:
        try:
            values = [abs(float(sc.evaluate(r, binding))) for r in residuals]
        except ZeroDivisionError:
            continue
        worst = max(worst or 0.0, *values)
    return {
        "status": "pass" if worst is not None and worst < tol else "fail",
        "max_residual": worst,
        "symbolic": False,
    }


def _rational_values(rows, binding):
    """Entries of rows at binding as Fractions; None when one divides by
    zero or leaves the rationals, since such a point certifies nothing."""
    try:
        values = [[sc.evaluate(e, binding) for e in row] for row in rows]
    except ZeroDivisionError:
        return None
    if all(isinstance(v, Fraction) for row in values for v in row):
        return values
    return None


def certified_rank(rows, n) -> bool:
    """True at the first sample of the entries where rows has exact rank n.

    A sample where an entry divides by zero or gives a float certifies
    nothing, so False means no sample certified rank n.
    """
    for binding in sample_bindings(e for row in rows for e in row):
        values = _rational_values(rows, binding)
        if values is not None and linalg.rank(values) == n:
            return True
    return False


def sigma_from_Q(Q):
    """Extract sigma^i_A, a matrix of scalars, from a^i = sigma^i_A theta^A.

    Injectivity is certified exactly: at some sample point every
    entry evaluates to a Fraction and the values have rank n over the
    rationals. A point that divides by zero, or gives a float, certifies
    nothing; NotInjective means no sample certified full rank.
    """
    chart = Q.chart
    rows = []
    for comp in Q.a:
        if comp.grades() not in ((), (1,)):
            raise NotLinearInTheta("even component is not linear in theta")
        rows.append([comp.coefficient((A,)) for A in range(1, chart.n + 1)])
    if not certified_rank(rows, chart.n):
        raise NotInjective("sigma has rank below %d at all sample points" % (chart.n,))
    return rows


# ---------------------------------------------------------------------------
# Metric and connection checks.
# ---------------------------------------------------------------------------


def metric_invariance_report(h, spec: ActionSpec):
    """Killing-equation residual of h along the fundamental field, sampled."""
    chart = spec.chart
    coords = chart.coords
    m = chart.m
    field = fundamental_field(spec)
    comp = [field.a[i].body() for i in range(m)]
    flow = dict(zip(coords, comp))
    h = [[normalize(sc.as_expr(e)) for e in row] for row in h]
    # (L_X h)_ij = X(h_ij) + h_kj d_i X^k + h_ik d_j X^k; h_kj d_i X^k is X^k along h_kj d/dx^i
    residuals = [
        sc.combine([(1, h[i][j], flow)]
                   + [(1, comp[k], {coords[i]: h[k][j]}) for k in range(m)]
                   + [(1, comp[k], {coords[j]: h[i][k]}) for k in range(m)])
        for i in range(m)
        for j in range(m)
    ]
    return residual_verdict(residuals)


def positive_definite_report(h, samples):
    """Sylvester's criterion at each sample: every leading principal minor
    of h is positive, computed exactly. A sample that does not evaluate to
    Fractions cannot be certified and fails the report."""
    worst = None
    for binding in samples:
        mat = _rational_values([[sc.as_expr(e) for e in row] for row in h], binding)
        if mat is None:
            return {"status": "fail", "min_leading_minor": None}
        for k in range(1, len(mat) + 1):
            lead = linalg.det([row[:k] for row in mat[:k]])
            worst = lead if worst is None else min(worst, lead)
    return {
        "status": "pass" if worst is None or worst > 0 else "fail",
        "min_leading_minor": worst,
    }


def christoffel(h, coords) -> list:
    """Levi-Civita symbols Gamma[i][k][j] for the metric h in these coordinates."""
    # summed per entry: one combine per entry divides 55 times, not 33, in a sphere_dh brst-check
    m = len(coords)
    h = [[sc.as_expr(e) for e in row] for row in h]
    hinv = linalg.inverse(h)
    # dh[k][l][j] = d_k h_lj, each partial taken once
    dh = [[[sc.differentiate(e, c) for e in row] for row in h] for c in coords]
    out = []
    for i in range(m):
        plane = []
        for k in range(m):
            row = []
            for j in range(m):
                acc = sc.ZERO
                for l in range(m):
                    acc = acc + hinv[i][l] * (dh[k][l][j] + dh[j][l][k] - dh[l][k][j])
                row.append(normalize(Fraction(1, 2) * acc))
            plane.append(row)
        out.append(plane)
    return out


def check_sigma_parallel(sigma, h, chart: SuperChart, samples=None, tol=1e-8):
    """Covariant constancy of sigma on a square chart: coordinate derivative
    plus the Levi-Civita action of h on the base index minus its action on
    the fiber index, since the fiber metric is the base metric. Sampled
    where the symbolic residual does not vanish."""
    coords = chart.coords
    m, n = chart.m, chart.n
    if n != m:
        raise DimensionMismatch("sigma check needs a square chart, got (%d, %d)" % (m, n))
    sigma = [[normalize(sc.as_expr(e)) for e in row] for row in sigma]
    gamma = christoffel(h, coords)
    residuals = [
        sc.combine(
            [(1, sigma[i][A], {coords[k]: sc.ONE})]
            + [(1, gamma[i][k][j], sigma[j][A]) for j in range(m)]
            + [(-1, sigma[i][B], gamma[B][k][A]) for B in range(n)]
        )
        for i in range(m)
        for k in range(m)
        for A in range(n)
    ]
    return residual_verdict(residuals, samples, tol)


# ---------------------------------------------------------------------------
# BRST verification.
# ---------------------------------------------------------------------------


def field_residual_text(X) -> list:
    """The nonzero components of a field as text, as a failed square shows them."""
    out = []
    for i, comp in enumerate(X.a, start=1):
        if not comp.is_zero():
            out.append("a[%d] = %s" % (i, to_super_text(comp)))
    for A, comp in enumerate(X.b, start=1):
        if not comp.is_zero():
            out.append("b[%d] = %s" % (A, to_super_text(comp)))
    return out


def _coordinate_free(expr: ScalarExpr, coords) -> bool:
    """True when every partial derivative along coords vanishes; one along a
    coordinate that expr does not name is zero and is not taken."""
    names = sc.free_symbols(expr)
    return all(sc.differentiate(expr, c) is sc.ZERO for c in coords if c in names)


def _is_affine(expr: ScalarExpr, coords) -> bool:
    names = sc.free_symbols(expr)
    return all(_coordinate_free(sc.differentiate(expr, c), coords) for c in coords if c in names)


def _parameter_partial(X: SuperVectorField, name: str) -> SuperVectorField:
    """dX/d(name) coefficient by coefficient: for a field linear in its
    parameters, the field at the unit parameter `name`."""

    def d(f):
        return SuperFunction(f.chart, {i: sc.differentiate(c, name) for i, c in f.terms.items()})

    return SuperVectorField(X.chart, X.parity, tuple(map(d, X.a)), tuple(map(d, X.b)))


def _finite_equivariance(Q: SuperVectorField, lift: SuperVectorField, linear_symbol, inf_fail):
    """Equivariance along one-parameter subgroups, where their flows are complete.

    With an affine base action, a fiber action linear in theta with
    coordinate-free coefficients, a linear injective symbol and odd
    components of grade zero, every lifted flow is complete, and the finite
    identity along it integrates [dlift/dp, Q] = 0. The exact commutator
    that decided `equivariance_infinitesimal` for each parameter p
    therefore decides this condition too; anything else is skipped.
    """
    coords = lift.chart.coords
    if not all(_is_affine(comp.body(), coords) for comp in lift.a):
        return {"status": "skipped(nonlinear base action)", "residual": None}
    if any(comp.grades() not in ((), (1,)) for comp in lift.b) or not all(
        _coordinate_free(c, coords) for comp in lift.b for c in comp.terms.values()
    ):
        return {"status": "skipped(coordinate-dependent fiber action)", "residual": None}
    if not linear_symbol:
        return {"status": "skipped(no linear symbol available)", "residual": None}
    if any(comp.grades() not in ((), (0,)) for comp in Q.b):
        return {"status": "skipped(odd components not of grade zero)", "residual": None}
    return {"status": "fail" if inf_fail else "pass", "residual": inf_fail or None}


def verify_brst(Q, lift: SuperVectorField, params):
    """Check the three defining conditions of a BRST operator against the
    lifted field `lift`, linear in the symbolic group parameters `params`.

    The square condition then holds for every parameter value at once.
    Returns a report dict; failures are entries, not exceptions.
    """
    conditions = []

    failing = field_residual_text(square_residual(Q, lift))
    conditions.append(
        {
            "name": "square_equals_lift",
            "status": "fail" if failing else "pass",
            "residual": failing or None,
        }
    )

    inf_fail = [
        name
        for name in params
        if not field_is_zero(graded_commutator(_parameter_partial(lift, name), Q))
    ]
    conditions.append(
        {
            "name": "equivariance_infinitesimal",
            "status": "pass" if not inf_fail else "fail",
            "residual": inf_fail or None,
        }
    )

    try:
        sigma_from_Q(Q)
        sigma_error = None
    except (NotLinearInTheta, NotInjective) as exc:
        sigma_error = str(exc)
    fin = _finite_equivariance(Q, lift, sigma_error is None, inf_fail)
    conditions.append({"name": "equivariance_finite", **fin})
    conditions.append(
        {
            "name": "sigma_injective",
            "status": "fail" if sigma_error else "pass",
            "residual": sigma_error,
        }
    )

    passed = all(
        c["status"] == "pass" or c["status"].startswith("skipped") for c in conditions
    )
    return {"passed": passed, "conditions": conditions}

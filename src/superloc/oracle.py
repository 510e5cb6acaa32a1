"""Independent numeric oracle: adaptive quadrature and boundary checks.

Everything here deliberately avoids the localization machinery; integrals
are computed from plain densities so the two paths can be compared.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Optional, Sequence, Tuple

from . import scalars as sc
from .actions import check_sigma_parallel, sigma_from_Q
from .errors import AssumptionViolated, NoConvergence, WrongGrade, float_errors
from .grassmann import SuperFunction, SuperVectorField
from .records import Record
from .scalars import ScalarExpr

# A cell refines at most this many levels deep, and one quadrature call
# evaluates its integrand at most this many times.
_MAX_DEPTH = 12
_MAX_EVALS = 1_000_000


# The 12-point Gauss-Legendre rule on [-1, 1]. It is symmetric, so the six
# positive nodes and their weights, mirrored, give all twelve in ascending order.
_HALF_NODES = (
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
)
_HALF_WEIGHTS = (
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
)
_GL_NODES = tuple(-x for x in reversed(_HALF_NODES)) + _HALF_NODES
_GL_WEIGHTS = tuple(reversed(_HALF_WEIGHTS)) + _HALF_WEIGHTS


@lru_cache(maxsize=8)
def _tensor_weights(d: int) -> tuple:
    """Weight products of the d-fold tensor rule, in `product` order."""
    return tuple(math.prod(combo) for combo in product(_GL_WEIGHTS, repeat=d))


def _compile_rule(e: ScalarExpr, coords, binding=None) -> Callable[[list], float]:
    """The cell rule of e over the box of `coords`, for `quadrature`. With
    no coords the box is one point, and the rule is e's value there."""
    if coords:
        return sc.compile_rule(e, coords, _tensor_weights(len(coords)), binding)
    value = sc.compile_numeric(e, (), binding)
    return lambda axes: value(())


def _cell_integral(rule, lo, hi) -> float:
    axes = []
    scale = 1.0
    for a, b in zip(lo, hi):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        scale *= half
        axes.append([mid + half * x for x in _GL_NODES])
    return rule(axes) * scale


def _split(lo, hi):
    d = len(lo)
    mids = [(lo[k] + hi[k]) / 2.0 for k in range(d)]
    cells = []
    for corner in product(range(2), repeat=d):
        clo = tuple(lo[k] if corner[k] == 0 else mids[k] for k in range(d))
        chi = tuple(mids[k] if corner[k] == 0 else hi[k] for k in range(d))
        cells.append((clo, chi))
    return cells


def _adaptive(refine, cell, tol, depth) -> float:
    """Refine a cell whose own estimate its parent already computed."""
    lo, hi, coarse = cell
    children = refine(lo, hi)
    fine = sum(part for _, _, part in children)
    if abs(fine - coarse) <= max(tol, 1e-15 * (1.0 + abs(fine))):
        return fine
    if depth >= _MAX_DEPTH:
        raise NoConvergence(
            "quadrature cell at depth %d did not converge" % (depth,)
        )
    child_tol = tol / len(children)
    return sum(_adaptive(refine, child, child_tol, depth + 1) for child in children)


def quadrature(
    rule: Callable[[list], float],
    box: Sequence[Tuple[float, float]],
    tol: float = 1e-9,
) -> float:
    """Adaptive tensor-product Gauss-Legendre integral over a box.

    The integrand is a cell rule: `rule(axes)`, given the twelve nodes of
    each axis of a cell, returns the weighted sum over the cell's grid with
    the weights `_tensor_weights(d)` in `product` order, unscaled, as
    `scalars.compile_rule` builds it from an expression. Cells are refined
    dyadically with a fixed traversal order and summed in that order, so
    results are bit-for-bit reproducible for a given tolerance. Each
    visited cell's nodes are evaluated once; more than `_MAX_EVALS`
    evaluations, 12^d per cell, raise `NoConvergence`; a float error in the
    rule raises `ComputationError`.
    """
    lo = tuple(float(a) for a, _ in box)
    hi = tuple(float(b) for _, b in box)
    per_cell = len(_GL_NODES) ** len(lo)
    spent = 0

    def refine(lo, hi):
        nonlocal spent
        children = _split(lo, hi)
        spent += len(children) * per_cell
        if spent > _MAX_EVALS:
            raise NoConvergence(
                "quadrature needs more than %d integrand evaluations" % (_MAX_EVALS,)
            )
        return [(clo, chi, _cell_integral(rule, clo, chi)) for clo, chi in children]

    with float_errors("integrand"):
        cells = refine(lo, hi)
        child_tol = tol / len(cells)
        return math.fsum(_adaptive(refine, cell, child_tol, 1) for cell in cells)


class OraclePatch(Record):
    """One coordinate box with a fully reduced scalar density to integrate."""

    __slots__ = ("coords", "box", "integrand")

    def __init__(self, coords: Tuple[str, ...], box: tuple, integrand: ScalarExpr) -> None:
        self.coords = coords
        self.box = box
        self.integrand = integrand


def global_berezin(patches: Sequence[OraclePatch], binding=None, tol: float = 1e-8):
    """Sum of patch integrals of explicit densities; the oracle side of
    every comparison."""
    total = 0.0
    share = tol / max(1, len(patches))
    for patch in patches:
        with float_errors("integrand"):
            rule = _compile_rule(patch.integrand, patch.coords, binding)
        total += quadrature(rule, patch.box, tol=share)
    return total


# ---------------------------------------------------------------------------
# Hodge duals and the boundary form of the divergence identity.
# ---------------------------------------------------------------------------


def hodge_dual(nu: SuperFunction) -> list:
    """Dual of a grade n-1 superfunction along the odd directions.

    Returns its n components, indexed by the missing generator, as
    normalized expressions.
    """
    n = nu.chart.n
    if any(len(idx) != n - 1 for idx in nu.terms):
        raise WrongGrade("dual needs a homogeneous superfunction of grade n-1")
    fact = math.factorial(n - 1)
    dual = []
    for A in range(1, n + 1):
        comp = tuple(B for B in range(1, n + 1) if B != A)
        coeff = nu.terms.get(comp, sc.ZERO)
        dual.append(sc.normalize(sc.rational(_eps_sign((A,) + comp), fact) * coeff))
    return dual


def _eps_sign(perm: tuple) -> int:
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def boundary_flux(
    w: Sequence[ScalarExpr],
    coords: Sequence[str],
    box,
    faces: Optional[Sequence[Tuple[int, int]]] = None,
    tol: float = 1e-8,
) -> float:
    """Outward flux of a vector field through selected box faces.

    `w[k]` is component k of the field, an expression in `coords`. The
    integrand on the face normal to axis k is w^k with coords[k] bound to
    the face's value, integrated over the other coordinates. Faces default
    to all of them, and are dropped for periodic axes by passing an
    explicit list of (axis, side) pairs with side = +1 or -1.
    """
    if faces is None:
        faces = [(k, s) for k in range(len(box)) for s in (1, -1)]
    total = 0.0
    share = tol / max(1, len(faces))
    for axis, side in faces:
        face = {coords[axis]: float(box[axis][1] if side > 0 else box[axis][0])}
        rest = [k for k in range(len(box)) if k != axis]
        with float_errors("integrand"):
            rule = _compile_rule(w[axis], [coords[k] for k in rest], face)
        total += side * quadrature(rule, [box[k] for k in rest], tol=share)
    return total


def super_stokes_check(
    nu: SuperFunction,
    Q: SuperVectorField,
    h,
    box,
    faces=None,
    tol: float = 1e-7,
) -> dict:
    """Bulk integral of the top component of Q(nu) versus the boundary flux
    of sigma applied to the dual of nu; reports both values.

    The symbol sigma is read off Q, and the fiber metric is the base metric
    h, so the Berezinian density det(h)^1/2 / det(h)^1/2 is 1. The identity
    needs sigma covariantly constant for h, so that is checked first on
    points inside the box.
    """
    coords = nu.chart.coords
    sigma = sigma_from_Q(Q)
    samples = []
    for k, frac in enumerate((0.5, 0.375, 0.6875)):
        point = {}
        for axis, (lo, hi) in enumerate(box):
            mix = frac if axis % 2 == k % 2 else 1 - frac
            point[coords[axis]] = lo + mix * (hi - lo)
        samples.append(point)
    assumption = check_sigma_parallel(sigma, h, nu.chart, samples=samples, tol=max(tol, 1e-8))
    if assumption["status"] != "pass":
        raise AssumptionViolated(
            "sigma is not parallel on this domain, residual %s"
            % (assumption["max_residual"],)
        )
    top = _compile_rule(sc.as_expr(Q.apply(nu).top_component()), coords)
    lhs = quadrature(top, box, tol=tol / 4)
    dual = hodge_dual(nu)
    w = [sc.normalize(sum((sc.as_expr(e) * d for e, d in zip(row, dual)), sc.ZERO))
         for row in sigma]
    rhs = boundary_flux(w, coords, box, faces=faces, tol=tol / 4)
    return {
        "bulk": lhs,
        "boundary": rhs,
        "difference": abs(lhs - rhs),
        "status": "pass" if abs(lhs - rhs) <= tol else "fail",
    }

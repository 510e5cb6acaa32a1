"""Independent numeric oracle: adaptive quadrature and boundary checks.

Everything here deliberately avoids the localization machinery; integrals
are computed from plain densities so the two paths can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Optional, Sequence, Tuple

from . import linalg
from . import scalars as sc
from .actions import _as_expr, check_sigma_parallel
from .errors import AssumptionViolated, NoConvergence, WrongGrade
from .grassmann import SuperFunction, SuperVectorField
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


def _cell_integral(f, lo, hi, weights) -> float:
    axes = []
    scale = 1.0
    for a, b in zip(lo, hi):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        scale *= half
        axes.append([mid + half * x for x in _GL_NODES])
    total = 0.0
    for w, point in zip(weights, product(*axes)):
        total += w * f(point)
    return total * scale


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
    f: Callable[[tuple], float],
    box: Sequence[Tuple[float, float]],
    tol: float = 1e-9,
) -> float:
    """Adaptive tensor-product Gauss-Legendre integral over a box.

    Cells are refined dyadically with a fixed traversal order and summed in
    that order, so results are bit-for-bit reproducible for a given
    tolerance. Each visited cell's nodes are evaluated once; more than
    `_MAX_EVALS` evaluations raise `NoConvergence`.
    """
    lo = tuple(float(a) for a, _ in box)
    hi = tuple(float(b) for _, b in box)
    weights = _tensor_weights(len(lo))
    spent = 0

    def refine(lo, hi):
        nonlocal spent
        children = _split(lo, hi)
        spent += len(children) * len(weights)
        if spent > _MAX_EVALS:
            raise NoConvergence(
                "quadrature needs more than %d integrand evaluations" % (_MAX_EVALS,)
            )
        return [(clo, chi, _cell_integral(f, clo, chi, weights)) for clo, chi in children]

    cells = refine(lo, hi)
    child_tol = tol / len(cells)
    return math.fsum(_adaptive(refine, cell, child_tol, 1) for cell in cells)


@dataclass(frozen=True)
class OraclePatch:
    """One coordinate box with a fully reduced scalar density to integrate."""

    coords: Tuple[str, ...]
    box: tuple
    integrand: ScalarExpr


def global_berezin(patches: Sequence[OraclePatch], binding=None, tol: float = 1e-8):
    """Sum of patch integrals of explicit densities; the oracle side of
    every comparison."""
    total = 0.0
    share = tol / max(1, len(patches))
    for patch in patches:
        f = sc.compile_numeric(patch.integrand, patch.coords, binding)
        total += quadrature(f, patch.box, tol=share)
    return total


def berezin_density(F: SuperFunction, h, H, binding=None) -> Callable[[tuple], float]:
    """Numeric density of a point in chart-coordinate order: top
    theta-coefficient times det(h)^1/2 / det(H)^1/2."""
    dets = [linalg.det([list(r) for r in M]) for M in (h, H)]
    top, det_h, det_H = (
        sc.compile_numeric(_as_expr(e), F.chart.coords, binding)
        for e in [F.top_component(), *dets]
    )

    def density(point) -> float:
        return top(point) * math.sqrt(det_h(point)) / math.sqrt(det_H(point))

    return density


# ---------------------------------------------------------------------------
# Hodge duals and the boundary form of the divergence identity.
# ---------------------------------------------------------------------------


def hodge_dual_H(nu: SuperFunction, H, binding=None) -> Callable[[tuple], list]:
    """Dual of a grade n-1 superfunction along the odd directions.

    Returns an evaluator, of a point in chart-coordinate order, for the n
    components indexed by the missing generator, with the 1/det(H)^{1/2}
    density included.
    """
    n, coords = nu.chart.n, nu.chart.coords
    if any(len(idx) != n - 1 for idx in nu.terms):
        raise WrongGrade("dual needs a homogeneous superfunction of grade n-1")
    det_H = sc.compile_numeric(_as_expr(linalg.det([list(r) for r in H])), coords, binding)
    fact = math.factorial(n - 1)
    comps = []
    for A in range(1, n + 1):
        comp = tuple(B for B in range(1, n + 1) if B != A)
        coeff = nu.terms.get(comp)
        if coeff is None:
            comps.append(None)
            continue
        sign = _eps_sign((A,) + comp)
        comps.append((sign, sc.compile_numeric(coeff, coords, binding)))

    def evaluate(point) -> list:
        scale = 1.0 / (fact * math.sqrt(det_H(point)))
        out = [0.0] * n
        for k, entry in enumerate(comps):
            if entry is not None:
                sign, fn = entry
                out[k] = sign * fn(point) * scale
        return out

    return evaluate


def _eps_sign(perm: tuple) -> int:
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def boundary_flux(
    w: Callable[[tuple], Sequence[float]],
    h,
    coords: Tuple[str, ...],
    box,
    faces: Optional[Sequence[Tuple[int, int]]] = None,
    tol: float = 1e-8,
    binding=None,
) -> float:
    """Outward flux of a vector field through selected box faces.

    `w` takes a point in `coords` order. The integrand on the face normal
    to axis k is det(h)^{1/2} w^k; faces default to all of them, and are
    dropped for periodic axes by passing an explicit list of (axis, side)
    pairs with side = +1 or -1.
    """
    m = len(coords)
    det_h = sc.compile_numeric(_as_expr(linalg.det([list(r) for r in h])), coords, binding)
    if faces is None:
        faces = [(k, s) for k in range(m) for s in (1, -1)]
    total = 0.0
    share = tol / max(1, len(faces))
    for axis, side in faces:
        value = float(box[axis][1] if side > 0 else box[axis][0])
        rest = [box[k] for k in range(m) if k != axis]

        def f(face_point, axis=axis, value=value):
            point = face_point[:axis] + (value,) + face_point[axis:]
            return math.sqrt(det_h(point)) * w(point)[axis]

        if rest:
            part = quadrature(f, rest, tol=share)
        else:
            part = f(())
        total += side * part
    return total


def super_stokes_check(
    nu: SuperFunction,
    Q: SuperVectorField,
    sigma,
    h,
    H,
    box,
    faces=None,
    tol: float = 1e-7,
    binding=None,
) -> dict:
    """Bulk integral of Q(nu) against the Berezinian versus the boundary
    flux of the doubly dualized section; reports both values.

    The identity needs sigma covariantly constant, so that is checked
    first on points inside the box.
    """
    binding = dict(binding or {})
    samples = []
    for k, frac in enumerate((0.5, 0.375, 0.6875)):
        point = dict(binding)
        for axis, (lo, hi) in enumerate(box):
            mix = frac if axis % 2 == k % 2 else 1 - frac
            point[nu.chart.coords[axis]] = lo + mix * (hi - lo)
        samples.append(point)
    assumption = check_sigma_parallel(
        sigma, h, nu.chart, H=H, samples=samples, tol=max(tol, 1e-8)
    )
    if assumption["status"] != "pass":
        raise AssumptionViolated(
            "sigma is not parallel on this domain, residual %s"
            % (assumption["max_residual"],)
        )
    lhs = quadrature(berezin_density(Q.apply(nu), h, H, binding), box, tol=tol / 4)
    dual = hodge_dual_H(nu, H, binding)
    sigma_fns = [
        [sc.compile_numeric(_as_expr(e), nu.chart.coords, binding) for e in row] for row in sigma
    ]

    def w(point) -> list:
        d = dual(point)
        return [sum(fn(point) * d[A] for A, fn in enumerate(row)) for row in sigma_fns]

    rhs = boundary_flux(
        w, h, nu.chart.coords, box, faces=faces, tol=tol / 4, binding=binding
    )
    return {
        "bulk": lhs,
        "boundary": rhs,
        "difference": abs(lhs - rhs),
        "status": "pass" if abs(lhs - rhs) <= tol else "fail",
    }

"""Adaptive quadrature, Berezinian densities, and the boundary identity."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from superloc import oracle
from superloc import scalars as sc
from superloc.actions import ActionSpec, tautological_Q
from superloc.cli import main
from superloc.errors import AssumptionViolated, NoConvergence, UnboundSymbol, WrongGrade
from superloc.geometry import gaussian_oracle_patch, sphere_oracle_patch
from superloc.grassmann import SuperChart, SuperFunction, parse_super
from superloc.oracle import (
    OraclePatch,
    berezin_density,
    boundary_flux,
    global_berezin,
    hodge_dual_H,
    quadrature,
    super_stokes_check,
)

X = sc.sym("x")
Y = sc.sym("y")

CHART = SuperChart(("x", "y"), 2)
ROTATION = ActionSpec(("t",), CHART, ((sc.ZERO - Y, X),))

EYE = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))


def _gauss_1d(c: float, s: float) -> float:
    # integral over [0, 1] of exp(-s (x - c)^2)
    r = math.sqrt(s)
    return math.sqrt(math.pi / s) / 2 * (math.erf(r * (1 - c)) + math.erf(r * c))


def test_quadrature_polynomial():
    value = quadrature(lambda p: 3 * p[0] ** 2 + p[1], ((0, 1), (0, 1)), tol=1e-12)
    assert abs(value - 1.5) < 1e-12


def test_quadrature_peaked_gaussian():
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    value = quadrature(f, ((0, 1), (0, 1)), tol=1e-11)
    exact = _gauss_1d(0.3, 50) * _gauss_1d(0.7, 50)
    assert abs(value - exact) < 1e-9


def test_quadrature_rejects_nonintegrable():
    with pytest.raises(NoConvergence):
        quadrature(lambda p: 1.0 / p[0], ((0, 1),), tol=1e-10)


def test_quadrature_repeats_bit_for_bit():
    # the cells are summed in one fixed order, so repeated calls agree bit for bit
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    first = quadrature(f, ((0, 1), (0, 1)), tol=1e-11)
    second = quadrature(f, ((0, 1), (0, 1)), tol=1e-11)
    assert first == second


def test_gauss_legendre_rule_matches_numpy_bit_for_bit():
    np = pytest.importorskip("numpy")
    x, w = np.polynomial.legendre.leggauss(12)
    assert [v.hex() for v in oracle._GL_NODES] == [float(v).hex() for v in x]
    assert [v.hex() for v in oracle._GL_WEIGHTS] == [float(v).hex() for v in w]


def _reference_quadrature(f, box, tol, cells):
    """Adaptive Gauss-Legendre as first written: every cell computes its
    own estimate, even when its parent already summed it, and the rule is
    built node by node.  Each evaluated cell is appended to `cells`."""
    np = pytest.importorskip("numpy")
    x, w = np.polynomial.legendre.leggauss(12)
    nodes, weights = [float(v) for v in x], [float(v) for v in w]

    def cell(lo, hi):
        cells.append((lo, hi))
        d = len(lo)
        mids = [(lo[k] + hi[k]) / 2.0 for k in range(d)]
        halves = [(hi[k] - lo[k]) / 2.0 for k in range(d)]
        scale = 1.0
        for h in halves:
            scale *= h
        total = 0.0
        for combo in product(range(12), repeat=d):
            wt = 1.0
            for k in combo:
                wt *= weights[k]
            point = tuple(mids[k] + halves[k] * nodes[combo[k]] for k in range(d))
            total += wt * f(point)
        return total * scale

    def split(lo, hi):
        mids = [(a + b) / 2.0 for a, b in zip(lo, hi)]
        return [
            (
                tuple(lo[k] if c[k] == 0 else mids[k] for k in range(len(lo))),
                tuple(mids[k] if c[k] == 0 else hi[k] for k in range(len(lo))),
            )
            for c in product(range(2), repeat=len(lo))
        ]

    def adaptive(lo, hi, tol, depth):
        coarse = cell(lo, hi)
        children = split(lo, hi)
        fine = sum(cell(clo, chi) for clo, chi in children)
        if abs(fine - coarse) <= max(tol, 1e-15 * (1.0 + abs(fine))):
            return fine
        assert depth < 12
        return sum(adaptive(clo, chi, tol / len(children), depth + 1) for clo, chi in children)

    lo = tuple(float(a) for a, _ in box)
    hi = tuple(float(b) for _, b in box)
    top = split(lo, hi)
    return math.fsum(adaptive(clo, chi, tol / len(top), 1) for clo, chi in top)


def _reference_berezin(patches, binding, tol):
    """global_berezin as first written: the exact binding is copied and
    updated at every point, and every symbol is read from it."""
    total = 0.0
    for patch in patches:
        order = tuple(patch.coords) + tuple(sorted(set(binding) - set(patch.coords)))
        fn = sc.compile_numeric(patch.integrand, order)

        def f(point, fn=fn, names=patch.coords, order=order):
            local = dict(binding)
            local.update(zip(names, point))
            return fn(tuple(local[n] for n in order))

        total += _reference_quadrature(f, patch.box, tol / len(patches), [])
    return total


@pytest.mark.parametrize(
    "f,box,tol",
    [
        (lambda p: math.exp(-40 * (p[0] - 0.3) ** 2) + math.sin(7 * p[0]), ((0, 1),), 1e-12),
        (lambda p: math.exp(-20 * (p[0] ** 2 + 2 * p[1] ** 2 + 3 * p[2] ** 2)), ((0, 2), (-1, 1), (0, 1)), 1e-9),
    ],
    ids=["1d", "3d"],
)
def test_quadrature_matches_reference_bit_for_bit(f, box, tol):
    cells, points = [], []

    def counted(p):
        points.append(p)
        return f(p)

    assert quadrature(counted, box, tol) == _reference_quadrature(f, box, tol, cells)
    # each visited cell's nodes are evaluated once: no node twice, and one
    # full rule per distinct cell the first algorithm visits
    distinct = set(cells)
    assert len(distinct) < len(cells)
    assert len(set(points)) == len(points) == len(distinct) * 12 ** len(box)


@pytest.mark.parametrize(
    "patch,t",
    [
        (gaussian_oracle_patch(), Fraction(7, 3)),
        (sphere_oracle_patch(), Fraction(7, 3)),
        (gaussian_oracle_patch(), Fraction(1, 2)),
        (sphere_oracle_patch(), Fraction(1, 2)),
        (gaussian_oracle_patch(), Fraction(3)),
        (sphere_oracle_patch(), Fraction(3)),
    ],
    ids=["plane", "sphere", "plane-t=1/2", "sphere-t=1/2", "plane-t=3", "sphere-t=3"],
)
def test_global_berezin_matches_reference_bit_for_bit(patch, t):
    binding = {"t": t}
    assert global_berezin((patch,), binding=binding, tol=1e-8) == _reference_berezin((patch,), binding, 1e-8)


def test_global_berezin_unbound_symbol_raises_before_evaluating(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("quadrature ran with an unbound integrand")

    monkeypatch.setattr(oracle, "quadrature", never)
    patch = OraclePatch(("x", "y"), ((0, 1), (0, 1)), sc.sym("s") * X * Y)
    with pytest.raises(UnboundSymbol, match="'s'"):
        global_berezin((patch,), binding={"t": Fraction(1)})


def test_quadrature_budget_raises(monkeypatch):
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    monkeypatch.setattr(oracle, "_MAX_EVALS", 4 * 144)
    with pytest.raises(NoConvergence):
        quadrature(f, ((0, 1), (0, 1)), tol=1e-11)
    monkeypatch.undo()
    assert quadrature(f, ((0, 1), (0, 1)), tol=1e-11) > 0


def test_quadrature_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_MAX_EVALS", 4 * 144)
    assert main(["oracle", "--scenario", "flat_rotation", "--quiet"]) == 3
    assert "more than 576 integrand evaluations" in capsys.readouterr().err


def test_patch_sum_sphere_area():
    u = sc.sym("u")
    patches = (
        OraclePatch(("u", "v"), ((0, math.pi / 2), (0, 2 * math.pi)), sc.sin(u)),
        OraclePatch(("u", "v"), ((math.pi / 2, math.pi), (0, 2 * math.pi)), sc.sin(u)),
    )
    value = global_berezin(patches, tol=1e-9)
    assert abs(value - 4 * math.pi) < 1e-8


def test_height_exponential_patch():
    # integral of exp(-t cos u) sin u du dv, a closed form in t
    u, t = sc.sym("u"), sc.sym("t")
    patch = OraclePatch(
        ("u", "v"),
        ((0, math.pi), (0, 2 * math.pi)),
        sc.exp(sc.ZERO - t * sc.cos(u)) * sc.sin(u),
    )
    for tv in (0.5, 1.0, 2.0):
        value = global_berezin((patch,), binding={"t": tv}, tol=1e-10)
        exact = 2 * math.pi * (math.exp(tv) - math.exp(-tv)) / tv
        assert abs(value - exact) < 1e-8 * abs(exact)


def test_berezin_density_scales():
    F = parse_super(CHART, "x*y*th1*th2 + x")
    h = ((4, 0), (0, 9))
    density = berezin_density(F, h, EYE)
    assert abs(density((1.0, 2.0)) - 12.0) < 1e-12


def test_hodge_dual_two_generators():
    nu = parse_super(CHART, "x*th1 + y*th2")
    H = ((4, 0), (0, 4))
    dual = hodge_dual_H(nu, H)
    out = dual((2.0, 8.0))
    assert abs(out[0] - 2.0) < 1e-12
    assert abs(out[1] + 0.5) < 1e-12


def test_hodge_dual_three_generators():
    chart = SuperChart(("x", "y", "z"), 3)
    nu = parse_super(chart, "th1*th2")
    dual = hodge_dual_H(nu, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    out = dual((0.0, 0.0, 0.0))
    assert abs(out[0]) < 1e-12 and abs(out[1]) < 1e-12
    assert abs(out[2] - 0.5) < 1e-12


def test_hodge_dual_grade_guard():
    with pytest.raises(WrongGrade):
        hodge_dual_H(parse_super(CHART, "x*th1 + th1*th2"), EYE)


def test_super_stokes_needs_parallel_sigma():
    Q = tautological_Q(ROTATION)
    nu = parse_super(CHART, "x*y*th2")
    shear = ((sc.ONE, X), (sc.ZERO, sc.ONE))
    with pytest.raises(AssumptionViolated):
        super_stokes_check(
            nu, Q, shear, EYE, EYE, ((0, 1), (0, 1)), tol=1e-7, binding={"t": 1.0}
        )


def test_boundary_flux_divergence():
    # flux of (x, y) out of the unit square equals the divergence integral
    w = lambda p: (p[0], p[1])
    value = boundary_flux(w, EYE, ("x", "y"), ((0, 1), (0, 1)), tol=1e-10)
    assert abs(value - 2.0) < 1e-9


def test_super_stokes_unit_box():
    Q = tautological_Q(ROTATION)
    nu = parse_super(CHART, "x*y*th2")
    report = super_stokes_check(
        nu, Q, EYE, EYE, EYE, ((0, 1), (0, 1)), tol=1e-7, binding={"t": 1.0}
    )
    assert report["status"] == "pass"
    assert abs(report["bulk"] - 0.5) < 1e-7
    assert abs(report["boundary"] - 0.5) < 1e-7


def test_super_stokes_random_coefficients():
    rng = random.Random(411)
    Q = tautological_Q(ROTATION)
    for _ in range(4):
        comps = []
        for _ in range(2):
            e = sc.ZERO
            for a in range(3):
                for b in range(3):
                    e = e + sc.rational(rng.randint(-4, 4)) * X ** a * Y ** b
            comps.append(e)
        nu = SuperFunction(CHART, {(1,): comps[0], (2,): comps[1]})
        report = super_stokes_check(
            nu, Q, EYE, EYE, EYE, ((0, 1), (0, 1)), tol=1e-7, binding={"t": 2.0}
        )
        assert report["status"] == "pass", report


def test_super_stokes_annulus():
    # polar chart on the plane, boundary circles only, angle periodic
    chart = SuperChart(("r", "phi"), 2)
    r, phi = sc.sym("r"), sc.sym("phi")
    spec = ActionSpec(("t",), chart, ((sc.ZERO, sc.ONE),))
    Q = tautological_Q(spec)
    h = ((sc.ONE, sc.ZERO), (sc.ZERO, r * r))
    nu = SuperFunction(
        chart,
        {(1,): r ** 3 * sc.cos(phi), (2,): r * r - sc.rational(3) * r},
    )
    report = super_stokes_check(
        nu,
        Q,
        EYE,
        h,
        h,
        ((0.5, 1), (0, 2 * math.pi)),
        faces=((0, 1), (0, -1)),
        tol=1e-7,
        binding={"t": 1.0},
    )
    assert report["status"] == "pass"
    # g(1) - g(1/2) = -2 + 5/4 times the full angle
    assert abs(report["bulk"] + 1.5 * math.pi) < 1e-7
    assert abs(report["boundary"] + 1.5 * math.pi) < 1e-7

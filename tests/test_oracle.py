"""Adaptive quadrature, patch integrals, and the boundary identity."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from superloc import oracle
from superloc import scalars as sc
from superloc.actions import ActionSpec, tautological_Q
from superloc.cli import main
from superloc.errors import (
    AssumptionViolated,
    ComputationError,
    NoConvergence,
    NotInjective,
    UnboundSymbol,
    WrongGrade,
)
from superloc.geometry import (
    gaussian_oracle_patch,
    sphere_oracle_patch,
    sphere_polynomial_patch,
)
from superloc.grassmann import SuperChart, SuperFunction, SuperVectorField, parse_super
from superloc.oracle import (
    OraclePatch,
    boundary_flux,
    global_berezin,
    hodge_dual,
    quadrature,
    super_stokes_check,
)

X = sc.sym("x")
Y = sc.sym("y")
Z = sc.sym("z")
T = sc.sym("t")
S = sc.sym("s")

CHART = SuperChart(("x", "y"), 2)
ROTATION = ActionSpec(("t",), CHART, ((sc.ZERO - Y, X),))

EYE = ((sc.ONE, sc.ZERO), (sc.ZERO, sc.ONE))


def _gauss_1d(c: float, s: float) -> float:
    # integral over [0, 1] of exp(-s (x - c)^2)
    r = math.sqrt(s)
    return math.sqrt(math.pi / s) / 2 * (math.erf(r * (1 - c)) + math.erf(r * c))


def test_quadrature_polynomial(point_rule):
    value = quadrature(point_rule(lambda p: 3 * p[0] ** 2 + p[1]), ((0, 1), (0, 1)), tol=1e-12)
    assert abs(value - 1.5) < 1e-12


def test_quadrature_peaked_gaussian(point_rule):
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    value = quadrature(point_rule(f), ((0, 1), (0, 1)), tol=1e-11)
    exact = _gauss_1d(0.3, 50) * _gauss_1d(0.7, 50)
    assert abs(value - exact) < 1e-9


def test_quadrature_rejects_nonintegrable(point_rule):
    with pytest.raises(NoConvergence):
        quadrature(point_rule(lambda p: 1.0 / p[0]), ((0, 1),), tol=1e-10)


def test_quadrature_repeats_bit_for_bit(point_rule):
    # the cells are summed in one fixed order, so repeated calls agree bit for bit
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    first = quadrature(point_rule(f), ((0, 1), (0, 1)), tol=1e-11)
    second = quadrature(point_rule(f), ((0, 1), (0, 1)), tol=1e-11)
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
    """global_berezin as first written: the binding is copied and updated
    at every point, and every symbol is read from it.  Parameters enter as
    floats, as global_berezin binds them: an exact t would square exactly
    in the t^2 terms of a polynomial patch."""
    binding = {name: float(v) for name, v in binding.items()}
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
def test_quadrature_matches_reference_bit_for_bit(point_rule, f, box, tol):
    cells, points = [], []

    def counted(p):
        points.append(p)
        return f(p)

    assert quadrature(point_rule(counted), box, tol) == _reference_quadrature(f, box, tol, cells)
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
        (sphere_polynomial_patch(["1", "2", "-1/3", "5"]), Fraction(7, 3)),
        (
            OraclePatch(
                ("x", "y", "z"),
                ((0, 1), (-1, 1), (0, 2)),
                sc.exp(sc.ZERO - T * X * Y) * sc.cos(Z) + X ** 2 * Y * sc.sin(Z) + (1 + X + Z) ** -1,
            ),
            Fraction(1, 2),
        ),
    ],
    ids=[
        "plane", "sphere", "plane-t=1/2", "sphere-t=1/2", "plane-t=3", "sphere-t=3",
        "sphere-polynomial", "3d",
    ],
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


def test_quadrature_budget_raises(monkeypatch, point_rule):
    f = lambda p: math.exp(-50 * ((p[0] - 0.3) ** 2 + (p[1] - 0.7) ** 2))
    monkeypatch.setattr(oracle, "_MAX_EVALS", 4 * 144)
    with pytest.raises(NoConvergence):
        quadrature(point_rule(f), ((0, 1), (0, 1)), tol=1e-11)
    monkeypatch.undo()
    assert quadrature(point_rule(f), ((0, 1), (0, 1)), tol=1e-11) > 0


def _cell_axes(rng, d):
    """The twelve nodes of each axis of a random cell inside [0.2, 1.8]^d."""
    axes = []
    for _ in range(d):
        half = rng.uniform(0.05, 0.4)
        mid = rng.uniform(0.2, 1.0) + half
        axes.append([mid + half * x for x in oracle._GL_NODES])
    return axes


def _one_axis(rng, c):
    return rng.choice([
        c,
        c ** rng.choice([-2, -1, 2, 3]),
        sc.exp(sc.rational(rng.randint(-3, 3), rng.randint(1, 4)) * c),
        sc.sin(c + sc.rational(rng.randint(-3, 3), 2)),
        sc.cos(T * c),
        (c + 1) ** -1,
    ])


def _rule_expr(rng, coords):
    """A sum of products whose factors come from random axes, with bound
    parameters, negative powers, calls of one axis and of several."""
    axes = [sc.sym(n) for n in coords]
    total = sc.ZERO
    for _ in range(rng.randint(2, 5)):
        term = rng.choice([T, S, sc.rational(rng.choice([-9, -2, 1, 5]), rng.randint(1, 7))])
        for _ in range(rng.randint(1, 4)):
            term = term * _one_axis(rng, rng.choice(axes))
        if len(axes) > 1 and rng.random() < 0.4:
            a, b = rng.sample(axes, 2)
            term = term * rng.choice([sc.exp, sc.sin, sc.cos])(sc.rational(1, 3) * a * b)
        if len(axes) > 1 and rng.random() < 0.3:
            term = term * (sum(axes, sc.ONE)) ** -1
        total = total + term
    return total


_ALTERNATING = (
    X ** 3 + Y ** 2 + X,
    X ** 2 + sc.cos(Y) + sc.sin(X),
    X * Y * sc.sin(X),
    S * X + T * Y ** -2 * sc.exp(sc.ZERO - X) + Z * X,
    sc.exp(X * Y) * sc.sin(Z) + X ** -2 * Y + sc.cos(X) + T * Z * X * Y,
)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [-0.0, 0.0, Fraction(-5, 4)], ids=["s=-0.0", "s=0.0", "s=-5/4"])
def test_rule_matches_the_point_function_bit_for_bit(point_rule, d, s):
    coords = ("x", "y", "z")[:d]
    rng = random.Random(40 + d)
    binding = {"t": Fraction(7, 3), "s": s}
    exprs = [e for e in _ALTERNATING if sc.free_symbols(e) <= set(coords) | {"s", "t"}]
    exprs += [_rule_expr(rng, coords) for _ in range(24 // d)]
    weights = oracle._tensor_weights(d)
    for e in exprs:
        rule = sc.compile_rule(e, coords, weights, binding)
        per_point = point_rule(sc.compile_numeric(e, coords, binding))
        for _ in range(2):
            axes = _cell_axes(rng, d)
            assert rule(axes).hex() == per_point(axes).hex(), sc.to_text(e)


def test_alternating_args_stay_in_order():
    # the normal forms the differential test relies on: args of an Add or
    # Mul that alternate between the axes
    def axes(arg):
        return sorted(sc.free_symbols(arg))

    assert [axes(a) for a in sc.normalize(X ** 3 + Y ** 2 + X).args] == [["x"], ["y"], ["x"]]
    assert [axes(a) for a in sc.normalize(X * Y * sc.sin(X)).args] == [["x"], ["y"], ["x"]]


def test_rule_computes_each_one_axis_subtree_once_per_node(monkeypatch):
    calls = {"exp": 0, "sin": 0, "cos": 0}

    def counting(kind, fn):
        def counted(v):
            calls[kind] += 1
            return fn(v)

        return counted

    for kind in calls:
        monkeypatch.setattr(math, kind, counting(kind, getattr(math, kind)))
    rng = random.Random(5)
    cases = [
        # one-axis subtrees: 12 per axis per cell, not 12^d
        (("x", "y"), sc.sin(X) * sc.cos(Y) + sc.sin(X) * Y, {"sin": 12, "cos": 12}),
        (("x", "y", "z"), sc.sin(X) * sc.cos(Y) * sc.exp(Z) + X * Y * Z, {"sin": 12, "cos": 12, "exp": 12}),
        # a subtree of x and y runs in the loop over y, 144 times, not 1728
        (("x", "y", "z"), sc.sin(X * Y) * Z, {"sin": 144}),
    ]
    for coords, e, want in cases:
        for kind in calls:
            calls[kind] = 0
        rule = sc.compile_rule(e, coords, oracle._tensor_weights(len(coords)))
        rule(_cell_axes(rng, len(coords)))
        assert {k: v for k, v in calls.items() if v} == want, sc.to_text(e)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_budget_counts_12_to_the_d_evaluations_per_cell(monkeypatch, d):
    coords = ("x", "y", "z")[:d]
    e = sc.exp(sc.rational(-20) * sum((sc.sym(n) ** 2 for n in coords), sc.ZERO))
    rule = sc.compile_rule(e, coords, oracle._tensor_weights(d))
    cells = []

    def counted(axes):
        cells.append(len(axes))
        return rule(axes)

    box = ((-0.3, 1.0),) * d
    value = quadrature(counted, box, tol=1e-9)
    assert len(cells) > 2 ** d
    spent = len(cells) * 12 ** d
    monkeypatch.setattr(oracle, "_MAX_EVALS", spent)
    assert quadrature(counted, box, tol=1e-9) == value
    monkeypatch.setattr(oracle, "_MAX_EVALS", spent - 1)
    with pytest.raises(NoConvergence, match="more than %d " % (spent - 1)):
        quadrature(counted, box, tol=1e-9)


def test_global_berezin_overflow_raises_computation_error():
    patch = OraclePatch(("x", "y"), ((0, 1), (0, 1)), sc.exp(1000 * X) * Y)
    with pytest.raises(ComputationError, match="integrand raised OverflowError"):
        global_berezin((patch,))


def test_quadrature_budget_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_MAX_EVALS", 4 * 144)
    assert main(["oracle", "--scenario", "flat_rotation", "--quiet"]) == 3
    assert "more than 576 integrand evaluations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "form,message",
    [
        ("exp(-1*x^-1)*th2", "computation error: integrand raised ZeroDivisionError"),
        ("exp(1000*x)*th1", "computation error: integrand raised OverflowError"),
        # the dual component x^-1 meets a zero entry of sigma and is never
        # evaluated, but exp(1/x) overflows near x = 0 on the y faces
        ("exp(x^-1)*th1", "computation error: integrand raised OverflowError"),
        ("x^-1*y*th2", "computation error: quadrature cell at depth 12 did not converge"),
    ],
    ids=["zero-division", "overflow", "singular-dual-overflow", "no-convergence"],
)
def test_integrand_float_errors_exit_3(tmp_path, capsys, form, message):
    # a flat_box face integrand meets x = 0.0 or overflows: exit 3, no traceback
    path = tmp_path / "stokes.json"
    path.write_text(json.dumps({
        "name": "stokes", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
        "values": ["1"], "stokes": [{"domain": "flat_box", "form": form}],
        "checks": ["super_stokes"],
    }))
    assert main(["oracle", "--scenario", str(path), "--quiet"]) == 3
    assert message in capsys.readouterr().err


def test_integrand_float_errors_raise_computation_error(point_rule):
    with pytest.raises(ComputationError, match="ValueError: math domain error"):
        quadrature(point_rule(lambda p: math.log(p[0] - 0.5)), ((0, 1),))

    # the face x = 0.0 of a one-dimensional box is one point
    with pytest.raises(ComputationError, match="ZeroDivisionError"):
        boundary_flux([X ** -1], ("x",), ((0.0, 1.0),))


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


def test_hodge_dual_two_generators():
    nu = parse_super(CHART, "x*th1 + y*th2")
    out = [sc.evaluate(e, {"x": 2.0, "y": 8.0}) for e in hodge_dual(nu)]
    assert abs(out[0] - 8.0) < 1e-12
    assert abs(out[1] + 2.0) < 1e-12


def test_hodge_dual_three_generators():
    chart = SuperChart(("x", "y", "z"), 3)
    nu = parse_super(chart, "th1*th2")
    out = [sc.evaluate(e, {"x": 0.0, "y": 0.0, "z": 0.0}) for e in hodge_dual(nu)]
    assert abs(out[0]) < 1e-12 and abs(out[1]) < 1e-12
    assert abs(out[2] - 0.5) < 1e-12


def test_hodge_dual_grade_guard():
    with pytest.raises(WrongGrade):
        hodge_dual(parse_super(CHART, "x*th1 + th1*th2"))


def _odd_field(*a) -> SuperVectorField:
    zero = SuperFunction.zero(CHART)
    return SuperVectorField(CHART, 1, a, (zero, zero))


def test_super_stokes_reads_a_shear_off_Q():
    # a = (th1 + x th2, th2): sigma is a shear, not parallel for flat h
    th1, th2 = SuperFunction.generator(CHART, 1), SuperFunction.generator(CHART, 2)
    nu = parse_super(CHART, "x*y*th2")
    with pytest.raises(AssumptionViolated):
        super_stokes_check(nu, _odd_field(th1 + X * th2, th2), EYE, ((0, 1), (0, 1)), tol=1e-7)


def test_super_stokes_rejects_a_non_injective_sigma_before_quadrature(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("quadrature ran with a non-injective sigma")

    monkeypatch.setattr(oracle, "quadrature", never)
    th1 = SuperFunction.generator(CHART, 1)
    nu = parse_super(CHART, "x*y*th2")
    with pytest.raises(NotInjective):
        super_stokes_check(nu, _odd_field(th1, 2 * th1), EYE, ((0, 1), (0, 1)), tol=1e-7)


def test_boundary_flux_divergence():
    # flux of (x, y) out of the unit square equals the divergence integral
    value = boundary_flux([X, Y], ("x", "y"), ((0, 1), (0, 1)), tol=1e-10)
    assert abs(value - 2.0) < 1e-9


@pytest.mark.parametrize("face", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_boundary_integrand_evaluates_one_row_of_sigma(monkeypatch, face):
    # the face normal to axis k integrates one compiled expression, row k
    # of sigma applied to the dual, over the other coordinate with coords[k]
    # bound to the face; sigma = ((1, 2), (-1, 1)) and the dual is (xy, -x^2)
    th1, th2 = SuperFunction.generator(CHART, 1), SuperFunction.generator(CHART, 2)
    rows = (sc.parse_scalar("x*y - 2*x^2"), sc.parse_scalar("-1*x*y - x^2"))
    calls = []
    compile_rule = sc.compile_rule

    def recording(e, names, weights, binding=None):
        calls.append((e, tuple(names), binding))
        return compile_rule(e, names, weights, binding)

    monkeypatch.setattr(sc, "compile_rule", recording)
    nu = parse_super(CHART, "x*y*th2 + x^2*th1")
    Q = _odd_field(th1 + 2 * th2, th2 - th1)
    super_stokes_check(nu, Q, EYE, ((0, 1), (0.5, 2)), faces=(face,), tol=1e-7)
    k, side = face
    value = ((0.0, 1.0), (0.5, 2.0))[k][side > 0]
    assert [call for call in calls if call[2]] == [
        (sc.normalize(rows[k]), (("y", "x")[k],), {("x", "y")[k]: value})
    ]


def test_super_stokes_unit_box():
    Q = tautological_Q(ROTATION)
    nu = parse_super(CHART, "x*y*th2")
    report = super_stokes_check(nu, Q, EYE, ((0, 1), (0, 1)), tol=1e-7)
    assert report["status"] == "pass"
    assert abs(report["bulk"] - 0.5) < 1e-7
    assert abs(report["boundary"] - 0.5) < 1e-7


def test_super_stokes_one_dimensional_box():
    # each face of an interval is one point: the flux is nu(2) - nu(1/2)
    chart = SuperChart(("x",), 1)
    Q = tautological_Q(ActionSpec(("t",), chart, ((sc.ONE,),)))
    nu = parse_super(chart, "x^3 - 2*x")
    report = super_stokes_check(nu, Q, ((sc.ONE,),), ((0.5, 2.0),), tol=1e-7)
    assert report["status"] == "pass"
    assert abs(report["bulk"] - 4.875) < 1e-12
    assert abs(report["boundary"] - 4.875) < 1e-12


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
        report = super_stokes_check(nu, Q, EYE, ((0, 1), (0, 1)), tol=1e-7)
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
        h,
        ((0.5, 1), (0, 2 * math.pi)),
        faces=((0, 1), (0, -1)),
        tol=1e-7,
    )
    assert report["status"] == "pass"
    # g(1) - g(1/2) = -2 + 5/4 times the full angle
    assert abs(report["bulk"] + 1.5 * math.pi) < 1e-7
    assert abs(report["boundary"] + 1.5 * math.pi) < 1e-7

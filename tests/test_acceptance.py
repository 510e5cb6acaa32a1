"""End-to-end checks, one test per shipped guarantee.

Run with -v to get a single pass/fail line per guarantee.  Each test
states its tolerance inline and is independent of the others.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from superloc import scalars as sc
from superloc.actions import (
    ActionSpec,
    action_lift,
    kahler_Q,
    kahler_lift,
    tautological_Q,
    verify_brst,
)
from superloc.adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_constraint_scalars,
    adhm_lifted_field,
    adhm_super_chart,
    group_act,
    random_datum,
    random_unitary,
    rank_bookkeeping,
    sector_completion,
    unit_phase,
)
from superloc.geometry import (
    annulus_domain,
    closed_polynomial,
    flat_box_domain,
    atlas_fixed_points,
    height_exponential,
    sphere_atlas,
    sphere_oracle_patch,
)
from superloc.grassmann import (
    SuperChart,
    SuperFunction,
    field_is_zero,
    parse_super,
)
from superloc.harness import load_scenario, run_brst_check, run_compare, serialize_report
from superloc.linalg import det, mat_mul, pfaffian
from superloc.localize import (
    classical_localize,
    classical_prefactor,
    sqrt_det_base,
    sqrt_sdet_via_pfaffian,
    super_localize,
    super_prefactor,
    superdeterminant,
)
from superloc.oracle import global_berezin, super_stokes_check

SCENARIOS = "src/superloc/scenarios/%s.json"


def _sphere_setup():
    atlas = sphere_atlas()
    fields = {p.name: height_exponential(p) for p in atlas}
    Q = {p.name: tautological_Q(p.spec) for p in atlas}
    return fields, atlas_fixed_points(atlas), Q


def test_01_sphere_height_integral_three_scales():
    fields, fps, Q = _sphere_setup()
    patch = sphere_oracle_patch()
    assert all(Q[name].apply(F).is_zero() for name, F in fields.items())
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        start = time.perf_counter()
        localized = super_localize(fields, fps, binding={"t": t})["value"]
        oracle = global_berezin([patch], binding={"t": t}, tol=1e-9)
        closed = 2 * math.pi * (math.exp(t) - math.exp(-t)) / float(t)
        assert abs(localized - oracle) / abs(oracle) < 1e-6
        assert abs(localized - closed) / abs(closed) < 1e-6
        assert abs(oracle - closed) / abs(closed) < 1e-6
        assert time.perf_counter() - start < 30.0


def test_02_random_closed_forms_match_classical():
    rng = random.Random(411)
    atlas = sphere_atlas()
    fps = atlas_fixed_points(atlas)
    Q = {p.name: tautological_Q(p.spec) for p in atlas}
    for _ in range(20):
        degree = rng.randint(1, 4)
        coeffs = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree + 1)
        ]
        fields = {p.name: closed_polynomial(p, coeffs) for p in atlas}
        assert all(Q[name].apply(F).is_zero() for name, F in fields.items())
        t = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        sup = super_localize(fields, fps, binding={"t": t})
        cla = classical_localize(fields, fps, binding={"t": t})
        assert sup["coefficient"] == cla["coefficient"]
        assert sup["pi_power"] == cla["pi_power"]
        assert abs(sup["value"] - cla["value"]) < 1e-9
    pref_super = super_prefactor(2, 2)
    pref_classical = classical_prefactor(2)
    assert pref_super.coeff == pref_classical.coeff == Fraction(-2)
    assert pref_super.pi_power == pref_classical.pi_power == 1


def test_03_operator_squares_to_flow_all_families(square_reference):
    start = time.perf_counter()
    for patch in sphere_atlas():
        spec = patch.spec
        assert verify_brst(tautological_Q(spec), action_lift(spec), spec.params)["passed"]
    # the torus on C^2 in holomorphic coordinates, with weights e_j on z_j
    chart4 = SuperChart(("z1", "zb1", "z2", "zb2"), 2)
    torus = ActionSpec(
        ("e1", "e2"),
        chart4,
        (
            (sc.sym("z1"), -sc.sym("zb1"), sc.ZERO, sc.ZERO),
            (sc.ZERO, sc.ZERO, sc.sym("z2"), -sc.sym("zb2")),
        ),
    )
    assert verify_brst(kahler_Q(torus), kahler_lift(torus), torus.params)["passed"]
    for full in (False, True):
        lay = adhm_super_chart(1, 2, full=full)
        Q = (adhm_Q_full if full else adhm_Q_unconstrained)(lay)
        lift = adhm_lifted_field(lay)
        assert field_is_zero(square_reference(Q, lift))
    report = run_brst_check(load_scenario(SCENARIOS % "adhm_k2_n2_brst"))
    for rec in report["checks"]:
        if rec["name"].startswith("closure"):
            assert rec["status"] == "pass"
            assert rec["abs_error"] < 1e-12
    assert time.perf_counter() - start < 60.0


def _random_skew(n: int, rng: random.Random):
    upper = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    return [
        [upper[i][j] - upper[j][i] for j in range(n)] for i in range(n)
    ]


def _random_invertible(n: int, rng: random.Random):
    while True:
        M = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if det([list(r) for r in M]) != 0:
            return M


def test_04_pfaffian_and_superdeterminant_identities():
    rng = random.Random(902)
    for _ in range(50):
        n = 2 * rng.randint(1, 4)
        A = _random_skew(n, rng)
        assert pfaffian([list(r) for r in A]) ** 2 == det([list(r) for r in A])
    for _ in range(30):
        ne, no = rng.randint(1, 3), rng.randint(1, 3)
        E1, E2 = _random_invertible(ne, rng), _random_invertible(ne, rng)
        O1, O2 = _random_invertible(no, rng), _random_invertible(no, rng)
        lhs = superdeterminant(mat_mul(E1, E2), mat_mul(O1, O2))
        rhs = superdeterminant(E1, O1) * superdeterminant(E2, O2)
        assert lhs == rhs
    for fp in atlas_fixed_points(sphere_atlas()):
        half_sdet = sqrt_sdet_via_pfaffian(fp, binding={"t": Fraction(3)})
        half_det = sqrt_det_base(fp, binding={"t": Fraction(3)})
        assert half_sdet * half_det == 1


def test_05_super_stokes_on_box_and_annulus():
    cases = (
        (flat_box_domain(), "x*y*th2"),
        (annulus_domain(), "r^3*cos(phi)*th1 + (r^2 - 3*r)*th2"),
    )
    for domain, text in cases:
        nu = parse_super(domain.spec.chart, text)
        result = super_stokes_check(
            nu,
            tautological_Q(domain.spec),
            domain.h,
            domain.box,
            faces=domain.faces,
            tol=1e-7,
        )
        assert abs(result["bulk"] - result["boundary"]) < 1e-7


def test_06_adhm_constraints_and_multiplier_structure(constraint_norms):
    rng = random.Random(733)
    for _ in range(50):
        k, N = rng.randint(1, 3), rng.randint(1, 3)
        lay = adhm_super_chart(k, N)
        d = random_datum(lay, rng)
        U, V = random_unitary(k, rng), random_unitary(N, rng)
        moved = group_act(lay, d, U, V, unit_phase(rng), unit_phase(rng))
        assert constraint_norms(lay, moved) == constraint_norms(lay, d)

    # the odd shadow of each constraint V is Q(V), first order in theta
    lay = adhm_super_chart(1, 2)
    V = adhm_constraint_scalars(lay)
    Q = adhm_Q_unconstrained(lay)
    ferm = [Q.apply(SuperFunction.from_scalar(lay.chart, v)) for v in V]
    point = {name: rng.uniform(-1.0, 1.0) for name in lay.chart.coords}
    step = 1e-6
    for b, f in enumerate(ferm):
        assert all(len(idx) == 1 for idx in f.terms)
        for idx, name in enumerate(lay.chart.coords):
            coeff = f.terms.get((idx + 1,))
            exact = float(sc.evaluate(coeff, point)) if coeff is not None else 0.0
            up, down = dict(point), dict(point)
            up[name] += step
            down[name] -= step
            numeric = (
                float(sc.evaluate(V[b], up)) - float(sc.evaluate(V[b], down))
            ) / (2 * step)
            if abs(exact) > 1e-10 or abs(numeric) > 1e-10:
                assert abs(exact - numeric) / max(abs(exact), abs(numeric)) < 1e-5

    for k in (1, 2):
        full = adhm_super_chart(k, 2, full=True)
        lifted = adhm_lifted_field(full)
        _, rep_c = sector_completion(full, lifted, adhm_constraint_scalars(full), "HC")
        assert rep_c["pairing_residual_zero"]
        if k == 2:
            assert rep_c["invertible"]
    toy = adhm_super_chart(1, 2, full=True)
    lifted = adhm_lifted_field(toy)
    _, rep_r = sector_completion(toy, lifted, adhm_constraint_scalars(toy), "HR")
    assert rep_r["pairing_residual_zero"]
    assert not rep_r["invertible"]


def test_07_rank_bookkeeping_table():
    rng = random.Random(58)
    for _ in range(10):
        k, N = rng.randint(1, 5), rng.randint(1, 6)
        assert rank_bookkeeping(k, N, 1) == 2 * k * N
        assert rank_bookkeeping(k, N, 2) == 4 * k * N
        assert rank_bookkeeping(k, N, 4) == 8 * k * N


def test_08_reports_byte_identical_modulo_timestamp():
    scenario = load_scenario(SCENARIOS % "sphere_dh")
    first = serialize_report(run_compare(scenario), timestamp="T1")
    second = serialize_report(run_compare(scenario), timestamp="T2")
    keep = lambda text: [l for l in text.splitlines() if "timestamp" not in l]
    assert keep(first) == keep(second)
    assert first != second

"""Seeded scenario workloads and the independent correctness gate.

`generate(workload, seed, directory)` writes the scenario files of one
workload and returns its fixed operation list.  Files are a pure function
of (workload, seed): the same seed gives byte-identical files.  Costs are
kept comparable across seeds by fixing the structure of every workload
(scenario kinds, number of values, polynomial degrees) and drawing only
the values.

`check(op, rc, report_text)` judges one operation's report against
references computed here, never against the harness's own tables.
"""
from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

# The why of each workload is recorded in BENCHMARK.json.
WORKLOADS = ("closure", "quadrature", "exact_sums")

# t values: fractions p/q with q <= 4 in [1/2, 3], sixteen in all.
_GRID = sorted({Fraction(p, q) for q in (1, 2, 3, 4) for p in range(1, 13)
                if Fraction(1, 2) <= Fraction(p, q) <= 3})

_STOKES = [
    {"domain": "flat_box", "form": "x*y*th2", "tol": 1e-7},
    {"domain": "annulus", "form": "r^3*cos(phi)*th1 + (r^2 - 3*r)*th2", "tol": 1e-7},
]

REFERENCES = {
    "height_exponential": lambda t: 2 * math.pi * (math.exp(t) - math.exp(-t)) / t,
    "gaussian_rotation": lambda t: -2 * math.pi / t,
}


def _deal(rng: random.Random, scenarios: int, per: int) -> list:
    """Seeded t values for `scenarios` scenarios, `per` values each.

    The grid is cut by rank into `per` strata and every scenario gets one
    value from each.  With few scenarios most of every stratum is drawn, so
    the seed changes which scenario integrates which t more than it changes
    the total work of the workload.
    """
    size = len(_GRID) // per
    strata = [_GRID[i * size:(i + 1) * size if i < per - 1 else None] for i in range(per)]
    drawn = [rng.sample(stratum, scenarios) for stratum in strata]
    return [[str(t) for t in sorted(column)] for column in zip(*drawn)]


def _coeff(rng: random.Random) -> str:
    return str(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 13)))


def _adhm(name: str, k: int, mode: str, seed=None) -> dict:
    scenario = {"name": name, "kind": "adhm", "k": k, "N": 2, "mode": mode}
    if seed is not None:
        scenario["seed"] = seed
    scenario["tol"] = 1e-12
    return scenario


def _sphere_height(name: str, values: list) -> dict:
    return {"name": name, "kind": "sphere", "form": {"type": "height_exponential"},
            "values": values, "reference": "height_closed_form", "tol": 1e-6}


def _plane(name: str, values: list, stokes: bool) -> dict:
    scenario = {"name": name, "kind": "plane_rotation",
                "form": {"type": "gaussian_rotation"}, "values": values,
                "reference": "gaussian_closed_form", "tol": 1e-6}
    if stokes:
        scenario["stokes"] = [dict(entry) for entry in _STOKES]
    return scenario


def _plan(workload: str, seed: int) -> list:
    """(command, scenario) pairs of one workload, in run order."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "closure":
        return [
            ("brst-check", _adhm("adhm_k2_n2_brst", 2, "numeric", 2024)),
            ("brst-check", _adhm("closure_k2_a", 2, "numeric", rng.randrange(1, 2 ** 31))),
            ("brst-check", _adhm("closure_k2_b", 2, "numeric", rng.randrange(1, 2 ** 31))),
            ("brst-check", _adhm("adhm_k1_n2", 1, "symbolic")),
        ]
    if workload == "quadrature":
        plan = []
        for i, values in enumerate(_deal(rng, 2, 3)):
            sphere = _sphere_height("quad_sphere_%d" % i, values)
            plan += [("oracle", sphere), ("compare", sphere)]
        for i, values in enumerate(_deal(rng, 5, 3)):
            plane = _plane("quad_plane_%d" % i, values, stokes=True)
            plan += [("oracle", plane), ("compare", plane)]
        return plan
    if workload == "exact_sums":
        plan = []
        for i, values in enumerate(_deal(rng, 4, 3)):
            coeffs = [_coeff(rng) for _ in range(i + 4)]
            plan.append(("localize", {
                "name": "sums_poly_%d" % i, "kind": "sphere",
                "form": {"type": "closed_polynomial", "coeffs": coeffs},
                "values": values, "tol": 1e-6}))
        plan.append(("brst-check", _sphere_height("sums_sphere", ["1"])))
        plan.append(("brst-check", _plane("sums_plane", ["1"], stokes=False)))
        plan.append(("brst-check", {"name": "kahler_c2", "kind": "kahler_torus", "tol": 1e-8}))
        return plan
    raise ValueError("unknown workload %r" % (workload,))


def generate(workload: str, seed: int, directory: str) -> list:
    """Write the workload's scenario files; return its operations in order."""
    ops, written = [], {}
    for command, scenario in _plan(workload, seed):
        name = scenario["name"]
        if name not in written:
            path = os.path.join(directory, name + ".json")
            with open(path, "w") as fh:
                fh.write(json.dumps(scenario, indent=2) + "\n")
            written[name] = path
        ops.append({"id": "%s:%s" % (command, name), "command": command,
                    "file": written[name], "scenario": scenario})
    return ops


# ---------------------------------------------------------------------------
# correctness gate


def expected_records(command: str, scenario: dict) -> list:
    """(name, status) of every record the report must hold, in order."""
    kind = scenario["kind"]
    labels = scenario.get("values", [])
    if kind in ("sphere", "plane_rotation"):
        if command == "localize":
            return [(base + "[t=%s]" % t, "pass") for t in labels
                    for base in ("super_localize", "classical_localize")]
        if command == "oracle":
            return ([("global_berezin[t=%s]" % t, "pass") for t in labels]
                    + [("super_stokes[%s]" % e["domain"], "pass")
                       for e in scenario.get("stokes", [])])
        if command == "compare":
            return [(base + "[t=%s]" % t, "pass") for t in labels
                    for base in ("compare", "super_vs_reference", "oracle_vs_reference")]
        charts = ("north", "south") if kind == "sphere" else ("plane",)
        return [(base + "[%s]" % c, "pass") for c in charts
                for base in ("verify_brst", "sigma_parallel")]
    if kind == "kahler_torus" and command == "brst-check":
        return [("verify_brst", "pass")]
    if kind == "adhm" and command == "brst-check":
        names = ("closure_unconstrained", "closure_full", "verify_brst_unconstrained",
                 "sigma_identity", "multiplier_real_sector",
                 "multiplier_complex_sector")
        fixed = "pass" if scenario["k"] == 1 else "skipped(OnlyRankOne)"
        return [(n, "pass") for n in names] + [("fixed_points", fixed)]
    raise ValueError("no expectation for %s on kind %s" % (command, kind))


def _rel(got, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _label(name: str) -> Fraction:
    return Fraction(name[name.index("[t=") + 3:-1])


def _odd_sum(coeffs: list, t: Fraction) -> Fraction:
    """4 * sum over odd k of c_k t^(k-1): the exact sphere sum of the
    closed polynomial form, so the localized value is this times pi."""
    return 4 * sum((Fraction(c) * t ** (k - 1) for k, c in enumerate(coeffs) if k % 2),
                   Fraction(0))


def check(op: dict, rc: int, report_text, references=REFERENCES) -> tuple:
    """Judge one operation.  Returns (problems, oracle_rel_errors)."""
    if rc != 0:
        return ["exit code %d" % rc], []
    if report_text is None:
        return ["no report written"], []
    report = json.loads(report_text)
    scenario, command = op["scenario"], op["command"]
    records = report["checks"]
    got = [(r["name"], r["status"]) for r in records]
    want = expected_records(command, scenario)
    if got != want:
        return ["records %s, expected %s" % (got, want)], []
    problems, oracle_errors = [], []
    tol = scenario["tol"]
    form = scenario.get("form", {}).get("type")
    for rec in records:
        name = rec["name"]
        base = name.split("[", 1)[0]
        if base in ("global_berezin", "compare", "super_vs_reference", "oracle_vs_reference"):
            ref = references[form](float(_label(name)))
            values = {"global_berezin": [("oracle", rec["lhs"])],
                      "compare": [("local", rec["lhs"]), ("oracle", rec["rhs"])],
                      "super_vs_reference": [("local", rec["lhs"])],
                      "oracle_vs_reference": [("oracle", rec["lhs"])]}[base]
            for side, value in values:
                err = _rel(value, ref)
                if side == "oracle":
                    oracle_errors.append(err)
                if not err <= tol:
                    problems.append("%s: %s value %r misses reference %r" % (name, side, value, ref))
        elif base in ("super_localize", "classical_localize") and form == "closed_polynomial":
            want_coeff = _odd_sum(scenario["form"]["coeffs"], _label(name))
            detail = rec["detail"]
            if detail["coefficient"] != str(want_coeff) or detail["pi_power"] != 1:
                problems.append("%s: coefficient %s pi^%s, expected %s pi" % (
                    name, detail["coefficient"], detail["pi_power"], want_coeff))
            if not _rel(rec["lhs"], float(want_coeff) * math.pi) <= tol:
                problems.append("%s: value %r misses %s pi" % (name, rec["lhs"], want_coeff))
        elif base == "super_stokes":
            domain = name[len("super_stokes["):-1]
            entry_tol = next(e["tol"] for e in scenario["stokes"] if e["domain"] == domain)
            if not rec["abs_error"] <= entry_tol:
                problems.append("%s: boundary mismatch %r" % (name, rec["abs_error"]))
        elif base == "fixed_points" and scenario["k"] == 1:
            if not rec["lhs"] == rec["rhs"] == scenario["N"]:
                problems.append("fixed_points: %r points for N=%d" % (rec["lhs"], scenario["N"]))
    return problems, oracle_errors

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from superloc import actions, cli, harness
from superloc import scalars as sc
from superloc.actions import action_lift, tautological_Q, verify_brst
from superloc.cli import main
from superloc.errors import NotQClosed, SchemaError
from superloc.geometry import PLANE_ROTATION
from superloc.grassmann import SuperVectorField, parse_super
from superloc.harness import (
    load_scenario,
    report_exit_code,
    run_brst_check,
    run_compare,
    run_localize,
    run_oracle,
    serialize_report,
)

BUNDLED = "src/superloc/scenarios/%s.json"
SRC = Path(__file__).resolve().parents[1] / "src"
NAMES = ("sphere_dh", "sphere_poly", "flat_rotation", "adhm_k1_n2", "adhm_k2_n2_brst", "kahler_c2")


def _write(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def _statuses(report):
    return [rec["status"] for rec in report["checks"]]


def test_bundled_scenarios_load():
    for name in NAMES:
        scenario = load_scenario(BUNDLED % name)
        assert scenario["name"] == name
        assert len(scenario["_hash"]) == 64


def test_schema_rejections(tmp_path):
    bad = [
        "[1, 2]",
        "{not json",
        {"kind": "sphere"},
        {"name": "x", "kind": "torus?"},
        # an odd-dimensional line never reaches a localization verdict
        {"name": "x", "kind": "line_dilation",
         "form": {"type": "expression", "text": "exp(-t*x^2)"}, "values": ["1"]},
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"}, "values": []},
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"}, "values": ["1/0"]},
        # t = 0 switches the action off: no fixed point is isolated, and
        # both closed forms divide by t
        {
            "name": "x",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["0"],
            "reference": "height_closed_form",
            "checks": ["oracle_vs_reference"],
        },
        # a repeated value would give two records of the same name
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"},
         "values": ["1", "2/2"]},
        {"name": "x", "kind": "sphere", "form": {"type": "spline"}, "values": ["1"]},
        # a form type of another kind, or one that is not a string
        {"name": "x", "kind": "plane_rotation", "form": {"type": "height_exponential"},
         "values": ["1"]},
        {"name": "x", "kind": "sphere", "form": {"type": ["height_exponential"]}, "values": ["1"]},
        {"name": "x", "kind": "plane_rotation", "form": {"type": {"a": 1}}, "values": ["1"]},
        {"name": "x", "kind": "sphere", "form": {"type": "closed_polynomial"}, "values": ["1"]},
        {
            "name": "x",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "checks": ["fixed_points"],
        },
        {
            "name": "x",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "reference": "zeta_values",
        },
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "torus", "form": "x*th1"}],
        },
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "x*!"}],
        },
        # a symbol outside the chart coordinates has no value at any point
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "s*x*y*th2"}],
        },
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "t*x*y*th2"}],
        },
        {"name": "x", "kind": "adhm", "k": 0, "N": 2},
        # bool is an int subclass: true must not load as tol 1.0 or k = 1
        {
            "name": "x",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "tol": True,
        },
        {"name": "x", "kind": "adhm", "k": True, "N": 2},
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "x*th1", "tol": True}],
        },
        {
            "name": "x",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "x*th1", "tol": "loose"}],
        },
        {"name": "x", "kind": "adhm", "k": 1, "N": True},
        # a stokes list, a reference name and a domain name of the wrong type
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": 5},
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": None},
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": True},
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"},
         "values": ["1"], "reference": ["x"]},
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": [{"domain": ["a"], "form": "x*th1"}]},
        # the boundary identity dualizes a form of degree n - 1 = 1 in the odd generators
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": [{"domain": "flat_box", "form": "th1*th2"}]},
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": [{"domain": "annulus", "form": "r*th1 + 1"}]},
        # a repeated domain would give two records of the same name
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": [{"domain": "flat_box", "form": "x*th2"},
                                     {"domain": "flat_box", "form": "y*th1"}]},
        # past the kernel's budget of term products, parsing stops at once
        {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
         "values": ["1"], "stokes": [{"domain": "flat_box", "form": "(x+y+1)^100*th2"}]},
    ]
    # a tolerance must be finite and > 0; json loads NaN and Infinity
    sphere = {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"}, "values": ["1"]}
    plane = {"name": "x", "kind": "plane_rotation", "form": {"type": "gaussian_rotation"},
             "values": ["1"]}
    for tol in (-1, 0, 0.0, -1e-12, math.nan, math.inf):
        bad.append(dict(sphere, tol=tol))
        bad.append(dict(plane, stokes=[{"domain": "flat_box", "form": "x*th1", "tol": tol}]))
    for obj in bad:
        with pytest.raises(SchemaError):
            load_scenario(_write(tmp_path, obj))
    with pytest.raises(SchemaError, match="names s, not a coordinate of flat_box"):
        load_scenario(_write(tmp_path, dict(plane, stokes=[{"domain": "flat_box", "form": "s*x*y*th2"}])))
    with pytest.raises(SchemaError, match="a value of t is repeated, got '2/2'"):
        load_scenario(_write(tmp_path, dict(sphere, values=["1", "2/2"])))
    with pytest.raises(SchemaError, match="unknown scenario kind 'line_dilation'"):
        load_scenario(_write(tmp_path, {"name": "x", "kind": "line_dilation", "values": ["1"]}))
    with pytest.raises(SchemaError, match="value of t must be nonzero"):
        load_scenario(_write(tmp_path, dict(sphere, values=["1", "0/3"])))
    with pytest.raises(SchemaError, match="not of degree 1 in the odd generators"):
        load_scenario(_write(tmp_path, dict(plane, stokes=[{"domain": "flat_box", "form": "th1*th2"}])))
    with pytest.raises(SchemaError, match="stokes domain 'annulus' is repeated"):
        load_scenario(_write(tmp_path, dict(plane, stokes=[
            {"domain": "annulus", "form": "r*th2"}, {"domain": "flat_box", "form": "x*th2"},
            {"domain": "annulus", "form": "r*th1"}])))
    t0 = time.perf_counter()
    with pytest.raises(SchemaError, match="exceeds 100000 term products"):
        load_scenario(_write(tmp_path, dict(plane, stokes=[
            {"domain": "flat_box", "form": "(x+y+1)^200*th2"}])))
    assert time.perf_counter() - t0 < 1.0
    # a long written-out sum parses: the lift does not recurse once per term
    long_sum = " + ".join("x^%d*th2" % i for i in range(500))
    loaded = load_scenario(_write(tmp_path, dict(plane, stokes=[{"domain": "flat_box", "form": long_sum}])))
    assert loaded["stokes"][0]["form"] == long_sum
    # nor does normalize once per term of a written-out scalar sum
    long_factor = "(%s)*th2" % "+".join("x^%d" % i for i in range(1000))
    loaded = load_scenario(_write(tmp_path, dict(plane, stokes=[{"domain": "flat_box", "form": long_factor}])))
    assert loaded["stokes"][0]["form"] == long_factor
    with pytest.raises(SchemaError, match="unsupported plane_rotation form 'closed_polynomial'"):
        load_scenario(_write(tmp_path, dict(plane, form={"type": "closed_polynomial"})))
    # a zeroth power divides by zero when its base does
    for text in ("x/0*th2", "(x/0)^0*th2"):
        with pytest.raises(SchemaError, match="stokes form does not parse: inverse of zero expression"):
            load_scenario(_write(tmp_path, dict(plane, stokes=[{"domain": "flat_box", "form": text}])))


def test_adhm_chart_with_a_repeated_coordinate_is_a_computation_error(tmp_path, capsys):
    # at k = 12, B1's entries (1, 10) and (11, 0) are both named B1_110_re
    path = _write(tmp_path, {"name": "big", "kind": "adhm", "k": 12, "N": 2})
    assert main(["brst-check", "--scenario", str(path), "--quiet"]) == 3
    assert capsys.readouterr().err == "computation error: chart coordinate 'B1_110_re' is repeated\n"


def test_sphere_compare_matches_reference():
    scenario = load_scenario(BUNDLED % "sphere_dh")
    report = run_compare(scenario)
    assert report_exit_code(report) == 0
    assert all(s == "pass" for s in _statuses(report))
    by_name = {rec["name"]: rec for rec in report["checks"]}
    expected = 2 * math.pi * (math.e - 1 / math.e)
    assert abs(by_name["compare[t=1]"]["lhs"] - expected) < 1e-9


def test_sphere_polynomial_compare(tmp_path):
    path = _write(
        tmp_path,
        {
            "name": "poly",
            "kind": "sphere",
            "form": {"type": "closed_polynomial", "coeffs": ["0", "1", "1/2", "-2/3"]},
            "values": ["1", "3/2"],
            "tol": 1e-6,
        },
    )
    report = run_compare(load_scenario(path))
    assert report["totals"] == {"pass": 2, "fail": 0, "skipped": 0}


def test_localize_lists_fixed_point_terms():
    report = run_localize(load_scenario(BUNDLED % "sphere_dh"))
    rec = next(r for r in report["checks"] if r["name"] == "super_localize[t=1]")
    points = rec["detail"]["points"]
    assert sorted(p["chart"] for p in points) == ["north", "south"]
    assert abs(sum(p["contribution"] for p in points) - rec["lhs"]) < 1e-12


def test_oracle_runs_boundary_checks():
    report = run_oracle(load_scenario(BUNDLED % "flat_rotation"))
    names = [rec["name"] for rec in report["checks"]]
    assert "super_stokes[flat_box]" in names
    assert "super_stokes[annulus]" in names
    assert all(s == "pass" for s in _statuses(report))


def test_sphere_oracle_accepts_its_boundary_checks(tmp_path):
    # validation and the runs read one registry, so a check that runs can be named
    path = _write(
        tmp_path,
        {
            "name": "sphere-stokes",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "stokes": [{"domain": "flat_box", "form": "x*y*th2"}],
            "checks": ["super_stokes"],
        },
    )
    report = run_oracle(load_scenario(path))
    assert [rec["name"] for rec in report["checks"]] == ["super_stokes[flat_box]"]
    assert _statuses(report) == ["pass"]


def test_empty_check_list_yields_zero_records(tmp_path):
    path = _write(
        tmp_path,
        {
            "name": "empty",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "checks": [],
        },
    )
    scenario = load_scenario(path)
    for runner in (run_localize, run_oracle, run_compare, run_brst_check):
        report = runner(scenario)
        assert report["checks"] == []
        assert report["totals"] == {"pass": 0, "fail": 0, "skipped": 0}
        assert report_exit_code(report) == 0


def test_command_without_checks_for_the_kind_is_refused():
    scenario = load_scenario(BUNDLED % "adhm_k1_n2")
    with pytest.raises(SchemaError, match="kind 'adhm' has no localize checks"):
        run_localize(scenario)
    # a checks list that the registered command filters down to nothing is not refused
    scenario["checks"] = []
    assert run_brst_check(scenario)["checks"] == []


def test_check_filter_selects_base_names(tmp_path):
    path = _write(
        tmp_path,
        {
            "name": "only-super",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1", "2"],
            "checks": ["super_localize"],
        },
    )
    report = run_localize(load_scenario(path))
    assert [rec["name"] for rec in report["checks"]] == [
        "super_localize[t=1]",
        "super_localize[t=2]",
    ]


def test_check_filter_applies_before_computing(tmp_path, monkeypatch):
    path = _write(
        tmp_path,
        {
            "name": "oracle-only",
            "kind": "plane_rotation",
            "form": {"type": "gaussian_rotation"},
            "values": ["1", "2"],
            "reference": "gaussian_closed_form",
            "checks": ["oracle_vs_reference"],
        },
    )

    def refuse(*args, **kwargs):
        raise AssertionError("super_localize ran although no wanted check needs it")

    monkeypatch.setattr(harness, "super_localize", refuse)
    report = run_compare(load_scenario(path))
    assert [rec["name"] for rec in report["checks"]] == [
        "oracle_vs_reference[t=1]",
        "oracle_vs_reference[t=2]",
    ]
    assert _statuses(report) == ["pass", "pass"]


def test_error_mapping_is_per_check(monkeypatch):
    scenario = load_scenario(BUNDLED % "flat_rotation")

    def not_closed(*args, **kwargs):
        raise NotQClosed("integrand is not annihilated")

    monkeypatch.setattr(harness, "super_localize", not_closed)
    report = run_localize(scenario)
    assert _statuses(report) == ["fail", "pass", "fail", "pass"]
    assert report["checks"][0]["detail"] == {"reason": "integrand is not annihilated"}
    # compare maps no errors, so the same failure reaches the caller
    with pytest.raises(NotQClosed):
        run_compare(scenario)


def test_closedness_is_checked_once_per_run(monkeypatch):
    # Q-closedness does not depend on t: three values on two charts apply Q twice
    applied = []
    apply = SuperVectorField.apply

    def counting(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(SuperVectorField, "apply", counting)
    report = run_localize(load_scenario(BUNDLED % "sphere_dh"))
    assert len(applied) == 2
    assert _statuses(report) == ["pass"] * 6


def test_unclosed_integrand_fails_every_value(monkeypatch):
    # the body alone, without its area term, is not annihilated by Q
    monkeypatch.setattr(
        harness, "closed_integrand", lambda chart, f: parse_super(chart.spec.chart, "exp(-t*x)")
    )
    scenario = load_scenario(BUNDLED % "sphere_dh")
    report = run_localize(scenario)
    assert _statuses(report) == ["fail", "pass"] * 3
    reasons = [rec["detail"] for rec in report["checks"][::2]]
    assert reasons == [{"reason": "integrand on chart 'north' is not closed"}] * 3
    with pytest.raises(NotQClosed):
        run_compare(scenario)


def test_reports_are_deterministic():
    scenario = load_scenario(BUNDLED % "sphere_dh")
    first = serialize_report(run_compare(scenario), timestamp="A")
    second = serialize_report(run_compare(scenario), timestamp="B")
    assert first != second
    strip = lambda text: [l for l in text.splitlines() if "timestamp" not in l]
    assert strip(first) == strip(second)
    assert "runtime" not in first


def test_kahler_scenario_verifies_operator():
    report = run_brst_check(load_scenario(BUNDLED % "kahler_c2"))
    assert _statuses(report) == ["pass"]
    conditions = report["checks"][0]["detail"]["conditions"]
    assert {c["name"] for c in conditions} >= {"square_equals_lift"}


def test_failed_brst_record_names_the_component():
    spec = PLANE_ROTATION
    Q = tautological_Q(spec)
    b = (Q.b[0] + parse_super(spec.chart, "x"),) + Q.b[1:]
    broken = SuperVectorField(spec.chart, 1, Q.a, b)
    record = harness._verified(verify_brst(broken, action_lift(spec), spec.params))
    assert record["status"] == "fail"
    by_name = {c["name"]: c for c in record["detail"]["conditions"]}
    assert "b[1] = th1" in by_name["square_equals_lift"]["residual"]
    assert by_name["equivariance_finite"]["residual"] == ["t"]
    # passing conditions stay name and status only, as in every passing report
    assert by_name["sigma_injective"] == {"name": "sigma_injective", "status": "pass"}


def test_cli_runs_without_numpy():
    # numpy is a test-only oracle: importing the CLI and running a BRST check
    # and the quadrature oracle must not load it
    code = (
        "import sys, superloc.cli\n"
        "from superloc.cli import main\n"
        "assert main(['brst-check', '--scenario', 'adhm_k2_n2_brst', '--quiet']) == 0\n"
        "assert main(['oracle', '--scenario', 'sphere_dh', '--quiet']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    _run_fresh(code)


def test_cli_import_loads_no_dataclasses():
    # start-up: the records are plain slotted classes, and dataclasses with
    # what it imports (inspect, ast, dis, tokenize) would cost every run
    _run_fresh(
        "import sys, superloc.cli\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
    )


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports superloc from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_adhm_symbolic_scenario_full_suite():
    report = run_brst_check(load_scenario(BUNDLED % "adhm_k1_n2"))
    by_name = {rec["name"]: rec["status"] for rec in report["checks"]}
    for name in (
        "closure_unconstrained",
        "closure_full",
        "verify_brst_unconstrained",
        "sigma_identity",
        "multiplier_real_sector",
        "multiplier_complex_sector",
        "fixed_points",
    ):
        assert by_name[name] == "pass"


def test_adhm_brst_check_squares_each_operator_once(monkeypatch):
    # closure_unconstrained reads the square condition of the one
    # verify_brst report on the matter chart; closure_full squares the
    # full-chart operator
    calls = []
    original = actions.square_residual

    def counted(Q, lift):
        calls.append(Q.chart)
        return original(Q, lift)

    monkeypatch.setattr(actions, "square_residual", counted)
    monkeypatch.setattr(harness, "square_residual", counted)
    report = run_brst_check(load_scenario(BUNDLED % "adhm_k1_n2"))
    assert _statuses(report)[:3] == ["pass", "pass", "pass"]
    assert len(calls) == 2 and calls[0] != calls[1]


def test_adhm_brst_check_applies_Q_once_per_square_component(monkeypatch, square_reference):
    # (1/2)[Q, Q] = Q∘Q for odd Q; the two-sided commutator applies Q twice
    # per component, 312 applications in all on this scenario
    calls = []
    original = SuperVectorField._apply_terms

    def counted(self, parts, sign, f):
        calls.append(self.chart)
        return original(self, parts, sign, f)

    monkeypatch.setattr(SuperVectorField, "_apply_terms", counted)
    scenario = load_scenario(BUNDLED % "adhm_k1_n2")
    report = run_brst_check(scenario)
    one_sided = len(calls)
    monkeypatch.setattr(actions, "square_residual", square_reference)
    monkeypatch.setattr(harness, "square_residual", square_reference)
    calls.clear()
    assert _statuses(run_brst_check(scenario)) == _statuses(report)
    assert one_sided < len(calls) and one_sided < 312


def test_closure_full_failure_shows_the_residual(monkeypatch):
    # a full-chart lift off by x on its first component: only the full square
    # fails, and its record names the failing component as verify_brst would
    original = harness.adhm_lifted_field

    def perturbed(layout):
        lift = original(layout)
        if not layout.full:
            return lift
        first = lift.a[0] + sc.sym("B1_00_im")
        return SuperVectorField(lift.chart, lift.parity, (first, *lift.a[1:]), lift.b)

    monkeypatch.setattr(harness, "adhm_lifted_field", perturbed)
    report = run_brst_check(load_scenario(BUNDLED % "adhm_k1_n2"))
    by_name = {rec["name"]: rec for rec in report["checks"]}
    assert by_name["closure_unconstrained"]["status"] == "pass"
    assert "detail" not in by_name["closure_unconstrained"]
    full = by_name["closure_full"]
    assert full["status"] == "fail" and full["abs_error"] is None
    assert full["detail"] == {
        "conditions": [
            {"name": "square_equals_lift", "status": "fail", "residual": ["a[1] = -B1_00_im"]}
        ]
    }


def test_adhm_numeric_scenario_subset():
    scenario = load_scenario(BUNDLED % "adhm_k2_n2_brst")
    scenario["checks"] = ["multiplier_complex_sector", "sigma_identity"]
    report = run_brst_check(scenario)
    assert _statuses(report) == ["pass", "pass"]


def test_cli_writes_json_and_respects_quiet(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["compare", "--scenario", "sphere_dh", "--json", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["scenario"] == "sphere_dh"
    assert "timestamp" in report
    assert all("runtime" not in rec for rec in report["checks"])


def test_cli_console_output(capsys):
    code = main(["brst-check", "--scenario", "kahler_c2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "verify_brst" in text
    assert "1 passed, 0 failed, 0 skipped" in text


def test_cli_console_output_prints_record_values(capsys):
    def lines(argv):
        assert main(argv) == 0
        text = re.sub(r"\(\d+\.\d\ds\)", "(T)", capsys.readouterr().out)
        return {line.split()[1]: line for line in text.splitlines()[1:-1]}

    compare = lines(["compare", "--scenario", "flat_rotation"])["compare[t=1]"]
    assert re.fullmatch(r"  pass +compare\[t=1\]  lhs=\S+  rhs=\S+  rel=\S+  \(T\)", compare)
    sigma = lines(["brst-check", "--scenario", "sphere_dh"])["sigma_parallel[north]"]
    assert sigma == "  pass       sigma_parallel[north]  abs=0  (T)"


def test_cli_help_names_exactly_the_bundled_scenarios():
    # the epilog lists the names --scenario accepts, in parentheses
    listed = re.search(r"\((.*)\)", cli._build_parser().epilog, re.S).group(1)
    names = sorted(name.strip() for name in listed.split(","))
    assert names == sorted(path.stem for path in (SRC / "superloc" / "scenarios").glob("*.json"))


def test_cli_scenario_path_reads_that_path(tmp_path):
    # only a bundled name resolves into scenarios/: a path is read as it is,
    # even when the same path with .json appended names another scenario
    scenarios = SRC / "superloc" / "scenarios"
    (tmp_path / "x").write_bytes((scenarios / "flat_rotation.json").read_bytes())
    (tmp_path / "x.json").write_bytes((scenarios / "sphere_dh.json").read_bytes())
    out = tmp_path / "report.json"
    assert main(["localize", "--scenario", str(tmp_path / "x"), "--json", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["scenario"] == "flat_rotation"
    assert main(["localize", "--scenario", "sphere_dh", "--json", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["scenario"] == "sphere_dh"


def _cli_exit(argv, capsys) -> tuple:
    """The exit code and the captured output of an argparse exit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr()


def test_cli_unknown_command_exits_2(capsys):
    code, captured = _cli_exit(["nope", "--scenario", "sphere_dh"], capsys)
    assert code == 2
    assert "invalid choice: 'nope'" in captured.err


def test_cli_missing_scenario_exits_2(capsys):
    code, captured = _cli_exit(["localize"], capsys)
    assert code == 2
    assert "--scenario" in captured.err


def test_cli_tol_that_is_no_number_exits_2(capsys):
    code, captured = _cli_exit(["compare", "--scenario", "sphere_dh", "--tol", "abc"], capsys)
    assert code == 2
    assert "invalid float value" in captured.err


def test_cli_help_names_every_command_and_bundled_scenario(capsys):
    code, captured = _cli_exit(["--help"], capsys)
    assert code == 0
    bundled = [path.stem for path in (SRC / "superloc" / "scenarios").glob("*.json")]
    for name in list(harness.RUNNERS) + bundled:
        assert name in captured.out


def test_cli_bundled_name_and_its_path_give_the_same_report(tmp_path):
    reports = []
    for ref in ("sphere_dh", str(SRC / "superloc" / "scenarios" / "sphere_dh.json")):
        out = tmp_path / "report.json"
        assert main(["localize", "--scenario", ref, "--json", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        del report["timestamp"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_options_may_come_before_the_command():
    assert main(["--scenario", "flat_rotation", "localize", "--quiet"]) == 0


def test_cli_report_write_error_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["localize", "--scenario", "flat_rotation", "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report: ")
    assert captured.out == ""
    assert not out.exists()


def test_cli_schema_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, {"name": "x", "kind": "nope"})
    assert main(["localize", "--scenario", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_cli_deeply_nested_scenario_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "[" * 100000)
    assert main(["localize", "--scenario", str(path)]) == 2
    assert "scenario is not valid JSON" in capsys.readouterr().err


def test_cli_integrand_too_deep_to_compile_exit_code(tmp_path, capsys):
    # (x+y+1)^80 has 3,321 terms: as one sum it nests too deeply for the
    # compiler. As 80 factors it stays inside the budget of term products.
    form = "*".join(["(x+y+1)"] * 80) + "*th2"
    path = _write(tmp_path, {
        "name": "wide",
        "kind": "plane_rotation",
        "form": {"type": "gaussian_rotation"},
        "values": ["1"],
        "stokes": [{"domain": "flat_box", "form": form}],
    })
    assert main(["oracle", "--scenario", str(path), "--quiet"]) == 3
    assert "nested too deeply to compile" in capsys.readouterr().err


def test_cli_reports_check_failures(tmp_path, capsys):
    path = _write(
        tmp_path,
        {
            "name": "wrong-ref",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1"],
            "reference": "gaussian_closed_form",
        },
    )
    assert main(["compare", "--scenario", str(path), "--quiet"]) == 1


def test_cli_tol_override(capsys):
    code = main(["compare", "--scenario", "sphere_dh", "--tol", "1e-20", "--quiet"])
    assert code == 1


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_cli_tol_override_must_be_finite_and_positive(tol, capsys):
    assert main(["compare", "--scenario", "sphere_dh", "--tol", tol, "--quiet"]) == 2
    assert "tol must be a finite number > 0" in capsys.readouterr().err
    with pytest.raises(SchemaError):
        run_compare(load_scenario(BUNDLED % "sphere_dh"), tol=float(tol))


def test_cli_computation_error_exit_code(tmp_path, capsys):
    # exp(-t cos u) overflows a float at t = 1000
    path = _write(
        tmp_path,
        {
            "name": "overflow",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["1000"],
        },
    )
    assert main(["oracle", "--scenario", str(path), "--quiet"]) == 3
    assert "computation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "form, value",
    [
        ({"type": "height_exponential"}, "1000"),
        ({"type": "closed_polynomial", "coeffs": ["0", "1", "0", "1"]}, "1e200"),
    ],
    ids=["exp_overflow", "coefficient_overflow"],
)
def test_cli_float_overflow_in_the_sum_exit_code(tmp_path, capsys, form, value):
    # exp(-t cos u) at t = 1000, and the exact sum's coefficient at
    # t = 1e200, are too large for a float
    path = _write(
        tmp_path, {"name": "overflow", "kind": "sphere", "form": form, "values": [value]}
    )
    for command in ("localize", "compare"):
        assert main([command, "--scenario", str(path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("computation error: fixed-point sum raised OverflowError")
    assert main(["oracle", "--scenario", str(path), "--quiet"]) == 3
    assert "computation error: integrand raised OverflowError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, form, command, checks, message",
    [
        ("plane_rotation", "gaussian_rotation", "oracle", None, "integrand"),
        ("sphere", "height_exponential", "oracle", None, "integrand"),
        ("plane_rotation", "gaussian_rotation", "compare", None, "integrand"),
        ("plane_rotation", "gaussian_rotation", "compare", ["super_vs_reference"], "reference"),
    ],
    ids=["plane-oracle", "sphere-oracle", "plane-compare", "plane-super-vs-reference"],
)
def test_cli_t_outside_float_range_exit_code(tmp_path, capsys, kind, form, command, checks, message):
    # t = 1e400 is a finite rational that no float holds
    scenario = {
        "name": "huge_t", "kind": kind, "form": {"type": form}, "values": ["1e400"],
        "reference": "gaussian_closed_form" if kind == "plane_rotation" else "height_closed_form",
    }
    if checks is not None:
        scenario["checks"] = checks
    path = _write(tmp_path, scenario)
    assert main([command, "--scenario", str(path), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("computation error: %s raised OverflowError" % (message,))
    assert "Traceback" not in err


def _cold_normal_forms(monkeypatch, name: str, command: str) -> int:
    """Normal forms a passing run of a command on a bundled scenario builds
    from cold kernel caches."""
    built = []
    normal_form = sc._normal_form

    def counted(p):
        built.append(p)
        return normal_form(p)

    sc.normalize.cache_clear()
    sc._POLY.clear()
    monkeypatch.setattr(sc, "_normal_form", counted)
    report = harness.RUNNERS[command](load_scenario(BUNDLED % name))
    assert report["checks"] and all(rec["status"] != "fail" for rec in report["checks"])
    return len(built)


def test_adhm_brst_check_builds_at_most_600_normal_forms(monkeypatch):
    # Each pairing residual of the multiplier completion is one combine of
    # its derivation pass and its products, a derivative that is zero
    # builds no normal form, and each coefficient of a commutator or a
    # square residual is one combine; this run builds 520, 1,022 with a
    # normal form per application and per sum of them, and 2,464 with one
    # per derivative too.
    assert _cold_normal_forms(monkeypatch, "adhm_k2_n2_brst", "brst-check") <= 600


def test_sphere_brst_check_builds_at_most_60_normal_forms(monkeypatch):
    # 50, and 79 with a normal form per application and per sum of them
    assert _cold_normal_forms(monkeypatch, "sphere_dh", "brst-check") <= 60


def test_kahler_brst_check_builds_at_most_25_normal_forms(monkeypatch):
    # 20, and 39 with a normal form per application and per sum of them
    assert _cold_normal_forms(monkeypatch, "kahler_c2", "brst-check") <= 25


def test_flat_rotation_compare_builds_at_most_31_normal_forms(monkeypatch):
    # a coefficient that only one operand of a sum carries is already a
    # normal form, and combine returns it; 34 when it was normalized again
    assert _cold_normal_forms(monkeypatch, "flat_rotation", "compare") <= 31


def test_adhm_brst_check_takes_at_most_480_derivatives(monkeypatch):
    # _is_affine and _coordinate_free differentiate only along the
    # coordinates an expression names; along every coordinate of the
    # chart, this run takes 1,472 derivatives
    calls = []
    differentiate = sc.differentiate

    def counted(e, name):
        calls.append(name)
        return differentiate(e, name)

    monkeypatch.setattr(sc, "differentiate", counted)
    report = run_brst_check(load_scenario(BUNDLED % "adhm_k2_n2_brst"))
    assert report["checks"] and all(rec["status"] != "fail" for rec in report["checks"])
    assert len(calls) <= 480


def test_sphere_poly_localize_divides_at_most_120_times(monkeypatch):
    # From cold kernel caches. The closure check applies Q to the form with
    # one normal form per coefficient; with one per partial, product and
    # running sum, this run divides 214 times.
    divisions = []
    divmod_ = sc._poly_divmod

    def counted(c, g):
        divisions.append(g)
        return divmod_(c, g)

    sc.normalize.cache_clear()
    sc._POLY.clear()
    monkeypatch.setattr(sc, "_poly_divmod", counted)
    report = run_localize(load_scenario(BUNDLED % "sphere_poly"))
    assert report["checks"] and all(rec["status"] == "pass" for rec in report["checks"])
    assert len(divisions) <= 120

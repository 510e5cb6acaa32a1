from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from superloc import harness
from superloc.actions import tautological_Q, verify_brst
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
NAMES = ("sphere_dh", "flat_rotation", "adhm_k1_n2", "adhm_k2_n2_brst", "kahler_c2")


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
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"}, "values": []},
        {"name": "x", "kind": "sphere", "form": {"type": "height_exponential"}, "values": ["1/0"]},
        {"name": "x", "kind": "sphere", "form": {"type": "spline"}, "values": ["1"]},
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


def test_odd_dimension_is_skipped_not_failed(tmp_path):
    path = _write(
        tmp_path,
        {
            "name": "line",
            "kind": "line_dilation",
            "form": {"type": "expression", "text": "exp(-t*x^2)"},
            "values": ["1"],
        },
    )
    report = run_localize(load_scenario(path))
    assert _statuses(report) == ["skipped(OddDimension)"]
    assert report["totals"]["skipped"] == 1
    assert report_exit_code(report) == 0


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
    record = harness._verified(verify_brst(SuperVectorField(spec.chart, 1, Q.a, b), spec))
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


def test_cli_schema_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, {"name": "x", "kind": "nope"})
    assert main(["localize", "--scenario", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


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
    path = _write(
        tmp_path,
        {
            "name": "degenerate",
            "kind": "sphere",
            "form": {"type": "height_exponential"},
            "values": ["0"],
        },
    )
    assert main(["localize", "--scenario", str(path), "--quiet"]) == 3
    assert "computation error" in capsys.readouterr().err

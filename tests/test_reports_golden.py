"""Bundled scenario reports against a recorded golden copy.

Each bundled scenario is run in-process under each command and its report,
serialized with a fixed timestamp, must equal the recorded text byte for
byte.  Fifteen of the 24 scenario x command pairs have a report, the k=2
closure check of ``adhm_k2_n2_brst`` included.  The other nine name a
command that their kind has no checks for: they have no golden entry, and
``superloc`` refuses them with exit code 2.

When a change moves a report on purpose, rewrite the golden file with
``PYTHONPATH=src python tests/test_reports_golden.py`` and say which values
moved and why.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from superloc.cli import main
from superloc.harness import RUNNERS, load_scenario, serialize_report

GOLDEN = Path(__file__).resolve().parent / "reports_golden.json"
SCENARIOS = (
    "sphere_dh", "sphere_poly", "flat_rotation", "adhm_k1_n2", "adhm_k2_n2_brst", "kahler_c2",
)
PAIRS = [
    (name, command)
    for name in SCENARIOS
    for command in ("localize", "oracle", "compare", "brst-check")
]
REFUSED = {
    (name, command)
    for name in ("adhm_k1_n2", "adhm_k2_n2_brst", "kahler_c2")
    for command in ("localize", "oracle", "compare")
}


def _report_text(name: str, command: str) -> str:
    scenario = load_scenario(resources.files("superloc") / "scenarios" / (name + ".json"))
    return serialize_report(RUNNERS[command](scenario), timestamp="golden")


@pytest.mark.parametrize("name,command", PAIRS, ids=["%s-%s" % p for p in PAIRS])
def test_report_matches_golden(name, command, capsys):
    golden = json.loads(GOLDEN.read_text())
    key = "%s/%s" % (name, command)
    if (name, command) in REFUSED:
        assert key not in golden
        assert main([command, "--scenario", name, "--quiet"]) == 2
        assert "has no %s checks" % (command,) in capsys.readouterr().err
        return
    assert _report_text(name, command) == json.dumps(golden[key], indent=2) + "\n"


if __name__ == "__main__":
    reports = {"%s/%s" % p: json.loads(_report_text(*p)) for p in PAIRS if p not in REFUSED}
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n")

"""The benchmark's correctness gate, run in-process on every operation of
each workload at seed 1, so a change to the records a workload expects
shows here before a benchmark run refuses it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from superloc.cli import main

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_operation_passes_the_gate(workload, tmp_path):
    ops = workloads.generate(workload, 1, str(tmp_path))
    assert ops
    for i, op in enumerate(ops):
        out = tmp_path / ("report_%d.json" % i)
        rc = main([op["command"], "--scenario", op["file"], "--json", str(out), "--quiet"])
        problems, _ = workloads.check(op, rc, out.read_text() if out.exists() else None)
        assert problems == [], op["id"]

"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They spawn the same child processes as the benchmark and take about half
a minute.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _tempdir() -> str:
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.mkdtemp(dir=run.OUT)


def _files(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generator_is_deterministic():
    dirs = [_tempdir() for _ in range(3)]
    try:
        for workload in workloads.WORKLOADS:
            for d in dirs:
                for name in os.listdir(d):
                    os.remove(os.path.join(d, name))
            for d, seed in zip(dirs, (5, 5, 6)):
                workloads.generate(workload, seed, d)
            same, other = _files(dirs[0]), _files(dirs[2])
            assert same == _files(dirs[1]), workload
            assert same != other, workload
    finally:
        for d in dirs:
            shutil.rmtree(d)


def test_wrong_reference_counts_as_failed_operation():
    workdir = _tempdir()
    saved = dict(workloads.REFERENCES)
    try:
        ops = [op for op in workloads.generate("quadrature", 3, workdir)
               if op["id"].startswith("oracle:quad_sphere")]
        bench = run.Run(ops[:1], workdir)
        bench.op(ops[0], traced=False)
        assert bench.failed() == 0
        height = saved["height_exponential"]
        workloads.REFERENCES["height_exponential"] = lambda t: height(t) * (1 + 1e-3)
        bench.op(ops[0], traced=False)
        bench.op(ops[0], traced=False)
        assert len(bench.all_samples()) == 3
        assert bench.failed() == 2
        assert "misses reference" in bench.samples[1]["problems"][0]
    finally:
        workloads.REFERENCES.update(saved)
        shutil.rmtree(workdir)


def test_speed_factor_uses_the_probe_samples_inside_the_window():
    ref = speed.REFERENCE_S
    samples = [(1.0, 2 * ref), (2.0, ref), (3.0, ref)]
    assert math.isclose(speed.factor(samples, (1.5, 3.5)), 1.0)
    assert math.isclose(speed.factor(samples, (0.5, 1.5)), 0.5)
    assert math.isclose(speed.factor(samples, (5.0, 6.0)), 0.75)


def _declared() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_metric_is_printed_with_its_unit():
    declared = _declared()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "exact_sums", "--seed", "2", "--seconds", "1",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            assert any(line.split()[1:2] == [name] and line.split()[-1] == unit
                       for line in lines[:-1]), name


def test_refuses_to_run_without_the_program():
    bare = _tempdir()
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "quadrature", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)

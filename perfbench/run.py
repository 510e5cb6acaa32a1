"""superloc benchmark: seeded scenario workloads run through the CLI.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a source checkout; the program is imported from
./src.  One client runs a closed loop: each operation is a fresh child
interpreter that imports superloc.cli, loads its scenario and calls
`superloc.cli.main([command, "--scenario", file, "--json", out, "--quiet"])`
with SUPERLOC_THREADS unset.  The workload's operation list is repeated
until --seconds have passed and at least one whole list has run.  Every
report is checked against references computed by the benchmark (see
workloads.py) and against the report of the same operation earlier in the
run, timestamp removed.

The benchmark pins itself and its children to one CPU and, while each
child runs, samples a speed probe on that CPU.  Times are the child's CPU
seconds scaled to the probe's reference speed (see speed.py), so that the
host's drifting CPU speed does not show as a change of the program.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation
untraced and then traced, prints the per-layer metrics (per pass of the
list) and writes the spans to perfbench/out/spans_<workload>_seed<n>.jsonl.
`--workload all` runs every workload both ways.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")

# Every run ends well inside the 180 s a run may take, hung operations too.
RUN_LIMIT_S = 160.0

# At the sample counts of a 35 s run, about ten samples lie beyond it on
# the quadrature and exact_sums workloads.
TAIL_PERCENTILE = 75

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_s.p50": "s",
    "report_s.tail": "s",
    "workload_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUPERLOC_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def _wait_probing(proc, deadline: float, probes: list) -> bool:
    """Sample the speed probe until proc exits; True if deadline came first."""
    while True:
        probes.append(speed.sample())
        try:
            proc.wait(timeout=speed.INTERVAL_S)
            return False
        except subprocess.TimeoutExpired:
            if time.monotonic() >= deadline:
                return True


def _run_op(op: dict, index: int, workdir: str, timeout: float, spans_path=None) -> dict:
    """Run one operation in a fresh interpreter beside the speed probe;
    gate its report."""
    report = os.path.join(workdir, "op%d.report.json" % index)
    result = os.path.join(workdir, "op%d.result.json" % index)
    errors = os.path.join(workdir, "op%d.stderr" % index)
    spec = {"op": op["id"], "command": op["command"], "scenario": op["file"],
            "report": report, "result": result, "spans": spans_path}
    sample = {"op": op["id"], "problems": [], "oracle_errors": []}
    probes = []
    with open(errors, "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)], env=_child_env(),
                                cwd=workdir, stdout=subprocess.DEVNULL, stderr=err)
        try:
            timed_out = _wait_probing(proc, launched + timeout, probes)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(errors) as fh:
        tail = fh.read().strip().splitlines()[-1:] or [""]
    os.remove(errors)
    if timed_out:
        sample["problems"].append("timed out after %.0f s" % timeout)
        return sample
    if proc.returncode != 0 or not os.path.exists(result):
        sample["problems"].append("child exited %d: %s" % (proc.returncode, tail[0]))
        return sample
    with open(result) as fh:
        child = json.load(fh)
    os.remove(result)
    setup_speed = speed.factor(probes, (launched, child["setup_end"]))
    report_speed = speed.factor(probes, child["report_window"])
    sample.update({
        "rc": child["rc"],
        "setup_s": child["setup_cpu_s"] * setup_speed,
        "report_s": child["report_cpu_s"] * report_speed,
        "report_cpu_s": child["report_cpu_s"],
        "speed": report_speed,
        "maxrss_kb": child["maxrss_kb"],
    })
    if "agg" in child:
        # Span times are wall seconds, probe slices included: scale them
        # onto the operation's reported time.
        start, end = child["report_window"]
        scale = sample["report_s"] / (end - start)
        sample["agg"] = {name: [calls, total * scale, self_s * scale]
                         for name, (calls, total, self_s) in child["agg"].items()}
        for key in ("missing", "evals", "normalize_cache"):
            if key in child:
                sample[key] = child[key]
    text = None
    if os.path.exists(report):
        with open(report) as fh:
            text = fh.read()
        os.remove(report)
    sample["problems"], sample["oracle_errors"] = workloads.check(op, sample["rc"], text)
    if text is not None and not sample["problems"]:
        body = json.loads(text)
        body.pop("timestamp", None)
        sample["canonical"] = json.dumps(body, sort_keys=True)
    return sample


class Run:
    """The operations of one benchmark run and what they measured."""

    def __init__(self, ops: list, workdir: str):
        self.ops = ops
        self.workdir = workdir
        self.start = time.monotonic()
        self.samples = []        # untraced
        self.traced = []
        self.first_report = {}   # op id -> canonical report text
        self.count = 0

    def out_of_time(self) -> bool:
        return time.monotonic() - self.start >= RUN_LIMIT_S

    def op(self, op: dict, traced: bool) -> None:
        self.count += 1
        spans = os.path.join(self.workdir, "op%d.spans.jsonl" % self.count) if traced else None
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.start))
        sample = _run_op(op, self.count, self.workdir, timeout, spans)
        canonical = sample.pop("canonical", None)
        if canonical is not None:
            first = self.first_report.setdefault(op["id"], canonical)
            if canonical != first:
                sample["problems"].append("report differs from the first run of this operation")
        for problem in sample["problems"]:
            print("FAILED %s: %s" % (op["id"], problem), file=sys.stderr)
        (self.traced if traced else self.samples).append(sample)

    def paired_pass(self) -> bool:
        """Each operation untraced, then at once traced, so that both runs
        of a pair see the same machine state."""
        for op in self.ops:
            for traced in (False, True):
                if self.out_of_time():
                    return False
                self.op(op, traced)
        return True

    def all_samples(self) -> list:
        return self.samples + self.traced

    def failed(self) -> int:
        return sum(1 for s in self.all_samples() if s["problems"])


def _tail(samples: list) -> tuple:
    """The TAIL_PERCENTILE-th percentile of the report times, with every
    operation of the list weighted equally, and the number of samples
    above it.

    A run ends at a time, not at the end of a list, so its sample count
    and the mix of operations in it vary from run to run.  A percentile
    picked by sample count would then jump between the levels of different
    operations; a fixed percentile of the fixed mix does not.
    """
    counts = collections.Counter(s["op"] for s in samples)
    ordered = sorted(samples, key=lambda s: s["report_s"])
    share = 0.0
    for index, s in enumerate(ordered):
        share += 1.0 / (len(counts) * counts[s["op"]])
        if share >= TAIL_PERCENTILE / 100.0 - 1e-9:
            break
    return s["report_s"], len(ordered) - index - 1


def _workload_s(ops: list, samples: list) -> float:
    """Sum over the operation list of each operation's median report time."""
    total = 0.0
    for op in ops:
        times = [s["report_s"] for s in samples if s["op"] == op["id"] and "report_s" in s]
        if times:
            total += statistics.median(times)
    return total


def _median_of(samples: list, key: str):
    values = [s[key] for s in samples if key in s]
    return round(statistics.median(values), 4) if values else None


def end_to_end(run: Run) -> tuple:
    timed = [s for s in run.samples if "report_s" in s]
    if not timed:
        return {}, {}
    times = [s["report_s"] for s in timed]
    tail, beyond = _tail(timed)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in timed),
        "report_s.p50": statistics.median(times),
        "report_s.tail": tail,
        "workload_s": _workload_s(run.ops, timed),
        "peak_rss_mb": max(s["maxrss_kb"] for s in timed) / 1024.0,
    }
    return metrics, {"tail_percentile": TAIL_PERCENTILE, "samples": len(times),
                     "samples_beyond_tail": beyond}


def per_layer(run: Run) -> dict:
    """Per-pass layer figures from the traced passes."""
    traced = [s for s in run.traced if "agg" in s]
    passes = len(traced) / len(run.ops)
    agg, missing = {}, set()
    evals = 0
    for s in traced:
        for name, (calls, total, self_s) in s["agg"].items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        missing.update(s["missing"])
        evals += s["evals"]
    caches = [s["normalize_cache"] for s in traced if "normalize_cache" in s]
    hits = sum(h for h, _ in caches)
    misses = sum(m for _, m in caches)

    def field(i, *names):
        if not traced or any(n in missing or n not in agg for n in names):
            return None
        return sum(agg[n][i] for n in names) / passes

    def calls(*names):
        return field(0, *names)

    def total(*names):
        return field(1, *names)

    def self_s(*names):
        return field(2, *names)

    cache_absent = not traced or len(caches) < len(traced)
    quad_s = total("oracle.quadrature")
    if quad_s is None:
        evals_per_pass = evals_per_s = None
    else:
        evals_per_pass = evals / passes
        evals_per_s = evals_per_pass / quad_s if quad_s else 0.0
    geometry = sorted(n for n in agg if n.startswith("geometry."))
    attempted = len(run.all_samples())
    oracle_errors = [e for s in run.all_samples() for e in s["oracle_errors"]]
    return {
        "scalars.normalize.calls": calls("scalars.normalize"),
        "scalars.normalize.hits": None if cache_absent else hits / passes,
        "scalars.normalize.misses": None if cache_absent else misses / passes,
        "scalars.normalize.hit_ratio": (None if cache_absent or not hits + misses
                                        else hits / (hits + misses)),
        "scalars.normalize.self_s": self_s("scalars.normalize"),
        "scalars.differentiate.calls": calls("scalars.differentiate"),
        "scalars.differentiate.self_s": self_s("scalars.differentiate"),
        "scalars.evaluate.calls": calls("scalars.evaluate"),
        "scalars.evaluate.self_s": self_s("scalars.evaluate"),
        "scalars.compile_numeric.calls": calls("scalars.compile_numeric"),
        "grassmann.SuperFunction.init.calls": calls("grassmann.SuperFunction.init"),
        "grassmann.SuperFunction.init.self_s": self_s("grassmann.SuperFunction.init"),
        "grassmann.apply.calls": calls("grassmann.apply"),
        "grassmann.apply.self_s": self_s("grassmann.apply"),
        "grassmann.graded_commutator.self_s": self_s("grassmann.graded_commutator"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.det.self_s": self_s("linalg.det"),
        "linalg.pfaffian.calls": calls("linalg.pfaffian"),
        "linalg.pfaffian.self_s": self_s("linalg.pfaffian"),
        "actions.verify_brst.calls": calls("actions.verify_brst"),
        "actions.verify_brst.self_s": self_s("actions.verify_brst"),
        "localize.super_localize.self_s": self_s("localize.super_localize"),
        "localize.classical_localize.self_s": self_s("localize.classical_localize"),
        "localize.find_fixed_points.self_s": self_s("localize.find_fixed_points"),
        "oracle.quadrature.calls": calls("oracle.quadrature"),
        "oracle.quadrature.evals": evals_per_pass,
        "oracle.quadrature.self_s": self_s("oracle.quadrature"),
        "oracle.evals_per_s": evals_per_s,
        "oracle.global_berezin.self_s": self_s("oracle.global_berezin"),
        "oracle.super_stokes_check.self_s": self_s("oracle.super_stokes_check"),
        "oracle_rel_error.max": max(oracle_errors, default=0.0),
        "geometry.self_s": self_s(*geometry) if geometry else None,
        "adhm.operators.self_s": self_s("adhm.adhm_Q_full", "adhm.adhm_Q_unconstrained",
                                        "adhm.adhm_lifted_field"),
        "adhm.multiplier_completion.self_s": self_s("adhm.multiplier_completion"),
        "harness.load_scenario.s": total("harness.load_scenario"),
        "harness.serialize_report.s": total("harness.serialize_report"),
        "harness.runner.self_s": self_s("harness.runner"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": (_workload_s(run.ops, traced) - _workload_s(run.ops, run.samples)
                             if traced else None),
        "failed_ratio": run.failed() / attempted if attempted else None,
    }


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".hits", ".misses", ".evals")):
        return "count"
    if name == "oracle.evals_per_s":
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def _write_spans(run: Run, path: str, meta: dict) -> None:
    with open(path, "w") as out:
        out.write(json.dumps({"meta": meta}) + "\n")
        for index in range(1, run.count + 1):
            part = os.path.join(run.workdir, "op%d.spans.jsonl" % index)
            if os.path.exists(part):
                with open(part) as fh:
                    shutil.copyfileobj(fh, out)


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "superloc")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run one workload; returns (attempted, failed, metrics {name: (value, unit)})."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        ops = workloads.generate(workload, seed, workdir)
        run = Run(ops, workdir)
        deadline = run.start + seconds
        if trace:
            while run.paired_pass() and time.monotonic() < deadline:
                pass
        else:
            done = 0
            while done < len(ops) or time.monotonic() < deadline:
                if run.out_of_time():
                    break
                run.op(ops[done % len(ops)], False)
                done += 1
        e2e, tail_meta = end_to_end(run)
        meta = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": _numpy_version(), "src_lines": _src_lines(),
            "samples_per_op": {op["id"]: sum(1 for s in run.samples if s["op"] == op["id"])
                               for op in ops},
            "report_s_per_op": {op["id"]: round(_workload_s([op], run.samples), 4)
                                for op in ops},
            "speed_factor": _median_of(run.samples, "speed"),
            "report_cpu_s.p50": _median_of(run.samples, "report_cpu_s"),
        }
        meta.update(tail_meta)
        if trace:
            meta["traced_passes"] = len(run.traced) // len(ops)
            spans_path = os.path.join(OUT, "spans_%s_seed%d.jsonl" % (workload, seed))
            _write_spans(run, spans_path, meta)
            meta["spans"] = os.path.relpath(spans_path, ROOT)
            metrics = {n: (v, per_layer_unit(n)) for n, v in per_layer(run).items()}
        else:
            metrics = {n: (v, END_TO_END_UNITS[n]) for n, v in e2e.items()}
        print(json.dumps({"meta": meta}))
        return len(run.all_samples()), run.failed(), metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_metrics(label: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else "%.6g" % value
        print("%-12s %-40s %14s %s" % (label, name, shown, unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "superloc", "cli.py")):
        print("no superloc sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    # Exit through the finally blocks, which stop a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    speed.pin_to_one_cpu()
    # Import once untimed: a failed import stops the run, and the bytecode
    # cache is warm as it is for an installed command.
    try:
        warm = subprocess.run([sys.executable, "-c", "import superloc.cli"], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        print("importing superloc.cli took over 60 s", file=sys.stderr)
        return 2
    if warm.returncode != 0:
        print("cannot import superloc.cli:\n%s" % warm.stderr, file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for workload, trace in plan:
        a, f, m = run_workload(workload, args.seed, args.seconds, trace)
        attempted += a
        failed += f
        _print_metrics(workload, m)
        prefix = "" if len(plan) == 1 else workload + "/"
        metrics.update({prefix + n: {"value": v, "unit": u} for n, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

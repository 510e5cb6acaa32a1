"""One benchmark operation in a fresh interpreter.

    python3 child.py SPEC_JSON

SPEC_JSON holds: op (the operation's id), command, scenario, report (where
the CLI writes its JSON report), result (where this process writes its
timings), and spans (a path to write spans to, or null for an untraced
run).

A fresh process per operation gives every operation the empty caches a
command-line user starts with.  Times are this process's CPU seconds, so
the slices the parent's speed probe takes on the same CPU are not in them
(see speed.py); the monotonic windows beside them tell the parent which
probe samples fall in each phase.  CLOCK_MONOTONIC is system-wide on
Linux, so the two processes' stamps compare directly.
"""
import json
import resource
import sys
import time


def main(spec: dict) -> None:
    import superloc.cli as cli
    from superloc.harness import load_scenario

    load_scenario(spec["scenario"])
    setup_cpu_s = time.process_time()
    setup_end = time.monotonic()
    run = cli.main
    tracer = None
    if spec["spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    argv = [spec["command"], "--scenario", spec["scenario"], "--json", spec["report"], "--quiet"]
    t0, c0 = time.monotonic(), time.process_time()
    rc = run(argv)
    c1, t1 = time.process_time(), time.monotonic()
    result = {
        "rc": rc,
        "setup_cpu_s": setup_cpu_s,
        "setup_end": setup_end,
        "report_cpu_s": c1 - c0,
        "report_window": [t0, t1],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result.update(tracer.result())
        tracer.write_spans(spec["spans"], spec["op"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

"""Command-line front end for the scenario runners.

Exit codes: 0 when every check passes or is skipped, 1 when a check
fails, 2 for a malformed scenario, a command its kind has no checks for,
or a report that cannot be written, 3 when a computation cannot finish.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .errors import SchemaError, SuperlocError
from .harness import RUNNERS, load_scenario, report_exit_code, serialize_report

_SCENARIOS = os.path.join(os.path.dirname(__file__), "scenarios")


def _bundled() -> list:
    """The names of the bundled scenarios: the stems of scenarios/*.json."""
    return sorted(name[:-5] for name in os.listdir(_SCENARIOS) if name.endswith(".json"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superloc",
        description="Localization checks for supersymmetric integrals.",
        epilog="The --scenario argument accepts either a path or the name of a "
        "bundled scenario (%s)." % ", ".join(_bundled()),
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--scenario", required=True, help="scenario file or bundled name")
    parser.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    parser.add_argument("--json", metavar="OUT", default=None, help="write the JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    return parser


def _resolve_scenario(ref: str) -> str:
    return os.path.join(_SCENARIOS, ref + ".json") if ref in _bundled() else ref


def _print_report(report: dict) -> None:
    print("scenario %s (%s)" % (report["scenario"], report["command"]))
    for rec in report["checks"]:
        parts = ["  %-10s %s" % (rec["status"], rec["name"])]
        if rec["lhs"] is not None:
            parts.append("lhs=%s" % (rec["lhs"],))
        if rec["rhs"] is not None:
            parts.append("rhs=%s" % (rec["rhs"],))
        if rec["rel_error"] is not None:
            parts.append("rel=%.3g" % rec["rel_error"])
        elif rec["abs_error"] is not None:
            parts.append("abs=%.3g" % rec["abs_error"])
        parts.append("(%.2fs)" % rec["runtime"])
        print("  ".join(parts))
    totals = report["totals"]
    print(
        "%d passed, %d failed, %d skipped"
        % (totals["pass"], totals["fail"], totals["skipped"])
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(_resolve_scenario(args.scenario))
        report = RUNNERS[args.command](scenario, tol=args.tol)
    except SchemaError as exc:
        print("schema error: %s" % (exc,), file=sys.stderr)
        return 2
    except SuperlocError as exc:
        print("computation error: %s" % (exc,), file=sys.stderr)
        return 3
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(serialize_report(report))
        except OSError as exc:
            print("cannot write report: %s" % (exc,), file=sys.stderr)
            return 2
    if not args.quiet:
        _print_report(report)
    return report_exit_code(report)


if __name__ == "__main__":
    sys.exit(main())

"""Scenario loading, the check registry, and the executor behind the runners.

A scenario is a JSON object with a `kind` selecting one of the built-in
setups (the sphere and plane-rotation geometries, the complex two-torus
operator, or the matrix-model suites).  `_GEOMETRIES` gives each geometry
kind its atlas and, for each form type, the builders of the integrand and
the oracle patch; every geometry check reads its charts, fixed points,
fields and patch through that one table.  `_REGISTRY` maps each
kind and command to ordered stages.  A stage pairs an item source (the
scenario's `values`, its `stokes` entries, the geometry patches, or one
single item) with ordered checks; a check gives its base name, the
function computing its record fields, and the errors that become a
`skipped(...)` or `fail` status instead of propagating.

`_execute` refuses a command that the scenario's kind has no stages for
with `SchemaError`.  It drops the checks that the `checks` list leaves out
before computing anything, then runs every item through the remaining
checks in order and turns the records into a report: an ordered list plus
totals.  Checks on one item share a memo, so the three compare checks
need one localization and one oracle integral per value.  Records carry a
wall-clock runtime for console display, but it is stripped from the
serialized report so that identical scenarios produce byte-identical
JSON, up to the single timestamp field.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional

from . import scalars as sc
from .actions import (
    action_lift,
    check_sigma_parallel,
    field_residual_text,
    kahler_Q,
    kahler_lift,
    sigma_from_Q,
    square_residual,
    tautological_Q,
    verify_brst,
)
from .adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_constraint_scalars,
    adhm_fixed_points,
    adhm_lifted_field,
    adhm_super_chart,
    sector_completion,
)
from .errors import AssumptionViolated, NotQClosed, SchemaError, float_errors
from .geometry import (
    C2_TORUS,
    annulus_domain,
    atlas_fixed_points,
    closed_polynomial,
    flat_box_domain,
    gaussian_oracle_patch,
    gaussian_rotation_form,
    height_exponential,
    plane_atlas,
    sphere_atlas,
    sphere_oracle_patch,
    sphere_polynomial_patch,
)
from .grassmann import parse_super
from .localize import classical_localize, super_localize
from .oracle import global_berezin, super_stokes_check


# geometry kind -> (its atlas, with one fixed point at each chart's origin,
# form type -> (chart, form -> integrand; form -> oracle patch))
_GEOMETRIES = {
    "sphere": (sphere_atlas, {
        "height_exponential": (
            lambda chart, form: height_exponential(chart), lambda form: sphere_oracle_patch()
        ),
        "closed_polynomial": (
            lambda chart, form: closed_polynomial(chart, _coeffs(form)),
            lambda form: sphere_polynomial_patch(_coeffs(form)),
        ),
    }),
    "plane_rotation": (plane_atlas, {
        "gaussian_rotation": (
            lambda chart, form: gaussian_rotation_form(), lambda form: gaussian_oracle_patch()
        ),
    }),
}

_REFERENCES: Mapping[str, Callable[[float], float]] = {
    "height_closed_form": lambda t: 2 * math.pi * (math.exp(t) - math.exp(-t)) / t,
    "gaussian_closed_form": lambda t: -2 * math.pi / t,
}

_STOKES_DOMAINS = {"flat_box": flat_box_domain, "annulus": annulus_domain}


# ---------------------------------------------------------------------------
# scenario loading


def load_scenario(path) -> dict:
    """Read, validate, and annotate a scenario file.

    The returned dict carries the parsed content plus `_hash`, the hex
    digest of the raw bytes, used to tie reports to their inputs.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError("cannot read scenario: %s" % (exc,))
    try:
        scenario = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("scenario is not valid JSON: %s" % (exc,))
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    _validate(scenario)
    scenario["_hash"] = hashlib.sha256(raw).hexdigest()
    return scenario


def _require(scenario: dict, key: str, types) -> object:
    if key not in scenario:
        raise SchemaError("scenario lacks required key %r" % (key,))
    value = scenario[key]
    # bool is an int subclass, but true is no count
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError("scenario key %r has the wrong type" % (key,))
    return value


def _validate(scenario: dict) -> None:
    _require(scenario, "name", str)
    kind = _require(scenario, "kind", str)
    if kind not in _REGISTRY:
        raise SchemaError("unknown scenario kind %r" % (kind,))
    if "tol" in scenario:
        _tolerance(scenario["tol"], "scenario tol")
    checks = scenario.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise SchemaError("checks must be a list of names")
        allowed = {
            check.base
            for stages in _REGISTRY[kind].values()
            for _, checks in stages
            for check in checks
        }
        for c in checks:
            if c not in allowed:
                raise SchemaError("check %r is not available for kind %r" % (c, kind))
    if kind in _GEOMETRIES:
        form = _require(scenario, "form", dict)
        ftype = form.get("type")
        if not isinstance(ftype, str) or ftype not in _GEOMETRIES[kind][1]:
            raise SchemaError("unsupported %s form %r" % (kind, ftype))
        if ftype == "closed_polynomial":
            coeffs = form.get("coeffs")
            if not isinstance(coeffs, list) or not coeffs:
                raise SchemaError("closed_polynomial needs a coefficient list")
            for c in coeffs:
                _as_fraction(c)
        values = _require(scenario, "values", list)
        if not values:
            raise SchemaError("values must be non-empty")
        seen = set()
        for v in values:
            t = _as_fraction(v)
            # t = 0 switches the action off, so no fixed point is isolated
            if t == 0:
                raise SchemaError("a value of t must be nonzero, got %r" % (v,))
            # each value names its records, so a repeat would repeat a name
            if t in seen:
                raise SchemaError("a value of t is repeated, got %r" % (v,))
            seen.add(t)
        if "reference" in scenario:
            reference = scenario["reference"]
            if not isinstance(reference, str) or reference not in _REFERENCES:
                raise SchemaError("unknown reference %r" % (reference,))
        stokes = scenario.get("stokes", [])
        if not isinstance(stokes, list):
            raise SchemaError("stokes must be a list of entries")
        domains = set()
        for entry in stokes:
            if not isinstance(entry, dict):
                raise SchemaError("stokes entries must be objects")
            domain = entry.get("domain")
            if not isinstance(domain, str) or domain not in _STOKES_DOMAINS:
                raise SchemaError("unknown boundary domain %r" % (domain,))
            # each domain names its record, as each value of t does
            if domain in domains:
                raise SchemaError("stokes domain %r is repeated" % (domain,))
            domains.add(domain)
            text = entry.get("form")
            if not isinstance(text, str):
                raise SchemaError("stokes entry lacks a form text")
            chart = _STOKES_DOMAINS[domain]().spec.chart
            try:
                nu = parse_super(chart, text)
            except Exception as exc:
                raise SchemaError("stokes form does not parse: %s" % (exc,))
            foreign = sorted(nu.free_symbols() - set(chart.coords))
            if foreign:
                raise SchemaError(
                    "stokes form names %s, not a coordinate of %s" % (", ".join(foreign), domain)
                )
            if any(len(idx) != chart.n - 1 for idx in nu.terms):
                raise SchemaError("stokes form %r has a term not of degree %d in the odd "
                                  "generators" % (text, chart.n - 1))
            if "tol" in entry:
                _tolerance(entry["tol"], "stokes tol")
    if kind == "adhm":
        k = _require(scenario, "k", int)
        N = _require(scenario, "N", int)
        if k < 1 or N < 2:
            raise SchemaError("need k >= 1 and N >= 2")


def _tolerance(value, what: str) -> float:
    # true is no tolerance, and NaN fails both comparisons
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise SchemaError("%s must be a finite number > 0, got %r" % (what, value))
    return float(value)


def _as_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError("bad exact number %r: %s" % (text, exc))


def _coeffs(form: dict) -> list:
    return [_as_fraction(c) for c in form["coeffs"]]


# ---------------------------------------------------------------------------
# report plumbing


def _record(name, status, lhs=None, rhs=None, abs_error=None, rel_error=None,
            detail=None, runtime=0.0) -> dict:
    rec = {
        "name": name,
        "status": status,
        "lhs": lhs,
        "rhs": rhs,
        "abs_error": abs_error,
        "rel_error": rel_error,
    }
    if detail is not None:
        rec["detail"] = detail
    rec["runtime"] = runtime
    return rec


def _report(scenario: dict, command: str, tol: float, checks: list) -> dict:
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    for rec in checks:
        totals[rec["status"] if rec["status"] in totals else "skipped"] += 1
    return {
        "scenario": scenario["name"],
        "command": command,
        "scenario_hash": scenario["_hash"],
        "tol": tol,
        "checks": checks,
        "totals": totals,
    }


def report_exit_code(report: dict) -> int:
    return 0 if report["totals"]["fail"] == 0 else 1


def serialize_report(report: dict, timestamp: Optional[str] = None) -> str:
    """Stable JSON text; runtimes are dropped, the timestamp comes last."""
    clean = dict(report)
    clean["checks"] = [
        {k: v for k, v in rec.items() if k != "runtime"} for rec in report["checks"]
    ]
    clean["timestamp"] = timestamp or datetime.now(timezone.utc).isoformat()
    return json.dumps(clean, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the executor


class _Run:
    """One runner call: the scenario, its tolerance, and the lazily built
    atlas, integrands by chart name, fixed points and oracle patch of a
    geometry kind, and whether the integrands are closed."""

    def __init__(self, scenario: dict, tol: float):
        self.scenario = scenario
        self.tol = tol

    @cached_property
    def atlas(self) -> tuple:
        return _GEOMETRIES[self.scenario["kind"]][0]()

    @cached_property
    def builders(self) -> tuple:
        """(integrand, oracle patch) builders of the scenario's form."""
        return _GEOMETRIES[self.scenario["kind"]][1][self.scenario["form"]["type"]]

    @cached_property
    def fields(self) -> dict:
        integrand = self.builders[0]
        return {chart.name: integrand(chart, self.scenario["form"]) for chart in self.atlas}

    @cached_property
    def fps(self) -> list:
        return atlas_fixed_points(self.atlas)

    @cached_property
    def patch(self):
        return self.builders[1](self.scenario["form"])

    @cached_property
    def unclosed(self) -> Optional[str]:
        """The first chart whose integrand its Q does not annihilate, or None."""
        fields = self.fields
        return next(
            (c.name for c in self.atlas if not tautological_Q(c.spec).apply(fields[c.name]).is_zero()),
            None,
        )


class _Check(NamedTuple):
    """A check's base name, its compute(run, item) -> record fields (None
    when it does not apply), and (error type, status) pairs for the
    errors that become a status instead of propagating."""

    base: str
    compute: Callable
    errors: tuple = ()


def _execute(scenario: dict, command: str, tol: Optional[float]) -> dict:
    kind = scenario["kind"]
    if command not in _REGISTRY[kind]:
        raise SchemaError("kind %r has no %s checks" % (kind, command))
    if tol is None:
        tol = scenario.get("tol", 1e-12 if command == "brst-check" else 1e-6)
    run = _Run(scenario, _tolerance(tol, "tol"))
    wanted = scenario.get("checks")
    records = []
    for source, checks in _REGISTRY[kind][command]:
        checks = [c for c in checks if wanted is None or c.base in wanted]
        if not checks:
            continue
        for label, item in source(run):
            for check in checks:
                t0 = time.perf_counter()
                try:
                    fields = check.compute(run, item)
                except tuple(error for error, _ in check.errors) as exc:
                    status = next(s for error, s in check.errors if isinstance(exc, error))
                    fields = {"status": status, "detail": {"reason": str(exc)}}
                if fields is not None:
                    name = check.base if label is None else "%s[%s]" % (check.base, label)
                    records.append(
                        _record(name, runtime=time.perf_counter() - t0, **fields)
                    )
    return _report(scenario, command, run.tol, records)


def _memo(item: dict, key, build: Callable):
    if key not in item:
        item[key] = build()
    return item[key]


# item sources: each yields (label, item); the label goes in brackets
# after the base name, and a None label leaves the base name alone.


def _values(run: _Run):
    for text in run.scenario["values"]:
        yield "t=%s" % (text,), {"t": _as_fraction(text)}


def _stokes(run: _Run):
    for entry in run.scenario.get("stokes", []):
        yield entry["domain"], entry


def _patches(run: _Run):
    return [(chart.name, (chart.spec, chart.h)) for chart in run.atlas]


def _single(run: _Run):
    return [(None, {})]


# ---------------------------------------------------------------------------
# localization and oracle checks; an item is {"t": value} plus its memo


def _local(run: _Run, item: dict) -> dict:
    def build():
        if run.unclosed is not None:
            raise NotQClosed("integrand on chart %r is not closed" % (run.unclosed,))
        return super_localize(run.fields, run.fps, binding={"t": item["t"]})

    return _memo(item, "local", build)


def _oracle(run: _Run, item: dict) -> float:
    return _memo(item, "oracle", lambda: global_berezin(
        [run.patch], binding={"t": item["t"]}, tol=min(run.tol * 1e-2, 1e-8)
    ))


def _super_localize(run: _Run, item: dict) -> dict:
    result = _local(run, item)
    return {
        "status": "pass",
        "lhs": result["value"],
        "detail": {
            "coefficient": str(result["coefficient"]),
            "pi_power": result["pi_power"],
            "points": [
                {"chart": t["chart"], "contribution": t["contribution"]}
                for t in result["terms"]
            ],
        },
    }


def _classical_localize(run: _Run, item: dict) -> dict:
    result = classical_localize(run.fields, run.fps, binding={"t": item["t"]})
    return {
        "status": "pass",
        "lhs": result["value"],
        "detail": {
            "coefficient": str(result["coefficient"]),
            "pi_power": result["pi_power"],
        },
    }


def _global_berezin(run: _Run, item: dict) -> dict:
    return {"status": "pass", "lhs": _oracle(run, item)}


def _agreement(got: float, want: float, tol: float) -> dict:
    rel = abs(got - want) / max(1.0, abs(want))
    return {
        "status": "pass" if rel < tol else "fail",
        "lhs": got,
        "rhs": want,
        "abs_error": abs(got - want),
        "rel_error": rel,
    }


def _compare(run: _Run, item: dict) -> dict:
    return _agreement(_local(run, item)["value"], _oracle(run, item), run.tol)


def _versus_reference(value: Callable) -> Callable:
    def compute(run: _Run, item: dict) -> Optional[dict]:
        reference = _REFERENCES.get(run.scenario.get("reference"))
        if reference is None:
            return None
        got = value(run, item)
        with float_errors("reference"):
            want = reference(float(item["t"]))
        return _agreement(got, want, run.tol)

    return compute


def _super_stokes(run: _Run, entry: dict) -> dict:
    domain = _STOKES_DOMAINS[entry["domain"]]()
    result = super_stokes_check(
        parse_super(domain.spec.chart, entry["form"]),
        tautological_Q(domain.spec),
        domain.h,
        domain.box,
        faces=domain.faces,
        tol=float(entry.get("tol", 1e-7)),
    )
    return {
        "status": result["status"],
        "lhs": result["bulk"],
        "rhs": result["boundary"],
        "abs_error": abs(result["difference"]),
    }


# ---------------------------------------------------------------------------
# structure checks


def _verified(report: dict) -> dict:
    """Condition names and statuses; a failed condition also keeps its
    residual, so the record says why."""
    conditions = []
    for c in report["conditions"]:
        entry = {"name": c["name"], "status": c["status"]}
        if c["status"] == "fail":
            entry["residual"] = c["residual"]
        conditions.append(entry)
    return {
        "status": "pass" if report["passed"] else "fail",
        "detail": {"conditions": conditions},
    }


def _verify_patch(run: _Run, patch) -> dict:
    spec, _ = patch
    return _verified(verify_brst(tautological_Q(spec), action_lift(spec), spec.params))


def _sigma_parallel(run: _Run, patch) -> dict:
    spec, h = patch
    result = check_sigma_parallel(sigma_from_Q(tautological_Q(spec)), h, spec.chart)
    return {
        "status": result["status"],
        "abs_error": result["max_residual"],
        "detail": {"symbolic": result["symbolic"]},
    }


def _verify_kahler(run: _Run, item: dict) -> dict:
    return _verified(verify_brst(kahler_Q(C2_TORUS), kahler_lift(C2_TORUS), C2_TORUS.params))


def _adhm_chart(run: _Run, item: dict, full: bool):
    """The matter or the full chart of the scenario's k and N."""
    k, N = run.scenario["k"], run.scenario["N"]
    return _memo(item, ("chart", full), lambda: adhm_super_chart(k, N, full=full))


def _adhm_operator(run: _Run, item: dict, full: bool):
    builder = adhm_Q_full if full else adhm_Q_unconstrained
    return _memo(item, ("Q", full), lambda: builder(_adhm_chart(run, item, full)))


def _adhm_lift(run: _Run, item: dict, full: bool):
    return _memo(item, ("lift", full), lambda: adhm_lifted_field(_adhm_chart(run, item, full)))


def _constraints(run: _Run, item: dict) -> list:
    """The constraint scalars on the full chart, shared by the checks."""
    return _memo(item, "constraints", lambda: adhm_constraint_scalars(_adhm_chart(run, item, True)))


def _unconstrained_report(run: _Run, item: dict) -> dict:
    """The one verify_brst report on the matter chart; closure reads it too."""
    layout = _adhm_chart(run, item, False)
    Q, lift = _adhm_operator(run, item, False), _adhm_lift(run, item, False)
    return _memo(item, "verify", lambda: verify_brst(Q, lift, layout.params))


def _closure(full: bool) -> Callable:
    def compute(run: _Run, item: dict) -> dict:
        if full:
            Q = _adhm_operator(run, item, True)
            residual = field_residual_text(square_residual(Q, _adhm_lift(run, item, True)))
        else:
            conditions = _unconstrained_report(run, item)["conditions"]
            residual = next(c["residual"] for c in conditions if c["name"] == "square_equals_lift")
        # a failure keeps the nonzero components, in the form of _verified
        failed = {"name": "square_equals_lift", "status": "fail", "residual": residual}
        return {
            "status": "fail" if residual else "pass",
            "lhs": "[Q,Q]/2",
            "rhs": "lifted field",
            "abs_error": None if residual else 0.0,
            "detail": {"conditions": [failed]} if residual else None,
        }

    return compute


def _verify_unconstrained(run: _Run, item: dict) -> dict:
    return _verified(_unconstrained_report(run, item))


def _sigma_identity(run: _Run, item: dict) -> dict:
    Q = _adhm_operator(run, item, False)
    ok = all(comp.terms == {(idx + 1,): sc.ONE} for idx, comp in enumerate(Q.a))
    return {"status": "pass" if ok else "fail"}


def _multiplier(sector: str) -> Callable:
    def compute(run: _Run, item: dict) -> dict:
        lay, V = _adhm_chart(run, item, True), _constraints(run, item)
        _, rep = sector_completion(lay, _adhm_lift(run, item, True), V, sector)
        ok = rep["pairing_residual_zero"] and (rep["invertible"] or sector == "HR")
        return {
            "status": "pass" if ok else "fail",
            "abs_error": rep["pairing_residual_max"],
            "detail": {"invertible": rep["invertible"], "size": rep["size"]},
        }

    return compute


def _fixed_points(run: _Run, item: dict) -> dict:
    N = run.scenario["N"]
    if run.scenario["k"] != 1:
        return {"status": "skipped(OnlyRankOne)"}
    points = adhm_fixed_points(_adhm_chart(run, item, True), _constraints(run, item))
    return {
        "status": "pass" if len(points) == N else "fail",
        "lhs": len(points),
        "rhs": N,
        "detail": {"weights": [[sc.to_text(w) for w in fp.weights] for fp in points]},
    }


# ---------------------------------------------------------------------------
# the registry: kind -> command -> ordered (item source, checks) stages


_GEOMETRY = {
    "localize": (
        (_values, (
            _Check("super_localize", _super_localize, ((NotQClosed, "fail"),)),
            _Check("classical_localize", _classical_localize),
        )),
    ),
    "oracle": (
        (_values, (_Check("global_berezin", _global_berezin),)),
        (_stokes, (_Check(
            "super_stokes", _super_stokes, ((AssumptionViolated, "skipped(AssumptionViolated)"),)
        ),)),
    ),
    "compare": (
        (_values, (
            _Check("compare", _compare),
            _Check("super_vs_reference", _versus_reference(lambda r, i: _local(r, i)["value"])),
            _Check("oracle_vs_reference", _versus_reference(_oracle)),
        )),
    ),
    "brst-check": (
        (_patches, (_Check("verify_brst", _verify_patch), _Check("sigma_parallel", _sigma_parallel))),
    ),
}

_REGISTRY = {
    "sphere": _GEOMETRY,
    "plane_rotation": _GEOMETRY,
    "kahler_torus": {
        "brst-check": ((_single, (_Check("verify_brst", _verify_kahler),)),),
    },
    "adhm": {
        "brst-check": (
            (_single, (
                _Check("closure_unconstrained", _closure(False)),
                _Check("closure_full", _closure(True)),
                _Check("verify_brst_unconstrained", _verify_unconstrained),
                _Check("sigma_identity", _sigma_identity),
                _Check("multiplier_real_sector", _multiplier("HR")),
                _Check("multiplier_complex_sector", _multiplier("HC")),
                _Check("fixed_points", _fixed_points),
            )),
        ),
    },
}


def run_localize(scenario: dict, tol: Optional[float] = None) -> dict:
    return _execute(scenario, "localize", tol)


def run_oracle(scenario: dict, tol: Optional[float] = None) -> dict:
    return _execute(scenario, "oracle", tol)


def run_compare(scenario: dict, tol: Optional[float] = None) -> dict:
    return _execute(scenario, "compare", tol)


def run_brst_check(scenario: dict, tol: Optional[float] = None) -> dict:
    return _execute(scenario, "brst-check", tol)


RUNNERS = {
    "localize": run_localize,
    "oracle": run_oracle,
    "compare": run_compare,
    "brst-check": run_brst_check,
}

"""Scenario loading, the check registry, and the executor behind the runners.

A scenario is a JSON object with a `kind` selecting one of the built-in
setups (sphere, plane rotation, a one-dimensional toy, the complex
two-torus operator, or the matrix-model suites).  `_REGISTRY` maps each
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
    ActionSpec,
    check_sigma_parallel,
    kahler_Q,
    square_residual,
    tautological_Q,
    verify_brst,
)
from .adhm import (
    adhm_Q_full,
    adhm_Q_unconstrained,
    adhm_action_spec,
    adhm_constraint_scalars,
    adhm_fixed_points,
    adhm_lifted_field,
    adhm_super_chart,
    cartan_params,
    multiplier_completion,
)
from .errors import AssumptionViolated, NotQClosed, OddDimension, SchemaError
from .geometry import (
    PLANE_ROTATION,
    annulus_domain,
    closed_polynomial,
    flat_box_domain,
    gaussian_oracle_patch,
    gaussian_rotation_form,
    height_exponential,
    plane_fixed_point,
    sphere_atlas,
    sphere_fixed_points,
    sphere_oracle_patch,
)
from .grassmann import SuperChart, field_is_zero, parse_super
from .linalg import identity
from .localize import classical_localize, find_fixed_points, super_localize
from .oracle import OraclePatch, global_berezin, super_stokes_check


KINDS = ("sphere", "plane_rotation", "line_dilation", "kahler_torus", "adhm")

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
        if hasattr(path, "read_bytes"):
            raw = path.read_bytes()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        raise SchemaError("cannot read scenario: %s" % (exc,))
    try:
        scenario = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    if kind not in KINDS:
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
    if kind in ("sphere", "plane_rotation", "line_dilation"):
        form = _require(scenario, "form", dict)
        ftype = form.get("type")
        if kind == "sphere" and ftype not in ("height_exponential", "closed_polynomial"):
            raise SchemaError("unsupported sphere form %r" % (ftype,))
        if ftype == "closed_polynomial":
            coeffs = form.get("coeffs")
            if not isinstance(coeffs, list) or not coeffs:
                raise SchemaError("closed_polynomial needs a coefficient list")
            for c in coeffs:
                _as_fraction(c)
        if kind == "plane_rotation" and ftype != "gaussian_rotation":
            raise SchemaError("unsupported plane form %r" % (ftype,))
        if kind == "line_dilation":
            if ftype != "expression" or not isinstance(form.get("text"), str):
                raise SchemaError("line scenarios need an expression form")
        values = _require(scenario, "values", list)
        if not values:
            raise SchemaError("values must be non-empty")
        for v in values:
            _as_fraction(v)
        if "reference" in scenario and scenario["reference"] not in _REFERENCES:
            raise SchemaError("unknown reference %r" % (scenario["reference"],))
        for entry in scenario.get("stokes", []):
            if not isinstance(entry, dict):
                raise SchemaError("stokes entries must be objects")
            domain = entry.get("domain")
            if domain not in _STOKES_DOMAINS:
                raise SchemaError("unknown boundary domain %r" % (domain,))
            text = entry.get("form")
            if not isinstance(text, str):
                raise SchemaError("stokes entry lacks a form text")
            chart = _STOKES_DOMAINS[domain]().chart
            try:
                nu = parse_super(chart, text)
            except Exception as exc:
                raise SchemaError("stokes form does not parse: %s" % (exc,))
            foreign = sorted(nu.free_symbols() - set(chart.coords))
            if foreign:
                raise SchemaError("stokes form names %s, not a coordinate of %s" % (", ".join(foreign), domain))
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
# geometry cases


class _GeometryCase(NamedTuple):
    """Everything a geometry check needs: fields, fixed points, oracle patches."""

    fields: object
    fps: list
    Q: object
    patches: list


def _sphere_case(scenario: dict) -> _GeometryCase:
    atlas = sphere_atlas()
    form = scenario["form"]
    if form["type"] == "height_exponential":
        fields = {p.name: height_exponential(p) for p in atlas}
        patches = [sphere_oracle_patch()]
    else:
        coeffs = [_as_fraction(c) for c in form["coeffs"]]
        fields = {p.name: closed_polynomial(p, coeffs) for p in atlas}
        patches = [_sphere_polynomial_patch(coeffs)]
    Q = {p.name: tautological_Q(p.spec) for p in atlas}
    return _GeometryCase(fields, sphere_fixed_points(), Q, patches)


def _sphere_polynomial_patch(coeffs) -> OraclePatch:
    u, t = sc.sym("u"), sc.sym("t")
    height = sc.ZERO - t * sc.cos(u)
    integrand = sc.ZERO
    for k, c in enumerate(coeffs[1:], start=1):
        e = sc.rational(c.numerator * k, c.denominator)
        integrand = integrand + e * height ** (k - 1) * sc.sin(u)
    return OraclePatch(
        ("u", "v"),
        ((0.0, math.pi), (0.0, 2 * math.pi)),
        sc.normalize(integrand),
    )


def _plane_case(scenario: dict) -> _GeometryCase:
    return _GeometryCase(
        gaussian_rotation_form(),
        plane_fixed_point(),
        tautological_Q(PLANE_ROTATION),
        [gaussian_oracle_patch()],
    )


def _line_case(scenario: dict) -> _GeometryCase:
    chart = SuperChart(("x",), 1)
    spec = ActionSpec(("t",), chart, ((sc.sym("x"),),))
    fps = find_fixed_points(
        spec, declared=[(0,)], h=((sc.ONE,),), chart_id="line"
    )
    field = parse_super(chart, scenario["form"]["text"])
    return _GeometryCase(field, fps, None, [])


_CASES = {
    "sphere": _sphere_case,
    "plane_rotation": _plane_case,
    "line_dilation": _line_case,
}


_TORUS_SPEC = ActionSpec(
    ("e1", "e2"),
    SuperChart(("x1", "y1", "x2", "y2"), 2),
    (
        (sc.ZERO - sc.sym("y1"), sc.sym("x1"), sc.ZERO, sc.ZERO),
        (sc.ZERO, sc.ZERO, sc.ZERO - sc.sym("y2"), sc.sym("x2")),
    ),
)


# ---------------------------------------------------------------------------
# the executor


class _Run:
    """One runner call: the scenario, its tolerance and the lazily built case."""

    def __init__(self, scenario: dict, tol: float):
        self.scenario = scenario
        self.tol = tol

    @cached_property
    def case(self) -> _GeometryCase:
        return _CASES[self.scenario["kind"]](self.scenario)


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
    if run.scenario["kind"] == "sphere":
        return [(p.name, (p.spec, p.h)) for p in sphere_atlas()]
    return [("plane", (PLANE_ROTATION, identity(2)))]


def _single(run: _Run):
    return [(None, {})]


# ---------------------------------------------------------------------------
# localization and oracle checks; an item is {"t": value} plus its memo


def _local(run: _Run, item: dict) -> dict:
    case = run.case
    return _memo(item, "local", lambda: super_localize(
        case.fields, case.fps, binding={"t": item["t"]}, Q=case.Q
    ))


def _oracle(run: _Run, item: dict) -> float:
    return _memo(item, "oracle", lambda: global_berezin(
        run.case.patches, binding={"t": item["t"]}, tol=min(run.tol * 1e-2, 1e-8)
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
    result = classical_localize(run.case.fields, run.case.fps, binding={"t": item["t"]})
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
        return _agreement(value(run, item), reference(float(item["t"])), run.tol)

    return compute


def _super_stokes(run: _Run, entry: dict) -> dict:
    domain = _STOKES_DOMAINS[entry["domain"]]()
    result = super_stokes_check(
        parse_super(domain.chart, entry["form"]),
        tautological_Q(domain.spec),
        identity(domain.chart.m),
        domain.h,
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
    return _verified(verify_brst(tautological_Q(spec), spec))


def _sigma_parallel(run: _Run, patch) -> dict:
    spec, h = patch
    result = check_sigma_parallel(identity(spec.chart.m), h, spec.chart, H=h)
    return {
        "status": result["status"],
        "abs_error": result["max_residual"],
        "detail": {"symbolic": result["symbolic"]},
    }


def _verify_kahler(run: _Run, item: dict) -> dict:
    return _verified(verify_brst(kahler_Q(_TORUS_SPEC), _TORUS_SPEC))


def _adhm_chart(run: _Run, item: dict, full: bool):
    """(layout, Cartan params) on the matter or the full chart."""

    def build():
        layout = adhm_super_chart(run.scenario["k"], run.scenario["N"], full=full)
        return layout, cartan_params(layout)

    return _memo(item, ("chart", full), build)


def _adhm_operator(run: _Run, item: dict, full: bool):
    layout, params = _adhm_chart(run, item, full)
    builder = adhm_Q_full if full else adhm_Q_unconstrained
    return _memo(item, ("Q", full), lambda: builder(layout, *params))


def _adhm_lift(run: _Run, item: dict, full: bool):
    layout, params = _adhm_chart(run, item, full)
    return _memo(item, ("lift", full), lambda: adhm_lifted_field(layout, *params))


def _closure(full: bool) -> Callable:
    def compute(run: _Run, item: dict) -> dict:
        Q = _adhm_operator(run, item, full)
        ok = field_is_zero(square_residual(Q, _adhm_lift(run, item, full)))
        return {
            "status": "pass" if ok else "fail",
            "lhs": "[Q,Q]/2",
            "rhs": "lifted field",
            "abs_error": 0.0 if ok else None,
        }

    return compute


def _verify_unconstrained(run: _Run, item: dict) -> dict:
    layout, _ = _adhm_chart(run, item, False)
    return _verified(verify_brst(_adhm_operator(run, item, False), adhm_action_spec(layout)))


def _sigma_identity(run: _Run, item: dict) -> dict:
    Q = _adhm_operator(run, item, False)
    ok = all(comp.terms == {(idx + 1,): sc.ONE} for idx, comp in enumerate(Q.a))
    return {"status": "pass" if ok else "fail"}


def _multiplier(complex_sector: bool) -> Callable:
    def compute(run: _Run, item: dict) -> dict:
        def build():
            lay, _ = _adhm_chart(run, item, True)
            field = _adhm_lift(run, item, True)
            bodies = [c.terms.get((), sc.ZERO) for c in field.a]
            T = {lay.chart.coords[i]: bodies[i] for i in range(lay.offset("HR"))}
            return lay, bodies, T, adhm_constraint_scalars(lay)

        lay, bodies, T, V = _memo(item, "multiplier", build)
        nreal = 2 * run.scenario["k"] ** 2
        H_names = list(lay.sector_coords("HC" if complex_sector else "HR"))
        Ttilde = [bodies[lay.chart.coords.index(nm)] for nm in H_names]
        block = V[nreal:] if complex_sector else V[:nreal]
        _, rep = multiplier_completion(block, T, Ttilde, H_names)
        ok = rep["pairing_residual_zero"] and (rep["invertible"] or not complex_sector)
        return {
            "status": "pass" if ok else "fail",
            "abs_error": rep["pairing_residual_max"],
            "detail": {"invertible": rep["invertible"], "size": rep["size"]},
        }

    return compute


def _fixed_points(run: _Run, item: dict) -> dict:
    k, N = run.scenario["k"], run.scenario["N"]
    if k != 1:
        return {"status": "skipped(OnlyRankOne)"}
    points = adhm_fixed_points(k, N)
    return {
        "status": "pass" if len(points) == N else "fail",
        "lhs": len(points),
        "rhs": N,
        "detail": {"weights": [[sc.to_text(w) for w in fp.weights] for fp in points]},
    }


# ---------------------------------------------------------------------------
# the registry: kind -> command -> ordered (item source, checks) stages


_SUPER_LOCALIZE = _Check(
    "super_localize",
    _super_localize,
    ((OddDimension, "skipped(OddDimension)"), (NotQClosed, "fail")),
)
_SUPER_STOKES = _Check(
    "super_stokes", _super_stokes, ((AssumptionViolated, "skipped(AssumptionViolated)"),)
)

_GEOMETRY = {
    "localize": (
        (_values, (_SUPER_LOCALIZE, _Check("classical_localize", _classical_localize))),
    ),
    "oracle": (
        (_values, (_Check("global_berezin", _global_berezin),)),
        (_stokes, (_SUPER_STOKES,)),
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
    "line_dilation": {
        "localize": ((_values, (_SUPER_LOCALIZE,)),),
        "oracle": ((_stokes, (_SUPER_STOKES,)),),
    },
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
                _Check("multiplier_real_sector", _multiplier(False)),
                _Check("multiplier_complex_sector", _multiplier(True)),
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

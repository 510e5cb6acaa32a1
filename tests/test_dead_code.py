"""Every module-level function, class and assigned name in the package, and
every method of a top-level class, has a caller or a reader, and every
module-level import is read by its module.

A definition in ``src/superloc`` counts as used when its name occurs in the
package outside the definition itself (in its own module or another one),
in ``superloc.__all__``, or in a demo.  A plain method (not a property)
counts as used only when such code calls ``.name(`` or reads
``Class.name``: a field or a local variable of the same name is no use of
it.  A name that only tests use is dead code.  Dunder methods are exempt:
the language calls them.  The scan reads the source with ``ast`` and
imports nothing.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superloc"

# Functions that the localization theorem's hypotheses and proof step will
# back as records; until then only tests call them.
PENDING = {
    "actions.metric_invariance_report": "brst-check metric_invariance on the geometry kinds",
    "actions.positive_definite_report": "brst-check positive_definite on the geometry kinds",
    "localize.build_lambda_beta": "localize q_exact_deformation on sphere and plane",
    "localize.exactness_witness": "localize q_exact_deformation on sphere and plane",
}


def _names(tree: ast.AST) -> Counter:
    """Occurrences of names, attributes and imported names in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _uses(tree: ast.AST, classes: set) -> Counter:
    """(kind, name) occurrences in tree: ("name", n) for each occurrence that
    _names counts, ("call", n) for each ``.n(`` call or ``Class.n`` read,
    the only uses of a plain method."""
    out = Counter({("name", name): count for name, count in _names(tree).items()})
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            out["call", node.func.attr] += 1
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in classes
        ):
            out["call", node.attr] += 1
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(node: ast.stmt) -> list:
    """Names a top-level statement defines: a function, a class, or the plain
    names an assignment binds (dunder names such as ``__all__`` excepted)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        e.id
        for t in targets
        for e in (t.elts if isinstance(t, ast.Tuple) else [t])
        if isinstance(e, ast.Name) and not e.id.startswith("__")
    ]


def _methods(node: ast.stmt) -> list:
    """(name, node, use kind) for each method of a top-level class, dunders
    excepted: "name" for a property or a cached property, "call" for a
    plain method."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        (item.name, item, "name" if any(
            isinstance(d, ast.Name) and d.id in ("property", "cached_property")
            for d in item.decorator_list
        ) else "call")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
    ]


def _unused() -> list:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    classes = {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    used = {("name", name) for name in _exported(modules["__init__"])}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= set(_uses(ast.parse(demo.read_text()), classes))
    # each module is walked once, one top-level statement at a time; a name
    # occurs in its module outside a definition when the module's count
    # exceeds the count inside that definition
    statements = {
        stem: [(node, _uses(node, classes)) for node in tree.body]
        for stem, tree in modules.items()
    }
    totals = {}
    homes = defaultdict(set)
    for stem, parts in statements.items():
        totals[stem] = Counter()
        for _, inside in parts:
            totals[stem].update(inside)
        for name in totals[stem]:
            homes[name].add(stem)
    out = []
    for stem, parts in statements.items():
        for node, inside in parts:
            defined = [(name, ("name", name), inside) for name in _defined(node)]
            defined += [
                ("%s.%s" % (node.name, name), (kind, name), _uses(method, classes))
                for name, method, kind in _methods(node)
            ]
            for qualified, key, counts in defined:
                if key in used or homes[key] - {stem} or totals[stem][key] > counts[key]:
                    continue
                out.append("%s.%s" % (stem, qualified))
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_private_name_imported_across_modules():
    """A policy that several modules share has a public owner: no module
    imports another module's underscore name, or reads one as an attribute
    of an imported superloc module (``sc._name``)."""
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "superloc"
            ):
                imported += [
                    "%s imports %s.%s" % (path.stem, node.module, alias.name)
                    for alias in node.names
                    if _private(alias.name)
                ]
                # `from . import scalars as sc` binds a module
                if node.module in (None, "superloc"):
                    modules |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                modules |= {
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name.split(".")[0] == "superloc"
                }
        imported += [
            "%s reads %s.%s" % (path.stem, node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ]
    assert imported == []


def test_every_definition_has_a_caller():
    unused = set(_unused())
    assert unused - set(PENDING) == set()
    # a pending function leaves the list once it backs a record
    assert set(PENDING) - unused == set()


def test_every_module_level_import_is_read():
    """A name that a module imports at top level occurs in that module
    outside its import statements, or in the module's ``__all__``."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = Counter(_exported(tree))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
            else:
                read.update(_names(node))
        unread += ["%s imports %s" % (path.stem, name) for name in bound if not read[name]]
    assert unread == []


def test_localize_reads_an_action_only_through_its_lift():
    """``localize`` takes a lifted field and imports nothing from ``actions``,
    so an action on a fiber that is not the tangent bundle needs no spec."""
    tree = ast.parse((PACKAGE / "localize.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported += [
                alias.name
                for alias in node.names
                if module[-1] == "actions" or "actions" in (alias.name, alias.asname)
            ]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[-1] == "actions"]
    assert imported == []


def test_every_benchmark_span_target_resolves():
    """Each (module, attribute path) that the benchmark's tracer wraps names
    a function of the package. The tracer only lists a name it cannot find,
    so without this a deleted or renamed target goes unnoticed until a
    benchmark run."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    missing = []
    for name, module, path in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert targets and missing == []


def _cache_decorated():
    """(module, function) for each function of the package decorated with
    functools' lru_cache or cache, found in the source."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                    if name in ("lru_cache", "cache"):
                        yield path.stem, node.name


def test_every_cache_is_bounded():
    """Every functools cache in the package has a finite maxsize."""
    found = list(_cache_decorated())
    assert ("scalars", "normalize") in found and ("oracle", "_tensor_weights") in found
    unbounded = [
        "%s.%s" % (module, name)
        for module, name in found
        if getattr(importlib.import_module("superloc." + module), name).cache_info().maxsize is None
    ]
    assert unbounded == []


def test_grassmann_brings_only_given_coefficients_to_normal_form():
    """Each coefficient that grassmann's arithmetic, derivations and parser
    build is one ``scalars.combine`` of signed terms. The name normalize
    occurs only in its import, in ``SuperFunction.__init__``, which takes
    arbitrary coefficients, and in ``invert_even``."""
    tree = ast.parse((PACKAGE / "grassmann.py").read_text())
    where = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            parts = [("%s.%s" % (node.name, getattr(item, "name", "")), item) for item in node.body]
        else:
            parts = [(getattr(node, "name", type(node).__name__), node)]
        where |= {owner for owner, part in parts if _names(part)["normalize"]}
    assert where == {"ImportFrom", "SuperFunction.__init__", "invert_even"}

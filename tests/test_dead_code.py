"""Every module-level function and class in the package has a caller.

A definition in ``src/superloc`` counts as used when its name occurs in the
package outside the definition itself (in its own module or another one),
in ``superloc.__all__``, or in a demo.  A name that only tests use is dead
code.  The scan reads the source with ``ast`` and imports nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "superloc"

# Functions that the localization theorem's hypotheses and proof step will
# back as records; until then only tests call them.
PENDING = {
    "actions.closure_check": "brst-check lie_closure on the geometry kinds",
    "actions.metric_invariance_report": "brst-check metric_invariance on the geometry kinds",
    "actions.positive_definite_report": "brst-check positive_definite on the geometry kinds",
    "adhm.fermionic_constraints": "adhm brst-check fermionic_constraints",
    "localize.build_lambda_beta": "localize q_exact_deformation on sphere and plane",
    "localize.exactness_witness": "localize q_exact_deformation on sphere and plane",
}


def _names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names, attributes and imported names used in tree, outside skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused() -> list:
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = _exported(modules["__init__"])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _names(ast.parse(demo.read_text()))
    out = []
    for stem, tree in modules.items():
        elsewhere = used.union(*(_names(t) for s, t in modules.items() if s != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in elsewhere or node.name in _names(tree, skip=node):
                continue
            out.append("%s.%s" % (stem, node.name))
    return out


def test_every_definition_has_a_caller():
    unused = set(_unused())
    assert unused - set(PENDING) == set()
    # a pending function leaves the list once it backs a record
    assert set(PENDING) - unused == set()

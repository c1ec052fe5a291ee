"""Every top-level def or class in ``src/`` is reached by something that is not a test.

A name counts as reached when a module under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` uses it (as a name, an attribute or a word of
a string) outside the def's own body. ``__init__`` re-exports do not count.
Code that only tests call belongs in ``tests/`` as an oracle, or nowhere.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "benchmarks", "examples", "perfbench")


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and not any(c.isspace() for c in node.value):  # "pkg.mod:name", not prose
        return node.value.replace(".", " ").replace(":", " ").split()
    return []


def unreached():
    defs, users = [], defaultdict(set)  # users[name]: the top-level defs using it
    for path in (p for d in USERS for p in (ROOT / d).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs += [(path, top.name)] if path.is_relative_to(ROOT / "src") else []
                owner.update((id(sub), top.name) for sub in ast.walk(top))
        for node in ast.walk(tree):
            for name in _names(node):
                users[name].add(owner.get(id(node)))
    return sorted(f"{p.relative_to(ROOT)}::{name}" for p, name in defs
                  if not users[name] - {name})


def test_every_src_def_is_reached_outside_tests():
    assert unreached() == []

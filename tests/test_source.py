"""Checks on the library's source text."""

import ast
import re
from pathlib import Path

import reglinked

SRC = Path(reglinked.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_dead_private_helpers():
    """Every private module-level function or class, and every private
    (non-dunder) method, is named somewhere in the library besides its own
    definition."""
    defined = []
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((path.name, f.name) for f in node.body
                               if isinstance(f, ast.FunctionDef)
                               and not f.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    dead = [f"{mod}:{name}" for mod, name in defined
            if name.startswith("_") and name not in named]
    assert dead == []


def test_no_dead_public_functions():
    """Every public module-level function or class is exported by the
    package or named somewhere in the library besides its own definition,
    in the benchmark's scripts or in the README."""
    defined = []
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.extend((path.name, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    docs = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    named.update(*(re.findall(r"\w+", p.read_text(encoding="utf-8")) for p in docs))
    dead = [f"{mod}:{name}" for mod, name in defined if name not in named]
    assert dead == []


def test_unvalidated_partitions_are_built_only_in_partitions():
    """Only the enumeration in partitions.py builds a Partition or a
    MultiplicityVector through __new__, skipping the constructor's checks,
    so parsed specs and CLI input always yield validated objects.  Every
    __new__ call must name a library class outright: a class passed in a
    variable could hide a bypass from this check."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    calls = [(mod, ast.unparse(node.args[0]) if node.args else "")
             for mod, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__"]
    assert all(cls in classes for _, cls in calls), calls
    assert {(mod, cls) for mod, cls in calls
            if cls in ("Partition", "MultiplicityVector")} == {
        ("partitions.py", "Partition"), ("partitions.py", "MultiplicityVector")}

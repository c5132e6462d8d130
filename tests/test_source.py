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
    """Every public module-level function or class is named in a library
    module besides its own definition, in the benchmark's scripts or in the
    README.  The package's re-exports in __init__.py are not a use: a name
    that only the tests call belongs with them in tests/conftest.py."""
    defined = []
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.extend((path.name, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
        if path.name == "__init__.py":
            continue
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


def _new_calls():
    """(module, class) of every __new__ call in the library; every call
    must name a library class outright, since a class passed in a variable
    could hide a bypass from the checks below."""
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
    return set(calls)


def test_unvalidated_partitions_are_built_only_in_partitions():
    """Only the enumeration in partitions.py builds a Partition or a
    MultiplicityVector through __new__, skipping the constructor's checks,
    so parsed specs and CLI input always yield validated objects."""
    assert {(mod, cls) for mod, cls in _new_calls()
            if cls in ("Partition", "MultiplicityVector")} == {
        ("partitions.py", "Partition"), ("partitions.py", "MultiplicityVector")}


def test_unreduced_rational_functions_are_built_only_in_qalgebra():
    """Only qalgebra builds a RationalFunction through __new__, skipping the
    constructor's gcd: its arithmetic knows which factors can cancel, and
    every other module gets reduced values from the constructor."""
    assert {mod for mod, cls in _new_calls()
            if cls == "RationalFunction"} == {"qalgebra.py"}


def test_no_code_is_run_from_text():
    """No module calls eval, exec or compile, or reaches them through
    builtins: parse_rational reads the ast of its text and never runs it."""
    runners = {"eval", "exec", "compile"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Name) and node.id in runners)
                    or (isinstance(node, ast.Attribute) and node.attr in runners
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "builtins")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


FUNCTOOLS_CACHES = {"cache", "cached_property", "lru_cache"}


def test_every_cache_is_cleared_by_the_benchmark():
    """Every functools cache in the library decorates a function that is
    either nandi_spec or cleared by perfbench's clear_caches, so that no
    "cold" derivation of the benchmark starts warm.  A cache made any other
    way (say, lru_cache called on a function) is reported too."""
    cached, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "functools"
                 for a in node.names if a.name in FUNCTOOLS_CACHES}

        def is_cache(node):
            node = node.func if isinstance(node, ast.Call) else node
            return ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute)
                        and node.attr in FUNCTOOLS_CACHES
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "functools"))

        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in filter(is_cache, node.decorator_list):
                    cached.add((path.stem, node.name))
                    decorators.add(id(d.func if isinstance(d, ast.Call) else d))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node)
                  and id(node) not in decorators]
    workloads = ROOT / "perfbench" / "workloads.py"
    clear, = [node for node in ast.parse(workloads.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name == "clear_caches"]
    cleared = {(call.func.value.value.attr, call.func.value.attr)
               for call in ast.walk(clear)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "cache_clear"}
    assert stray == []
    assert cached - {("linked", "nandi_spec")} <= cleared, cached - cleared
    assert ("linked", "build_forbidden_dfa") in cached

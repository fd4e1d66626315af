"""Every name a package module, test file or demo imports is used there or
re-exported, every name a package module lists in ``__all__`` is bound
there, and every export of the numeric, group and correspondence modules is
read outside the tests.

A stdlib-only guard over the source: an import that outlives its last use,
or an export that outlives its definition (say after a class is deleted),
fails here instead of lingering.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperweyl

MODULES = sorted(Path(hyperweyl.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _id(path):
    """A package module by its file name, a test or demo by its folder too."""
    return path.name if path in MODULES else f"{path.parent.name}/{path.name}"


def _imported(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_id)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, "imported but unused: " + ", ".join(unused)


def _bound(tree):
    """Names bound at module level: definitions, assignments and imports."""
    names = {name for name, _ in _imported(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = sorted(_exported(tree) - _bound(tree))
    assert not missing, f"{path.name} exports undefined names: " + ", ".join(missing)


def _read(path):
    """Names a file reads: loaded names and attributes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_export_is_read_outside_the_tests():
    # an export that only its own tests call is a fork to delete: each name
    # in the __all__ of these modules must be read by the package (its
    # definition and __all__ entry are no reads), a demo or the benchmark
    readers = MODULES + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))
    read = set().union(*map(_read, readers))
    unread = [
        f"{path.stem}.{name}" for path in MODULES if path.stem in ("hypnum", "coxeter", "correspond")
        for name in sorted(_exported(ast.parse(path.read_text(), filename=str(path)))) if name not in read
    ]
    assert not unread, "exports read only by tests: " + ", ".join(unread)


def test_importing_the_cli_builds_no_table():
    # every table the package caches with lru_cache (label tables and
    # permutations, triple actions, words, distances, the 56-row table, the
    # function families, the compiled gamma-sine products, ...) is built on
    # first use, so no command pays for it at import; the caches are found
    # by introspection, so a new one is covered without naming it here
    code = (
        "import importlib, inspect, hyperweyl.cli\n"
        f"names = {[path.stem for path in MODULES if path.stem != '__init__']!r}\n"
        "for name in names:\n"
        "    module = importlib.import_module('hyperweyl.' + name)\n"
        "    for attr, f in vars(module).items():\n"
        "        if inspect.isfunction(inspect.unwrap(f)) and hasattr(f, 'cache_info')"
        " and f.__module__ == module.__name__:\n"
        "            print(f'{name}.{attr}', f.cache_info().currsize)"
    )
    src = str(Path(hyperweyl.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    sizes = dict(line.split() for line in run.stdout.splitlines())
    assert "coxeter._space" in sizes and "hypnum._families" in sizes
    assert {name: size for name, size in sizes.items() if size != "0"} == {}


def test_only_hypnum_names_the_margins():
    # one margin rule: no other package module reads the margins or the
    # helpers that measure them
    names = {"GAMMA_MARGIN", "SIN_MARGIN", "_near_nonpos_int", "_dist_to_int"}
    found = []
    for path in MODULES:
        if path.name != "hypnum.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            seen = {name for name, _ in _imported(tree)}
            seen |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            seen |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            found += [f"{path.name}: {name}" for name in sorted(seen & names)]
    assert not found, "margin names outside hypnum: " + ", ".join(found)


def test_catalog_agreements_are_relations():
    # checks 10, 11, 12, 13 and 14 compare function values only through
    # correspond.eval_relation: none of them converts a log value back to a
    # complex number to compare it by hand
    checks = {"_function_invariance", "_l_dual_route", "_relations", "_limits", "_appendix"}
    path = Path(hyperweyl.__file__).parent / "selftest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in checks
        for node in ast.walk(fn) if isinstance(node, ast.Attribute) and node.attr == "to_complex"
    ]
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert checks <= defined, sorted(checks - defined)
    assert not found, "hand-made comparisons: " + ", ".join(found)

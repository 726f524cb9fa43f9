"""Every name a module of the package imports is used in that module,
every module it imports is its own or in the standard library, and
importing the package loads neither `dataclasses` nor `inspect`.

A standard-library stand-in for a linter's unused-import rule. The package
`__init__.py` is skipped by the unused-import check: its imports are the
public re-exports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chiralwords"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Names read anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_catches_an_unused_import():
    tree = ast.parse("from typing import Dict, List, Tuple\n"
                     "x: List[int] = []\n"
                     "def f(a: 'Tuple[int]') -> None: return 'Dict'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Dict"}


def non_stdlib_imports(tree: ast.Module) -> set:
    """Top-level modules imported that are neither relative, `__future__`
    nor in the standard library."""
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:  # no import, or a relative one from inside the package
            continue
        outside.update(top for top in tops if top != "__future__"
                       and top not in sys.stdlib_module_names)
    return outside


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = non_stdlib_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not outside, f"{path.name}: imports outside the standard library " \
        f"{sorted(outside)}"


def test_the_check_catches_a_non_stdlib_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from . import words\nfrom .groups import GroupError\n"
                     "import numpy as np\nfrom hypothesis import given\n")
    assert non_stdlib_imports(tree) == {"numpy", "hypothesis"}


# Costly at start-up and needed by no module of the package: `dataclasses`
# imports `inspect`, which imports `ast`, `dis`, `tokenize` and `linecache`.
SLOW_MODULES = {"dataclasses", "inspect"}


def modules_added(code: str) -> set:
    """The modules that `code` adds to a fresh interpreter started without
    `site`, next to the same interpreter before it runs."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "before = set(sys.modules)",
        code,
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"])
    run = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True)
    return set(run.stderr.split())


@pytest.mark.parametrize("code", [
    "import chiralwords.cli",
    # `python -m chiralwords group list --max-order 1`
    "sys.argv[1:] = ['group', 'list', '--max-order', '1']\n"
    "try:\n    import chiralwords.__main__\nexcept SystemExit:\n    pass",
], ids=["import", "python-m"])
def test_start_up_loads_no_dataclasses_or_inspect(code):
    added = modules_added(code)
    assert "chiralwords.verify" in added  # every layer module was loaded
    assert not added & SLOW_MODULES, \
        f"start-up loads {sorted(added & SLOW_MODULES)}"


def test_the_start_up_check_sees_a_dataclasses_import():
    assert modules_added("import dataclasses") >= SLOW_MODULES

"""Every parameter of every function of the package is read in its body.

A standard-library stand-in for a linter's unused-argument rule. A name
read by a nested function or lambda counts as read by the enclosing one,
since the closure reads the enclosing parameter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chiralwords"
MODULES = sorted(PACKAGE.glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# The verify suite builders share one call signature, suite(bounds, words),
# so the driver can call them alike; Theorem 2 and the Remark check every
# automorphism of the group and sample no words.
EXEMPT = {("verify.py", "_thm2", "words"), ("verify.py", "_remark", "words")}


def parameters(fn) -> list:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def read_names(fn) -> set:
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return {n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_parameters(tree: ast.Module) -> list:
    """(function name, parameter, line) for each parameter never read."""
    unused = []
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            name = getattr(fn, "name", "<lambda>")
            read = read_names(fn)
            unused += [(name, p, fn.lineno) for p in parameters(fn)
                       if p not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [(name, p, line) for name, p, line in unused_parameters(tree)
              if (path.name, name, p) not in EXEMPT]
    assert not unused, f"{path.name}: unused parameters {unused}"


def test_the_exemptions_are_still_unused():
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    found = {("verify.py", name, p) for name, p, _ in unused_parameters(tree)}
    assert found == EXEMPT


def test_the_check_catches_an_unused_parameter():
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n"
                     "    b = a\n"
                     "    def g(d):\n"
                     "        return c + d\n"
                     "    return g, lambda e, f: e\n")
    assert sorted((name, p) for name, p, _ in unused_parameters(tree)) == [
        ("<lambda>", "f"), ("f", "args"), ("f", "b"), ("f", "kw")]

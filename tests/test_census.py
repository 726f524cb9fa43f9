"""Every function of the package has a reader: a census of what no path
needs.

Each top-level function and each public method in `src/chiralwords` must be
named somewhere in the package outside its own definition, or in
`perfbench/*.py`, whose tracer names its entry points in strings. The
re-exports in `__init__.py` do not count. The few kept without such a
reader are listed in ALLOWED, each with its reason. When a caller goes, this
test names the function it leaves behind, to be deleted or moved into the
tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chiralwords"

# Top-level functions kept with no reader in the package or the benchmark.
ALLOWED = {
    # The paper's predicate: w is gamma-chiral on G for one given gamma.
    "is_gamma_chiral_pair",
    # The dedup of Hölder specs for the extended catalog (ROADMAP item 1).
    "is_isomorphic",
    # The public dedup key for word searches; `canonical_words` builds its
    # representatives without it.
    "canonical_form",
}


def named(tree: ast.AST) -> Counter:
    """How often each identifier is read, as a name, an attribute or an
    import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) \
                        and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def orphans(modules: dict, outside: set) -> list:
    """The definitions in `modules` (name -> tree) read nowhere in them
    outside their own body, nor in `outside`."""
    everywhere = sum(map(named, modules.values()), Counter())
    found = []
    for tree in modules.values():
        for qualified, node in definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if name not in outside \
                    and everywhere[name] == named(node)[name]:
                found.append(qualified)
    return sorted(found)


def package_modules() -> dict:
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def benchmark_names() -> set:
    """What perfbench reads, including each dotted part of its strings:
    its tracer names entry points as ("engine", "evaluate")."""
    found = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(named(tree))
        found.update(part for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     for part in node.value.replace(".", " ").split())
    return found


def test_only_the_allowed_functions_lack_a_reader():
    # A function left without a reader shows up here, and so does an
    # entry of ALLOWED that gained a reader or whose function is gone.
    assert orphans(package_modules(), benchmark_names()) == sorted(ALLOWED)


def test_the_census_catches_an_orphan():
    a = ast.parse("def f():\n    return f()\n"
                  "def g():\n    return 1\n"
                  "class K:\n"
                  "    def m(self):\n        return g()\n"
                  "    def _p(self):\n        pass\n"
                  "    def read(self):\n        pass\n")
    b = ast.parse("from a import K\nK().read\n")
    assert orphans({"a": a}, set()) == ["K.m", "K.read", "f"]
    assert orphans({"a": a, "b": b}, {"f"}) == ["K.m"]

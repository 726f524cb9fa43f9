"""The names the benchmark reaches into must exist.

`perfbench/spans.py` wraps each of its ENTRY_POINTS and silently drops the
metrics of one that is gone; it reads `cache_info()` of the two
automorphism enumerations for the `groups.autos.*` metrics.
`perfbench/worker.py` imports names from the package, and times the verify
workload's operations by replacing `verify.catalog_groups` for the run. A
refactor that removes any of these, or stops looking that name up once per
suite pass, fails here, not only in the slow benchmark smoke test.
"""

import ast
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from chiralwords import groups, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = load_spans().ENTRY_POINTS


def worker_imports():
    """(module, name) for every `from chiralwords... import name` in
    worker.py."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("chiralwords"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("span, module, attr", ENTRY_POINTS,
                         ids=[span for span, _, _ in ENTRY_POINTS])
def test_every_entry_point_resolves(span, module, attr):
    owner = importlib.import_module(f"chiralwords.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner)), span


def test_every_name_the_worker_imports_resolves():
    names = list(worker_imports())
    assert ("chiralwords.search", "replay") in names
    for module, name in names:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")  # a submodule


def test_the_automorphism_enumerations_expose_cache_info():
    for fn in (groups.enumerate_automorphisms,
               groups.enumerate_anti_automorphisms):
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_verify_looks_up_the_catalog_once_per_suite_pass(monkeypatch):
    original = verify.catalog_groups
    calls = []

    def counting(*args, **kwargs):
        catalog = original(*args, **kwargs)
        consumed = []
        calls.append((catalog, consumed))

        def feed():
            for item in catalog:
                consumed.append(item)
                yield item
        return feed()

    monkeypatch.setattr(verify, "catalog_groups", counting)
    bounds = verify.Bounds(max_order=6, max_word_len=1, theta_samples=1,
                           gamma_samples=1)
    verify.run_all(bounds)
    assert len(calls) == 4
    assert all(catalog and consumed == catalog
               for catalog, consumed in calls)
    calls.clear()
    verify.run_suite("thm2", bounds)
    assert len(calls) == 1 and calls[0][1] == calls[0][0]

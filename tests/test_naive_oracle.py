"""`naive_image` is the oracle every fast path is tested against.

It walks G^d in blocks: the first d-1 coordinates one tuple at a time, the
last as a vector of all |G| values. These tests pin it to the plain loop,
one `evaluate` per tuple, and check that it reads none of the structure the
fast paths rest on, so that it stays independent of them.
"""

import ast
import inspect
import textwrap
from itertools import product

import pytest

from chiralwords import engine
from chiralwords.catalog import catalog_groups
from chiralwords.engine import evaluate, naive_image
from chiralwords.groups import FiniteGroup, parse_group_spec
from chiralwords.words import canonical_words, parse_word

# Facts and functions of the fast paths (`engine._fiber_counts` and the
# scans it picks) that the oracle must not read.
FAST_PATH_NAMES = {
    "conjugacy_classes", "class_size", "abelian_normal", "factors",
    "is_abelian", "_fiber_counts", "_normal_scan", "_class_scan",
    "_split", "normal_wins", "image",
}
# The engine function the fast paths share with the oracle.
SHARED_NAMES = {"_check_budget"}


def per_tuple_counts(g, w):
    """The oracle's counts, one `evaluate` per tuple of G^(w.rank)."""
    counts = [0] * g.order
    for tup in product(range(g.order), repeat=w.rank):
        counts[evaluate(g, w, tup)] += 1
    return tuple(counts)


def assert_matches_per_tuple(g, w):
    img, fibers = naive_image(g, w)
    counts = per_tuple_counts(g, w)
    assert fibers.counts == counts, (g.name, w)
    assert img.members == tuple(c > 0 for c in counts)
    assert img.arity == fibers.word.rank == w.rank
    assert sum(fibers.counts) == g.order ** w.rank


CATALOG_16 = catalog_groups(16)


def test_the_catalog_at_order_16_has_34_groups():
    assert len(CATALOG_16) == 34


@pytest.mark.parametrize("spec, g", CATALOG_16, ids=[s for s, _ in CATALOG_16])
def test_blocked_walk_matches_per_tuple_loop_on_catalog(spec, g):
    for w in canonical_words(2, 4):
        assert_matches_per_tuple(g, w)


@pytest.mark.parametrize("spec", ["S3", "Q8", "A4"])
@pytest.mark.parametrize("text, rank", [
    ("x1", 1), ("x1^3", 1), ("x1^-2", 1),
    ("x1 x2 x3^-1 x1^-1", 3), ("x3 x1^2 x2^-1 x3", 3),
    ("x1 x2^2", 3),  # rank 3 that does not read x3, the vector coordinate
    ("x2 x1^-1", 2),  # rank 2 that ends on the first coordinate
    ("e", 1), ("e", 3),
    ("x1^1000000007 x2^-3", 2),
])
def test_blocked_walk_matches_per_tuple_loop(spec, text, rank):
    g = parse_group_spec(spec)
    assert_matches_per_tuple(g, parse_word(text, rank))


def names_read(tree: ast.AST) -> set:
    """Every attribute and bare name the code reads."""
    return ({n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_oracle_reads_no_fast_path_structure():
    tree = ast.parse(textwrap.dedent(inspect.getsource(engine.naive_image)))
    assert not names_read(tree) & FAST_PATH_NAMES


def test_the_guard_catches_a_fast_path_read():
    tree = ast.parse("def f(g, w):\n"
                     "    return _fiber_counts(g, w, g.is_abelian)\n")
    assert names_read(tree) & FAST_PATH_NAMES == {"_fiber_counts",
                                                  "is_abelian"}


def engine_calls(func) -> set:
    """The engine functions that func calls by name."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    called = {n.func.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    return {name for name in called
            if inspect.isfunction(getattr(engine, name, None))
            and getattr(engine, name).__module__ == engine.__name__}


def test_every_guarded_name_exists():
    # A name that no longer exists would keep the guard passing unseen.
    g = parse_group_spec("S4")
    assert isinstance(g, FiniteGroup)
    assert {name for name in FAST_PATH_NAMES | SHARED_NAMES
            if not hasattr(engine, name) and not hasattr(g, name)} == set()


def test_every_engine_function_the_fast_paths_call_is_guarded():
    reached, todo = set(), ["_fiber_counts"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += engine_calls(getattr(engine, name))
    assert {"_split", "_normal_scan", "_class_scan", "normal_wins"} <= reached
    assert reached - SHARED_NAMES <= FAST_PATH_NAMES
    assert SHARED_NAMES <= engine_calls(engine.naive_image)

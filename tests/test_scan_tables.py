"""Per-group facts and hashes.

A FiniteGroup computes what every scan of it reads on first use and keeps
it: the table's columns, the conjugacy classes, power tables memoized by
the exponent reduced mod exp(G), and the rest. The facts live on the group,
so they are freed with it; a group hashes its table once, for the few LRUs
keyed by groups.
"""

import gc
import json
import math
import random
import weakref

import pytest

from chiralwords import groups
from chiralwords.engine import image, naive_image
from chiralwords.groups import (
    FILE_CACHE_SIZE,
    build_family,
    enumerate_automorphisms,
    parse_group_spec,
)
from chiralwords.words import parse_word

EXPONENTS = {"S4": 12, "Q8": 4, "D24": 12, "C7": 7}
FACTS = ("element_orders", "conjugacy_classes", "class_size", "is_abelian",
         "exponent", "columns", "search_generators", "abelian_normal")


@pytest.mark.parametrize("spec", sorted(EXPONENTS))
def test_power_memo_matches_naive_and_holds_at_most_exp_g_tables(spec):
    g = parse_group_spec(spec)
    exp_g = EXPONENTS[spec]
    assert math.lcm(*g.element_orders) == exp_g
    for k in (0, 1, -1, exp_g, -exp_g, exp_g + 1, -(10 ** 18 + 1)):
        assert g.power_table(k) == tuple(g.power(a, k) for a in g.elements())
        if k == 0:  # words have no zero exponents
            continue
        for text in (f"x1^{k} x2", f"x1 x2^{k} x1^-1 x2^2", f"x1^{k}"):
            w = parse_word(text, 2)
            fast = image(g, w, want_fibers=True)
            assert fast == naive_image(g, w), text
            assert len(g._powers) <= exp_g
    assert g.exponent == exp_g
    assert set(g._powers) <= set(range(exp_g))


def test_power_tables_are_built_once_per_reduced_exponent():
    g = build_family("S4")
    for text in ("x1^2 x2^-1", "x1^14 x2^11", "x1^-10 x2^-13 x1^2 x2^-1"):
        image(g, parse_word(text, 2))
    assert sorted(g._powers) == [2, 11]


def load_and_scan(path):
    """Load a group file, compute every fact of the group and one image,
    and keep nothing but a weak reference to the group."""
    g = parse_group_spec(f"@{path}")
    for fact in FACTS:
        getattr(g, fact)
    g.power_table(-1)
    w = parse_word("x1 x2^2", 2)
    assert image(g, w) == naive_image(g, w)[0]
    return weakref.ref(g)


def test_facts_are_freed_with_their_group_over_70_group_files(tmp_path):
    s3 = build_family("S3")
    rng = random.Random(70)
    refs = []
    for i in range(70):
        relabel = list(s3.elements())
        rng.shuffle(relabel)
        table = [[0] * 6 for _ in range(6)]
        for a in s3.elements():
            for b in s3.elements():
                table[relabel[a]][relabel[b]] = relabel[s3.table[a][b]]
        path = tmp_path / f"s3-{i}.json"
        path.write_text(json.dumps({"name": f"S3-{i}", "order": 6,
                                    "table": table}))
        refs.append(load_and_scan(path))
    gc.collect()
    alive = [ref for ref in refs if ref() is not None]
    # Only the file cache holds groups: no fact keeps its group alive.
    assert 0 < len(alive) <= FILE_CACHE_SIZE
    assert refs[-1]() is not None


def test_a_product_spec_shares_its_factors_with_their_specs():
    groups._built_in_group.cache_clear()  # no factor evicted before its product
    g = parse_group_spec("S4xC2")
    assert g.factors[0] is parse_group_spec("S4")
    assert g.factors[1] is parse_group_spec("C2")
    c2_cubed = parse_group_spec("C2xC2xC2")
    assert c2_cubed.factors[0] is parse_group_spec("C2xC2")
    assert c2_cubed.table == groups.direct_product(
        groups.direct_product(build_family("C2"), build_family("C2")),
        build_family("C2")).table


def test_a_group_hashes_its_table_once():
    g = build_family("D24")
    assert hash(g) == hash(build_family("D24"))
    assert g == build_family("D24") and g != build_family("C24")
    assert "_hash" not in repr(g)
    calls = []

    class CountingTable(tuple):
        def __hash__(self):
            calls.append(1)
            return super().__hash__()

    h = groups.FiniteGroup(g.name, g.order, CountingTable(g.table),
                           g.inverses, g.labels)
    assert calls == []  # building a group does not hash it
    for _ in range(5):
        hash(h)
        enumerate_automorphisms(h)
    assert len(calls) == 1
    assert h == g and hash(h) == hash(g)

"""Per-group tables, caches and hashes.

`engine.scan_tables` builds what every scan of a group reads once: the
table's columns, the conjugacy classes and power tables memoized by the
exponent reduced mod exp(G). Every per-group cache is bounded, and a group
hashes its table once, at construction.
"""

import json
import math
import random

import pytest

from chiralwords import engine, groups
from chiralwords.engine import image, naive_image, scan_tables
from chiralwords.groups import (
    GROUP_CACHE_SIZE,
    build_family,
    conjugacy_classes,
    cyclic_group,
    element_orders,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    parse_group_spec,
)
from chiralwords.words import parse_word

EXPONENTS = {"S4": 12, "Q8": 4, "D24": 12, "C7": 7}


@pytest.mark.parametrize("spec", sorted(EXPONENTS))
def test_power_memo_matches_naive_and_holds_at_most_exp_g_tables(spec):
    g = parse_group_spec(spec)
    exp_g = EXPONENTS[spec]
    assert math.lcm(*element_orders(g)) == exp_g
    scan_tables.cache_clear()
    for k in (0, 1, -1, exp_g, -exp_g, exp_g + 1, -(10 ** 18 + 1)):
        assert scan_tables(g).power_table(k) == tuple(
            g.power(a, k) for a in g.elements())
        if k == 0:  # words have no zero exponents
            continue
        for text in (f"x1^{k} x2", f"x1 x2^{k} x1^-1 x2^2", f"x1^{k}"):
            w = parse_word(text, 2)
            fast = image(g, w, 2, want_fibers=True)
            assert fast == naive_image(g, w, 2), text
            assert len(scan_tables(g).powers) <= exp_g
    assert scan_tables(g).exponent == exp_g
    assert set(scan_tables(g).powers) <= set(range(exp_g))


def test_power_tables_are_built_once_per_reduced_exponent():
    g = build_family("S4")
    scan_tables.cache_clear()
    for text in ("x1^2 x2^-1", "x1^14 x2^11", "x1^-10 x2^-13 x1^2"):
        image(g, parse_word(text, 2))
    assert sorted(scan_tables(g).powers) == [2, 11]


def test_scan_table_cache_stays_within_its_bound():
    scan_tables.cache_clear()
    w = parse_word("x1^2", 1)
    for n in range(1, GROUP_CACHE_SIZE + 7):
        g = cyclic_group(n)
        assert image(g, w) == naive_image(g, w)[0]
        info = scan_tables.cache_info()
        assert info.maxsize == GROUP_CACHE_SIZE
        assert info.currsize <= GROUP_CACHE_SIZE


PER_GROUP_CACHES = [groups.element_orders,
                    groups.conjugacy_classes, groups.enumerate_automorphisms,
                    groups.enumerate_anti_automorphisms, engine.scan_tables]


def test_per_group_caches_stay_bounded_over_70_group_files(tmp_path):
    s3 = build_family("S3")
    rng = random.Random(70)
    for cache in PER_GROUP_CACHES:
        cache.cache_clear()
    loaded = set()
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
        g = parse_group_spec(f"@{path}")
        loaded.add(g)
        element_orders(g)
        conjugacy_classes(g)
        enumerate_automorphisms(g)
        enumerate_anti_automorphisms(g)
        image(g, parse_word("x1 x2^2", 2))
        for cache in PER_GROUP_CACHES:
            info = cache.cache_info()
            assert info.maxsize == GROUP_CACHE_SIZE, cache
            assert info.currsize <= GROUP_CACHE_SIZE, cache
    assert len(loaded) == 70
    assert all(cache.cache_info().currsize == GROUP_CACHE_SIZE
               for cache in PER_GROUP_CACHES)


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
        conjugacy_classes(h)
    assert len(calls) == 1
    assert h == g and hash(h) == hash(g)

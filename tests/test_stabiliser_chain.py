"""The stabiliser chain is the one Aut(G) search, run once per group.

`groups._stabiliser_chain` finds the strong generators and transversals;
`enumerate_automorphisms` multiplies the transversals out, and
`automorphism_orbit_minima` closes the orbits under the strong generators
alone. The search and replay read only the minima, so they build no full
Aut(G) and law-check only the strong generators.
"""

import pytest

from chiralwords.catalog import catalog_groups, catalog_specs
from chiralwords.groups import (
    MAX_AUTOMORPHISMS,
    CapExceededError,
    GroupMap,
    _stabiliser_chain,
    automorphism_orbit_minima,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    parse_group_spec,
)
from chiralwords.search import _scan_pair, replay, search_chiral
from chiralwords.words import parse_word

from conftest import metacyclic_c7_c9


def enumerated_minima(g):
    """The least image of each element over all of Aut(G), enumerated."""
    autos = enumerate_automorphisms(g, g.order)
    return tuple(min(zeta.images[x] for zeta in autos) for x in g.elements())


GROUPS = [(spec, parse_group_spec(spec)) for spec in
          catalog_specs(32) + ["A5", "S3xS3xC2", "S4xC4"]]
GROUPS.append(("C7:C9", metacyclic_c7_c9()))


@pytest.mark.parametrize("spec, g", GROUPS, ids=[s for s, _ in GROUPS])
def test_orbit_minima_equal_those_over_all_of_aut_g(spec, g):
    minima = automorphism_orbit_minima(g, g.order)
    assert minima == enumerated_minima(g)
    assert enumerate_anti_automorphisms(g, g.order).orbit_minima is minima
    strong, _ = _stabiliser_chain(g, g.order)
    autos = enumerate_automorphisms(g, g.order)
    assert set(strong) <= set(autos)
    # A strong generator is one object in both: checked once.
    assert all(autos[autos.index(s)] is s for s in strong)


def test_the_chain_keeps_the_cap_checks():
    g = parse_group_spec("C2xC2xC2xC2xC2")  # |Aut| = |GL(5, 2)| ~ 10^7
    for reader in (_stabiliser_chain, automorphism_orbit_minima,
                   enumerate_automorphisms, enumerate_anti_automorphisms):
        with pytest.raises(CapExceededError, match=f"more than "
                           f"{MAX_AUTOMORPHISMS} automorphisms"):
            reader(g)
        with pytest.raises(CapExceededError,
                           match=r"\|G\| = 32 exceeds automorphism cap 31"):
            reader(g, 31)


@pytest.mark.parametrize("spec, auto_cap", [("C2xC2xC2xC2xC2", 64),
                                            ("S3xS3xC2", 64), ("S4", 23)])
def test_replay_without_aut_g_leaves_gammas_agree_null(spec, auto_cap):
    g = parse_group_spec(spec)
    finding = _scan_pair(spec, g, parse_word("x1*x2*x1^-1*x2^2", 2),
                         auto_cap, 10 ** 6)
    record = finding.to_record()
    assert record["gammas_agree"] is None and record["image_size"]
    assert replay(record, auto_cap=auto_cap) == (True, [])
    ok, mismatches = replay({**record, "gammas_agree": True},
                            auto_cap=auto_cap)
    assert not ok and mismatches == [
        "gammas_agree: recorded True, recomputed None"]


def test_the_sweep_builds_no_full_aut_g(monkeypatch):
    """The bench sweep and a replay of each record: 40 law checks, one per
    strong generator of its 15 non-abelian groups, and no enumeration."""
    enumerate_automorphisms.cache_clear()  # clears every Aut(G) LRU
    checks = []
    check = GroupMap.__post_init__
    monkeypatch.setattr(GroupMap, "__post_init__",
                        lambda m: checks.append(m.images) or check(m))
    records = [f.to_record() for f in search_chiral(2, 6, 24, full=True)]
    assert len(records) == 1590
    assert all(replay(r) == (True, []) for r in records)
    for fn in (enumerate_automorphisms, enumerate_anti_automorphisms):
        info = fn.cache_info()
        assert (info.hits, info.misses) == (0, 0), fn.__name__
    scanned = [g for _, g in catalog_groups(24) if not g.is_abelian]
    assert len(scanned) == 15
    assert len(checks) == len(set(checks)) == 40 == sum(
        len(_stabiliser_chain(g)[0]) for g in scanned)
    assert _stabiliser_chain.cache_info().misses == 15

"""Where group maps are validated.

The checked GroupMap constructor is the entry point for outside data and
for automorphism-enumeration results; it checks the law in O(|G|·gens) on
a generating set, which suffices because the y with f(x·y) = f(x)·f(y)
for all x are closed under products. Maps derived from those (inverses,
the A(G) <-> AA(G) correspondence, identity, inversion) skip the check; on
every small catalog group they must equal what the checked constructor
accepts, and the law check must run at most once per distinct map.
"""

import pytest

from chiralwords.catalog import catalog_groups, catalog_specs
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    GroupError,
    GroupMap,
    _stabiliser_chain,
    anti_from_auto,
    build_family,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    identity_map,
    inversion_map,
    parse_group_spec,
)
from chiralwords.search import replay, search_chiral

from conftest import auto_from_anti


def checked(m: GroupMap) -> GroupMap:
    return GroupMap(m.group, m.images, m.kind)


@pytest.mark.parametrize("spec", catalog_specs(24))
def test_derived_maps_pass_the_checked_constructor(spec):
    g = parse_group_spec(spec)
    assert checked(identity_map(g)) == identity_map(g)
    assert checked(inversion_map(g)) == inversion_map(g)
    assert inversion_map(g) == anti_from_auto(identity_map(g))
    antis = enumerate_anti_automorphisms(g)
    for zeta, gamma in zip(enumerate_automorphisms(g), antis):
        assert gamma == anti_from_auto(zeta) == checked(gamma)
        assert gamma.kind == ANTI_AUTOMORPHISM
        assert checked(zeta.inverse()) == zeta.inverse()
        assert checked(auto_from_anti(gamma)) == auto_from_anti(gamma) == zeta
        assert checked(gamma.inverse()) == gamma.inverse()
        assert gamma.inverse().images == gamma.inverse_images
        assert all(gamma.inverse_images[gamma.images[x]] == x
                   for x in g.elements())


def test_bad_user_maps_raise():
    g = build_family("S3")
    with pytest.raises(GroupError, match="permutation"):
        GroupMap(g, (0, 1, 1, 3, 4, 5), AUTOMORPHISM)
    with pytest.raises(GroupError, match="identity"):
        GroupMap(g, (1, 0, 2, 3, 4, 5), AUTOMORPHISM)
    with pytest.raises(GroupError, match="automorphism law"):
        GroupMap(g, g.inverses, AUTOMORPHISM)
    with pytest.raises(GroupError, match="anti-automorphism law"):
        GroupMap(g, tuple(g.elements()), ANTI_AUTOMORPHISM)
    with pytest.raises(GroupError, match="kind"):
        GroupMap(g, tuple(g.elements()), "homomorphism")
    with pytest.raises(GroupError):
        anti_from_auto(inversion_map(g))
    with pytest.raises(GroupError):
        auto_from_anti(identity_map(g))


@pytest.mark.parametrize("images", [
    (0, 1, 2, 3, 4, 5, 5), (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4),
    (0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 4, -1), (0, 1, 2, 3, 4, 5.5),
    (0, 5, 2, 3, 4, 5), (), ("0", "1", "2", "3", "4", "5"),
    ([0], [1], [2], [3], [4], [5]),
])
def test_images_that_are_no_permutation_are_named(images):
    # Entries must be n elements covering all of G, so a longer array
    # that covers G is refused like a shorter one, before any law check.
    with pytest.raises(GroupError, match="images are not a permutation"):
        GroupMap(build_family("S3"), images, AUTOMORPHISM)


def test_law_checked_once_per_distinct_map(monkeypatch):
    for cached in (enumerate_automorphisms, enumerate_anti_automorphisms):
        cached.cache_clear()
    seen = []
    original = GroupMap.__post_init__

    def counting(self):
        seen.append((self.group, self.images, self.kind))
        original(self)

    monkeypatch.setattr(GroupMap, "__post_init__", counting)
    findings = list(search_chiral(rank=2, max_len=4, max_order=8, full=True))
    for f in findings:
        assert replay(f.to_record())[0]
    checks = len(seen)
    assert checks == len(set(seen))
    # Only the stabiliser chain's strong generators of each scanned
    # (non-abelian) group are checked: the search and replay read the
    # Aut(G)-orbits from them and build no other automorphism.
    scanned = {spec: g for spec, g in catalog_groups(8) if not g.is_abelian}
    assert {f.group_spec for f in findings} == set(scanned)
    assert checks == sum(len(_stabiliser_chain(g)[0])
                         for g in scanned.values())

"""Automorphism and isomorphism search against a plain reference.

The reference is the search without its pruning: generators taken in
index order, images filtered by element order only, and every candidate
map checked on all |G|^2 products. The library chooses generators by how
much they grow the subgroup, draws images only from elements of the same
order and class size, and checks the law of each result on its
generators; the sorted image arrays must not change.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chiralwords import groups
from chiralwords.catalog import catalog_specs
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    CapExceededError,
    FiniteGroup,
    GroupError,
    GroupMap,
    anti_from_auto,
    enumerate_automorphisms,
    from_cayley_document,
    is_isomorphic,
    parse_group_spec,
)


def generated(g: FiniteGroup, gens) -> set:
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [g.mul(x, a) for x in frontier for a in gens]
        frontier = [y for y in set(frontier) if y not in seen]
        seen.update(frontier)
    return seen


def extend(g: FiniteGroup, h: FiniteGroup, gens, chosen):
    """The map <gens> -> h sending gens to chosen, grown by right
    multiplication; None on a conflict or a repeated image."""
    images, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for a, c in zip(gens, chosen):
                y, fy = g.mul(x, a), h.mul(images[x], c)
                if y in images:
                    if images[y] != fy:
                        return None
                elif fy in images.values():
                    return None
                else:
                    images[y] = fy
                    nxt.append(y)
        frontier = nxt
    return images


def reference_isomorphisms(g: FiniteGroup, h: FiniteGroup):
    """Every isomorphism g -> h as an image array, sorted."""
    gens = []
    for a in g.elements():
        if a not in generated(g, gens):
            gens.append(a)
    g_orders, h_orders = g.element_orders, h.element_orders
    found = []

    def rec(chosen):
        images = extend(g, h, gens[:len(chosen)], chosen)
        if images is None:
            return
        if len(chosen) < len(gens):
            target = g_orders[gens[len(chosen)]]
            for c in h.elements():
                if h_orders[c] == target:
                    rec(chosen + [c])
        elif len(images) == g.order:
            arr = tuple(images[x] for x in g.elements())
            assert all(arr[g.mul(a, b)] == h.mul(arr[a], arr[b])
                       for a in g.elements() for b in g.elements())
            found.append(arr)

    rec([])
    return sorted(found)


def relabelled(g: FiniteGroup, seed: int) -> FiniteGroup:
    """A Cayley-file copy of g with its non-identity elements shuffled."""
    rng = random.Random(seed)
    rest = list(range(1, g.order))
    rng.shuffle(rest)
    sigma = [0] + rest
    table = [[0] * g.order for _ in g.elements()]
    for x in g.elements():
        for y in g.elements():
            table[sigma[x]][sigma[y]] = sigma[g.mul(x, y)]
    return from_cayley_document({"order": g.order, "table": table,
                                 "name": f"{g.name}-relabelled"})


SPECS = catalog_specs(32) + ["S3xS3", "S4xC2", "A5"]


@pytest.mark.parametrize("spec", SPECS)
def test_search_matches_the_reference(spec):
    g = parse_group_spec(spec)
    assert ([zeta.images for zeta in enumerate_automorphisms(g)]
            == reference_isomorphisms(g, g))
    h = relabelled(g, seed=len(spec))
    assert (sorted(groups._image_search(g, h))
            == reference_isomorphisms(g, h))


@pytest.mark.parametrize("spec", SPECS)
def test_chain_on_a_relabelled_copy_matches_the_reference(spec):
    # Another element order moves the base and the candidate order, so the
    # orbits are grown and searched from other points.
    h = relabelled(parse_group_spec(spec), seed=len(spec) + 100)
    assert ([zeta.images for zeta in enumerate_automorphisms(h)]
            == reference_isomorphisms(h, h))


@pytest.mark.parametrize("spec", ["A5", "Q8xC2"])
def test_the_chain_searches_once_per_orbit_point(spec, monkeypatch):
    # The full backtrack over generator images grows 385 partial maps on
    # A5 and 337 on Q8xC2; the chain grows 13 and 24.
    calls = []
    extend_map = groups._extend_map
    monkeypatch.setattr(groups, "_extend_map",
                        lambda *args: calls.append(1) or extend_map(*args))
    enumerate_automorphisms.cache_clear()
    enumerate_automorphisms(parse_group_spec(spec))
    assert 0 < len(calls) <= 60


def test_the_enumeration_bound_applies_before_any_map_is_built(monkeypatch):
    # Only the chain's generators are grown to full maps (6 on Q8xC2); a
    # search that counts automorphisms one by one grows 101 to refuse.
    checks, full_maps = [], []
    check, extend_map = GroupMap.__post_init__, groups._extend_map

    def counted_extend_map(g, h, gens, images):
        mapping = extend_map(g, h, gens, images)
        full_maps.append(mapping is not None and len(mapping) == g.order)
        return mapping

    monkeypatch.setattr(groups, "MAX_AUTOMORPHISMS", 100)
    monkeypatch.setattr(groups, "_extend_map", counted_extend_map)
    monkeypatch.setattr(GroupMap, "__post_init__",
                        lambda m: checks.append(1) or check(m))
    enumerate_automorphisms.cache_clear()
    with pytest.raises(CapExceededError, match="Q8xC2 has more than 100 "
                       "automorphisms, the enumeration bound"):
        enumerate_automorphisms(parse_group_spec("Q8xC2"))  # 192 of them
    assert checks == []
    assert sum(full_maps) < 10


@pytest.mark.parametrize("spec, count", [
    ("S4", 24), ("D24", 48), ("A5", 120), ("Q8xC2", 192), ("S3xS3", 72),
    ("S4xC2", 48), ("C2xC2xC2xC2", 20160),
])
def test_known_automorphism_group_orders(spec, count):
    assert len(enumerate_automorphisms(parse_group_spec(spec))) == count


def test_a5_search_uses_two_generators():
    g = parse_group_spec("A5")
    gens = g.search_generators
    assert sorted(g.element_orders[a] for a in gens) == [2, 5]


def test_profiles_reject_before_any_search(monkeypatch):
    def no_search(g, h):
        raise AssertionError("the image search ran")

    monkeypatch.setattr(groups, "_image_search", no_search)
    c4c4, q8c2 = parse_group_spec("C4xC4"), parse_group_spec("Q8xC2")
    assert sorted(c4c4.element_orders) == sorted(q8c2.element_orders)
    assert not is_isomorphic(c4c4, q8c2)


@pytest.mark.parametrize("spec, seed", [("S4xC2", 5), ("A5", 6)])
def test_relabelled_copies_are_isomorphic(spec, seed):
    g = parse_group_spec(spec)
    h = relabelled(g, seed)
    assert h.table != g.table
    assert is_isomorphic(g, h) and is_isomorphic(h, g)
    arr = next(groups._image_search(g, h))
    assert all(arr[g.mul(a, b)] == h.mul(arr[a], arr[b])
               for a in g.elements() for b in g.elements())


# --- the generator law check of GroupMap ------------------------------------

LAW_GROUPS = [parse_group_spec(s) for s in ("S3", "Q8", "D8", "A4", "S4")]


def obeys_law(g: FiniteGroup, images, kind: str) -> bool:
    if kind == AUTOMORPHISM:
        return all(images[g.mul(a, b)] == g.mul(images[a], images[b])
                   for a in g.elements() for b in g.elements())
    return all(images[g.mul(a, b)] == g.mul(images[b], images[a])
               for a in g.elements() for b in g.elements())


@st.composite
def candidate_maps(draw):
    """A random bijection fixing 0, or a real (anti-)automorphism with two
    images swapped, or with the images of one coset y<c> moved by f(c).
    The last obeys the law at c (f(z·c) = f(z)·f(c), or f(c)·f(z), for all
    z) but rarely elsewhere, so the law check must try every generator."""
    g = draw(st.sampled_from(LAW_GROUPS))
    shape = draw(st.sampled_from(["bijection", "swap", "coset"]))
    if shape == "bijection":
        images = (0,) + tuple(draw(st.permutations(range(1, g.order))))
    else:
        zeta = draw(st.sampled_from(enumerate_automorphisms(g)))
        real = anti_from_auto(zeta) if draw(st.booleans()) else zeta
        images = list(real.images)
        if shape == "swap":
            i, j = (draw(st.integers(1, g.order - 1)) for _ in range(2))
            images[i], images[j] = images[j], images[i]
        else:
            c = draw(st.integers(1, g.order - 1))
            cyclic = generated(g, [c])
            y = draw(st.sampled_from(sorted(set(g.elements()) - cyclic)))
            fc, anti = images[c], real.kind == ANTI_AUTOMORPHISM
            for z in {g.mul(y, k) for k in cyclic}:
                fz = real.images[z]
                images[z] = g.mul(fc, fz) if anti else g.mul(fz, fc)
        images = tuple(images)
    kind = draw(st.sampled_from([AUTOMORPHISM, ANTI_AUTOMORPHISM]))
    return g, images, kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(candidate_maps())
def test_generator_law_check_matches_the_full_check(case):
    g, images, kind = case
    try:
        GroupMap(g, images, kind)
        accepted = True
    except GroupError as exc:
        assert "law" in str(exc)
        accepted = False
    assert accepted == obeys_law(g, images, kind)

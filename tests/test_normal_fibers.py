"""Fiber counts over an abelian normal subgroup A.

With t_i = a_i s_i (a_i in A, s_i in a transversal T), w(t) = phi_s(a) w(s)
for a homomorphism phi_s: A^k -> A, so `engine._normal_scan` evaluates one
tuple per coset of A^k and reads each coset's fibers off the subgroup
phi_s(A^k). `engine.image` takes it where its cost estimate beats the class
scan; `naive_image` stays the oracle for both paths. C7:C9 (b a b^-1 =
a^2, order 63) carries the first real chiral and weakly chiral pairs.
"""

import json
import random

import pytest

from chiralwords import engine
from chiralwords.catalog import catalog_groups, catalog_specs
from chiralwords.engine import image, naive_image, pair_verdicts, scan_tables
from chiralwords.groups import (
    conjugacy_classes,
    enumerate_anti_automorphisms,
    from_cayley_document,
    is_abelian,
    parse_group_spec,
)
from chiralwords.words import canonical_words, parse_word

CAP = 30000
NONABELIAN = [(spec, g) for spec, g in catalog_groups(32)
              if not is_abelian(g)]
RANK3 = ["x1 x2 x3", "x1^2 x3^-1 x2 x1", "x1 x2 x3 x1^-1 x2^-1 x3^-1",
         "x3^2 x1^-3 x2"]


def relabelled(g, seed):
    """A Cayley-document copy of g with its elements shuffled by seed."""
    perm = list(g.elements())
    random.Random(seed).shuffle(perm)
    table = [[0] * g.order for _ in g.elements()]
    for a in g.elements():
        for b in g.elements():
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return from_cayley_document({"name": g.name, "order": g.order,
                                 "table": table})


def metacyclic_c7_c9():
    """C7:C9 from (i, j)(k, l) = (i + k 2^j mod 7, j + l mod 9)."""
    pairs = [(i, j) for j in range(9) for i in range(7)]
    index = {p: x for x, p in enumerate(pairs)}
    table = [[index[(i + k * 2 ** j) % 7, (j + l) % 9] for k, l in pairs]
             for i, j in pairs]
    return from_cayley_document({"name": "C7:C9", "order": 63,
                                 "table": table})


C7_C9 = metacyclic_c7_c9()
GROUPS = NONABELIAN + [("@D24", relabelled(parse_group_spec("D24"), 24)),
                       ("C7:C9", C7_C9)]


def cases(g):
    """Rank-2 canonical words at arity 2 and 3, and RANK3 at arity 3, on
    at most CAP tuples."""
    for w in canonical_words(2, 4):
        for arity in (2, 3):
            if w.syllables and g.order ** arity <= CAP:
                yield w, arity
    if g.order ** 3 <= CAP:
        for text in RANK3:
            yield parse_word(text, 3), 3


@pytest.mark.parametrize("spec,g", GROUPS, ids=[s for s, _ in GROUPS])
def test_both_scans_match_naive(spec, g):
    tables = scan_tables(g)
    n = 0
    for w, arity in cases(g):
        _, ref = naive_image(g, w, arity)
        read = sorted({gen for gen, _ in w.syllables})
        scale = g.order ** (arity - len(read))
        assert image(g, w, arity, want_fibers=True)[1] == ref, (w, arity)
        # A word reading one coordinate takes the power-table closed form,
        # so only words reading two or more reach the scans.
        for scan in (engine._normal_scan, engine._class_scan):
            if len(read) >= 2:
                counts = [c * scale for c in scan(tables, w, read)]
                assert tuple(counts) == ref.counts, (scan.__name__, w, arity)
        n += 1
    assert n >= 17  # each nonidentity canonical word of rank 2, length <= 4


@pytest.fixture
def no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("a word reading one coordinate was scanned")

    for name in ("_normal_scan", "_class_scan"):
        monkeypatch.setattr(engine, name, refuse)


def assert_powers_match_naive(g):
    """x1^e for e = +-1..+-13 at arity 1 and 2, within 4,000 tuples: a power
    map, whose fibers `image` reads off one power table on any group."""
    cases = 0
    for e in (sign * k for k in range(1, 14) for sign in (1, -1)):
        w = parse_word(f"x1^{e}", 1)
        for arity in (1, 2):
            if g.order ** arity <= 4000:
                assert image(g, w, arity, want_fibers=True) == \
                    naive_image(g, w, arity), (g.name, e, arity)
                cases += 1
    assert cases == 52


@pytest.mark.parametrize("spec", catalog_specs(60))
def test_one_coordinate_words_take_the_power_table(spec, no_scan):
    assert_powers_match_naive(parse_group_spec(spec))


def test_one_coordinate_words_on_c7_c9_and_a_relabelled_s4_file(tmp_path,
                                                                no_scan):
    s4 = relabelled(parse_group_spec("S4"), 4)
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"name": "S4", "order": s4.order,
                                "table": [list(row) for row in s4.table]}))
    s4_file = parse_group_spec(f"@{path}")
    assert s4_file.table != parse_group_spec("S4").table
    for g in (C7_C9, s4_file):
        assert_powers_match_naive(g)


@pytest.mark.parametrize("spec,g", GROUPS, ids=[s for s, _ in GROUPS])
def test_the_subgroup_is_abelian_normal_and_its_cosets_tile_g(spec, g):
    a_group = scan_tables(g).normal
    members = set(a_group.members)
    table = g.table
    assert {table[x][y] for x in members for y in members} == members
    assert all(table[x][y] == table[y][x] for x in members for y in members)
    for cls in conjugacy_classes(g):
        assert set(cls) <= members or not set(cls) & members, cls
    assert a_group.in_a == tuple(x in members for x in g.elements())
    assert set(a_group.gens) <= members
    transversal = a_group.transversal
    assert len(transversal) * len(members) == g.order
    cosets = [{table[a][t] for a in members} for t in transversal]
    assert set().union(*cosets) == set(g.elements())


def test_routing(monkeypatch):
    taken = []
    for name in ("_normal_scan", "_class_scan"):
        def spy(tables, *args, scan=getattr(engine, name), name=name):
            taken.append((tables.group.name, name))
            return scan(tables, *args)
        monkeypatch.setattr(engine, name, spy)

    def path(g, rank):
        taken.clear()
        image(g, parse_word({2: "x1^2 x2 x1^-1 x2^3",
                             3: "x1^2 x2 x1^-1 x3^2"}[rank], rank))
        [(group, name)] = taken
        assert group == g.name
        return name

    dihedral = [g for spec, g in NONABELIAN if spec[0] == "D"]
    assert len(dihedral) == 10
    for g in dihedral + [parse_group_spec("Q8"), C7_C9,
                         relabelled(parse_group_spec("D128"), 128)]:
        assert path(g, 2) == "_normal_scan", g.name
    for spec in ("S4", "A5", "A4"):
        assert path(parse_group_spec(spec), 2) == "_class_scan", spec
    assert path(parse_group_spec("A4"), 3) == "_normal_scan"
    assert path(parse_group_spec("S4"), 3) == "_class_scan"


CHIRAL = "x1^-12 x2 x1^3 x2^2"
HIGHLIGHTED = "x1^4 x2 x1^-1 x2^2"


@pytest.mark.parametrize("text, chiral, weakly_chiral, size", [
    (CHIRAL, True, True, 15),
    (HIGHLIGHTED, False, True, None),
])
def test_real_positive_verdicts_on_c7_c9(text, chiral, weakly_chiral, size):
    g = C7_C9
    w = parse_word(text, 2)
    v = pair_verdicts(g, w)
    assert (v.image, v.fibers) == naive_image(g, w)
    assert (v.chiral, v.weakly_chiral) == (chiral, weakly_chiral)
    if size is not None:
        assert v.image.size == size
    inverses = {g.inv(x) for x in v.image.member_indices}
    assert (inverses != set(v.image.member_indices)) == chiral
    gammas = enumerate_anti_automorphisms(g)
    assert len(gammas) == 126
    inversion = (v.chiral, v.weak_witness)
    # The orbit check and each gamma's own pull-back give the same answer:
    # inversion's, as Theorem 2 says.
    for verdicts in (v.against(gammas), v.against(list(gammas))):
        assert [(r.chiral, r.weak_witness is not None) for r in verdicts] \
            == [(chiral, weakly_chiral)] * 126
    assert v.against(gammas)[0] == inversion


def test_subgroup_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(engine, "SUBGROUP_CACHE_SIZE", 4)
    g = parse_group_spec("D24")
    tables = scan_tables(g)
    tables.subgroups.clear()
    rng = random.Random(12)
    seen = set()
    for _ in range(40):
        w = parse_word(" ".join(f"x{i}^{rng.randint(1, 11)}"
                                for i in (1, 2, 1, 2)), 2)
        assert image(g, w, want_fibers=True) == naive_image(g, w)
        assert len(tables.subgroups) <= 4
        seen |= set(tables.subgroups)
    assert len(seen) > 4

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

from chiralwords import engine, verify
from chiralwords.catalog import catalog_groups, catalog_specs
from chiralwords.engine import image, naive_image, pair_verdicts
from chiralwords.groups import (
    enumerate_anti_automorphisms,
    from_cayley_document,
    parse_group_spec,
)
from chiralwords.cli import main
from chiralwords.verify import Bounds
from chiralwords.words import Word, canonical_words, parse_word, render_word

from conftest import metacyclic_c7_c9

CAP = 30000
NONABELIAN = [(spec, g) for spec, g in catalog_groups(32)
              if not g.is_abelian]
RANK3 = ["x1 x2 x3", "x1^2 x3^-1 x2 x1", "x1 x2 x3 x1^-1 x2^-1 x3^-1",
         "x3^2 x1^-3 x2"]
RANK4 = "x1^2 x3^-1 x2 x4 x1 x3^2 x4^-1"


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


C7_C9 = metacyclic_c7_c9()
GROUPS = NONABELIAN + [("@D24", relabelled(parse_group_spec("D24"), 24)),
                       ("C7:C9", C7_C9)]


def cases(g):
    """Rank-2 canonical words at rank 2 and 3, and RANK3 at rank 3, on
    at most CAP tuples."""
    for w in canonical_words(2, 4):
        for arity in (2, 3):
            if w.syllables and g.order ** arity <= CAP:
                yield Word(arity, w.syllables)
    if g.order ** 3 <= CAP:
        for text in RANK3:
            yield parse_word(text, 3)


@pytest.mark.parametrize("spec,g", GROUPS, ids=[s for s, _ in GROUPS])
def test_both_scans_match_naive(spec, g):
    n = 0
    for w in cases(g):
        _, ref = naive_image(g, w)
        read = sorted({gen for gen, _ in w.syllables})
        scale = g.order ** (w.rank - len(read))
        assert image(g, w, want_fibers=True)[1] == ref, w
        # A word reading one coordinate takes the power-table closed form,
        # so only words reading two or more reach the scans.
        for scan in (engine._normal_scan, engine._class_scan):
            if len(read) >= 2:
                counts = [c * scale for c in scan(g, w, read)]
                assert tuple(counts) == ref.counts, (scan.__name__, w)
        n += 1
    assert n >= 17  # each nonidentity canonical word of rank 2, length <= 4
    if spec in ("A4", "Q8"):  # no route gives the class scan 4 coordinates
        w = parse_word(RANK4, 4)
        _, ref = naive_image(g, w)
        assert tuple(engine._class_scan(g, w, [1, 2, 3, 4])) == ref.counts


@pytest.fixture
def no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("a word reading one coordinate was scanned")

    for name in ("_normal_scan", "_class_scan"):
        monkeypatch.setattr(engine, name, refuse)


def assert_powers_match_naive(g):
    """x1^e for e = +-1..+-13 at rank 1 and 2, within 4,000 tuples: a power
    map, whose fibers `image` reads off one power table on any group."""
    cases = 0
    for e in (sign * k for k in range(1, 14) for sign in (1, -1)):
        for arity in (1, 2):
            w = parse_word(f"x1^{e}", arity)
            if g.order ** arity <= 4000:
                assert image(g, w, want_fibers=True) == \
                    naive_image(g, w), (g.name, e, arity)
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
    a_group = g.abelian_normal
    members = set(a_group.members)
    table = g.table
    assert {table[x][y] for x in members for y in members} == members
    assert all(table[x][y] == table[y][x] for x in members for y in members)
    for cls in g.conjugacy_classes:
        assert set(cls) <= members or not set(cls) & members, cls
    assert a_group.in_a == tuple(x in members for x in g.elements())
    assert set(a_group.gens) <= members
    transversal = a_group.transversal
    assert len(transversal) * len(members) == g.order
    cosets = [{table[a][t] for a in members} for t in transversal]
    assert set().union(*cosets) == set(g.elements())


def test_routing(monkeypatch, tmp_path):
    taken, widths = [], []  # (group, scan) and len(read) of each scan
    for name in ("_normal_scan", "_class_scan"):
        def spy(g, w, read, scan=getattr(engine, name), name=name):
            taken.append((g.name, name))
            widths.append(len(read))
            return scan(g, w, read)
        monkeypatch.setattr(engine, name, spy)

    def path(g, rank):
        taken.clear()
        widths.clear()
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
    assert widths == [3]
    assert path(parse_group_spec("S4"), 3) == "_class_scan"
    # x2 and x3 occur once at rank 3: x2 is removed, and "x1 x3^2" is
    # scanned over 2 coordinates. A word whose generators all repeat keeps
    # the 3-coordinate class scan.
    for spec in ("S4", "A5"):
        g = parse_group_spec(spec)
        assert path(g, 3) == "_class_scan" and widths == [2], spec
        taken.clear()
        widths.clear()
        image(g, parse_word("x1 x2 x3 x1^-1 x2^-1 x3^-1", 3))
        assert taken == [(g.name, "_class_scan")] and widths == [3], spec
    # Every nonabelian group of order <= 16 takes the scan over A at ranks 3
    # and 4 (a product on its nonabelian factor), so the class scan never
    # reads 3 or more coordinates of a group that small. A relabelled file
    # of Q8xC2 keeps no factors and is scanned whole.
    q8c2 = relabelled(parse_group_spec("Q8xC2"), 16)
    doc = tmp_path / "q8c2.json"
    doc.write_text(json.dumps({"name": "Q8xC2", "order": 16, "table": [
        list(row) for row in q8c2.table]}))
    q8c2_file = parse_group_spec(f"@{doc}")
    assert q8c2_file.factors is None
    small = [g for _, g in catalog_groups(16) if not g.is_abelian]
    assert len(small) == 10
    for g in small + [q8c2_file]:
        for rank in (3, 4):
            taken.clear()
            widths.clear()
            image(g, parse_word(" ".join(
                [f"x{i}" for i in range(1, rank + 1)]
                + [f"x{i}^-1" for i in range(1, rank + 1)]), rank))
            assert [name for _, name in taken] == ["_normal_scan"], g.name
            assert widths == [rank], g.name
    assert taken == [(q8c2_file.name, "_normal_scan")]


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


@pytest.mark.parametrize("text", [CHIRAL, HIGHLIGHTED])
def test_real_positives_through_the_cli(text, tmp_path, capsys):
    g = C7_C9
    path = tmp_path / "c7_c9.json"
    path.write_text(json.dumps({"name": g.name, "order": g.order, "table": [
        list(row) for row in g.table]}))
    img, fibers = naive_image(g, parse_word(text, 2))
    members, counts = img.members, list(fibers.counts)
    flipped = [x for x in img.member_indices if not members[g.inv(x)]]
    uneven = [x for x in g.elements() if counts[x] != counts[g.inv(x)]]
    # Each gamma's verdicts, scattered forward through its own images:
    # gamma(G_w), and N_{w_gamma}(gamma(x)) = N_w(x).
    chiral, weak = [], []
    for gamma in enumerate_anti_automorphisms(g):
        moved, twisted = [False] * g.order, [0] * g.order
        for x, y in enumerate(gamma.images):
            moved[y], twisted[y] = members[x], counts[x]
        chiral.append(tuple(moved) != members)
        weak.append(twisted != counts)
    assert len(chiral) == 126
    for command, key, witness_key, witness, verdicts in (
            ("chiral", "chiral", "chiral_witness", flipped, chiral),
            ("weak-chiral", "weakly_chiral", "weak_witness", uneven, weak)):
        assert main([command, "--group", f"@{path}", "--word", text,
                     "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["group"], doc["order"]) == ("C7:C9", 63)
        assert doc["members"] == list(img.member_indices)
        assert doc["counts"] == (counts if key == "weakly_chiral" else None)
        assert doc[key] == bool(witness)
        assert doc[witness_key] == min(witness, default=None)
        assert doc["gamma_results"] == [{"gamma_index": i, key: verdict}
                                        for i, verdict in enumerate(verdicts)]
        assert doc["all_gammas_agree"] == (set(verdicts) == {doc[key]})


def test_theorem_2_and_the_remark_hold_on_the_real_positives():
    bounds = Bounds()
    words = [parse_word(CHIRAL, 2), parse_word(HIGHLIGHTED, 2)]
    scan = verify._Scans(bounds.budget)
    for name, per_pair in (("thm2", 126), ("remark", 127)):
        check = verify._SUITES[name](bounds, words, scan)
        report = verify.VerificationReport(name, bounds)
        for w in words:
            before = report.cases
            check(report, {"group": "C7:C9", "word": render_word(w)}, C7_C9, w)
            assert report.cases - before == per_pair, name
        assert report.failures == [], name


def test_subgroup_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(engine, "SUBGROUP_CACHE_SIZE", 4)
    g = parse_group_spec("D24")
    subgroups = g.abelian_normal.subgroups
    subgroups.clear()
    rng = random.Random(12)
    seen = set()
    for _ in range(40):
        w = parse_word(" ".join(f"x{i}^{rng.randint(1, 11)}"
                                for i in (1, 2, 1, 2)), 2)
        assert image(g, w, want_fibers=True) == naive_image(g, w)
        assert len(subgroups) <= 4
        seen |= set(subgroups)
    assert len(seen) > 4

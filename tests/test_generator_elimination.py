"""Fiber counts by a cyclic split into blocks that share no generator.

If a rotation of w is u v, with no generator read by both u and v, then
`engine._split` counts w as N_w(x) = sum_z N_u(z) N_v(x z^-1) / |G|^d. It
takes the shortest block v, so a generator in one syllable, w = A x_i^e B,
gives v = x_i^e, whose counts are the counts R_e of e-th roots scaled by
|G|^(d-1), and u = AB over one coordinate fewer. `naive_image` stays the
oracle, and Mednykh's closed form for the identity's fiber under a product
of commutators is a second one. On S4 and A5 every class is closed under
inversion, so a slip between z and z^-1 cannot show there; C7:C9 has
classes that are not, and words whose blocks are chiral, so it can. A
split word's image is the product G_u G_v of two normal subsets, so it is
chiral (weakly chiral) only if u or v is.
"""

import json
import random
from fractions import Fraction

import pytest

from chiralwords import engine
from chiralwords.engine import (DEFAULT_BUDGET, image, naive_image,
                               pair_verdicts)
from chiralwords.groups import parse_group_spec
from chiralwords.words import parse_word

from conftest import metacyclic_c7_c9
from test_normal_fibers import CHIRAL, HIGHLIGHTED

# Rank-3 words with a generator in one syllable: at the start, in the
# middle and at the end, with exponents +-1, 2, 3 and -4; one whose AB
# cancels to the identity, one whose AB reads one coordinate, and one with
# two such generators, so that AB is eliminated again.
ONCE = [
    "x3 x1 x2 x1^-1 x2",
    "x1^2 x2 x1^-1 x3^2",
    "x1 x2^-1 x1 x3^3 x2^2",
    "x1 x2 x3^-4 x2^-1 x1^2",
    "x1 x2 x3 x2^-1 x1^-1",
    "x1 x2 x1^-1 x3^2",
    "x2^3 x1 x3^-1 x2",
]
# Every generator in two syllables or more: the class scan takes these.
REPEATED = ["x1 x2 x3 x1^-1 x2^-1 x3^-1", "x1^2 x2 x3 x1 x2^-1 x3^2"]
# AB is "x1^-12 x2 x1^3 x2^2", a chiral word on C7:C9: N_AB(z) differs from
# N_AB(z^-1), so mixing z with z^-1 changes the counts. An exponent e prime
# to |G| = 63 makes y -> y^e a bijection and R_e constant, which hides any
# such slip, so each e here shares a factor with 63.
C7_C9_WORDS = [
    "x1^-12 x2 x1^3 x2^2 x3^3",
    "x3^-3 x1^-12 x2 x1^3 x2^2",
    "x1^-12 x2 x3^9 x1^3 x2^2",
    "x1^-12 x3^-3 x2 x1^3 x2^2",
    "x1^-12 x2 x1^3 x3^-6 x2^2",
]


def splits(monkeypatch):
    """The words `_split` is called on, as (word, answered) pairs."""
    seen = []

    def spy(g, w, budget, split=engine._split):
        counts = split(g, w, budget)
        seen.append((w, counts is not None))
        return counts

    monkeypatch.setattr(engine, "_split", spy)
    return seen


def assert_matches_naive(g, w):
    img, fibers = image(g, w, want_fibers=True)
    assert (img, fibers) == naive_image(g, w), (g.name, w)


@pytest.mark.parametrize("spec, texts", [("S4", ONCE), ("A5", ONCE[:5])])
def test_rank_3_matches_naive(spec, texts, monkeypatch):
    g = parse_group_spec(spec)
    seen = splits(monkeypatch)
    for text in texts:
        w = parse_word(text, 3)
        reduced, read, _ = w.scan_plan()
        seen.clear()
        assert_matches_naive(g, w)
        # Every route reads the cyclic reduction; x1 x2 x3 x2^-1 x1^-1
        # reduces to x3, which takes the closed form instead.
        expected = [(reduced, True)] if len(read) >= 3 else []
        assert seen[:1] == expected, text


def test_rank_4_eliminates_twice(monkeypatch):
    g = parse_group_spec("S4")
    seen = splits(monkeypatch)
    assert_matches_naive(g, parse_word("x1 x2 x3 x4^2 x1^-1 x3", 4))
    assert seen == [(parse_word("x1 x3 x4^2 x1^-1 x3", 4), True),
                    (parse_word("x1 x2 x3 x4^2 x1^-1 x3", 4), True)]


@pytest.mark.parametrize("text", C7_C9_WORDS)
def test_classes_not_closed_under_inversion(text):
    g = metacyclic_c7_c9()
    assert any(sorted(map(g.inv, cls)) != list(cls)
               for cls in g.conjugacy_classes)
    w = parse_word(text, 3)
    # The normal scan wins on C7:C9, so the helper is called directly.
    counts = engine._split(g, w, DEFAULT_BUDGET)
    assert tuple(counts) == naive_image(g, w)[1].counts, text


def test_relabelled_file_group(tmp_path):
    s4 = parse_group_spec("S4")
    perm = list(s4.elements())
    random.Random(23).shuffle(perm)
    table = [[0] * s4.order for _ in s4.elements()]
    for a in s4.elements():
        for b in s4.elements():
            table[perm[a]][perm[b]] = perm[s4.mul(a, b)]
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"order": 24, "table": table}))
    g = parse_group_spec(f"@{path}")
    assert g.factors is None and g.table != s4.table
    for text in ONCE[:4]:
        assert_matches_naive(g, parse_word(text, 3))


@pytest.mark.parametrize("spec", ["S4", "A5"])
def test_repeated_generators_are_not_eliminated(spec, monkeypatch):
    g = parse_group_spec(spec)
    seen = splits(monkeypatch)
    for text in REPEATED[:1 if spec == "A5" else None]:
        w = parse_word(text, 3)
        seen.clear()
        assert_matches_naive(g, w)
        assert seen == [(w, False)], text


# --- blocks of more than one generator ----------------------------------

COMMUTATORS = {1: ("x1 x2 x1^-1 x2^-1", 2),
               2: ("x1 x2 x1^-1 x2^-1 x3 x4 x3^-1 x4^-1", 4)}
# The degrees of the irreducible characters, pinned here.
DEGREES = {"A5": (1, 3, 3, 4, 5), "S4": (1, 1, 2, 3, 3),
           "D8": (1, 1, 1, 1, 2), "Q8xC2": (1,) * 8 + (2, 2)}


def class_scan_widths(monkeypatch):
    """How many coordinates each class scan reads."""
    widths = []

    def spy(g, w, read, scan=engine._class_scan):
        widths.append(len(read))
        return scan(g, w, read)

    monkeypatch.setattr(engine, "_class_scan", spy)
    return widths


@pytest.mark.parametrize("spec", sorted(DEGREES))
@pytest.mark.parametrize("genus", sorted(COMMUTATORS))
def test_identity_fiber_of_commutator_products_is_mednykhs(spec, genus):
    # Mednykh (1978): [x1, x2]...[x_2g-1, x_2g] = e has
    # |G|^(2g-1) sum_chi chi(1)^(2-2g) solutions in G^2g.
    g = parse_group_spec(spec)
    degrees = DEGREES[spec]
    assert sum(d * d for d in degrees) == g.order
    assert len(degrees) == len(g.conjugacy_classes)
    expected = g.order ** (2 * genus - 1) * sum(
        Fraction(1, d ** (2 * genus - 2)) for d in degrees)
    text, rank = COMMUTATORS[genus]
    counts = image(g, parse_word(text, rank), want_fibers=True)[1].counts
    assert counts[0] == expected


def test_commutator_product_on_a5_scans_no_four_coordinates(monkeypatch):
    g = parse_group_spec("A5")
    seen, widths = splits(monkeypatch), class_scan_widths(monkeypatch)
    w = parse_word(COMMUTATORS[2][0], 4)
    counts = image(g, w, want_fibers=True)[1].counts
    assert counts[0] == 286140 and sum(counts) == 60 ** 4
    assert seen == [(w, True)]
    assert widths == [2, 2]  # [x3, x4] and [x1, x2], never G^4


# Rank-4 words whose generators all repeat: the shortest block has two
# generators. In the last, the block x3 x4 x3^-1 x4 wraps around the end.
LONGER = ["x1 x2 x1^-1 x2^-1 x3 x4 x3^-1 x4^-1",
          "x1 x2 x1 x2^-1 x3 x4 x3 x4^-1",
          "x4 x3^-1 x4 x1 x2 x1^-1 x2^-1 x1 x2 x3"]


@pytest.mark.parametrize("text", LONGER)
def test_longer_block_splits_match_naive_on_s4(text, monkeypatch):
    g = parse_group_spec("S4")
    seen, widths = splits(monkeypatch), class_scan_widths(monkeypatch)
    w = parse_word(text, 4)
    assert_matches_naive(g, w)
    assert seen == [(w, True)] and widths == [2, 2]


def test_a_wrapping_block_leaves_the_middle_as_the_rest(monkeypatch):
    g = parse_group_spec("S4")
    blocks = []

    def spy(g, w, budget, counts=engine._fiber_counts):
        blocks.append(w)
        return counts(g, w, budget)

    monkeypatch.setattr(engine, "_fiber_counts", spy)
    image(g, parse_word(LONGER[2], 4))
    assert blocks[1:] == [parse_word("x1 x2 x1^-1 x2^-1 x1 x2", 4),
                          parse_word("x3 x4 x3^-1 x4", 4)]


def shifted(text):
    """The rank-2 word on x3 and x4 in place of x1 and x2."""
    return text.replace("x1", "x3").replace("x2", "x4")


# u(x1, x2) v(x3, x4) with a chiral block. C7:C9's classes are not all
# closed under inversion, so mixing z with z^-1 in the convolution shows.
# In the last, the block is CHIRAL on x3 and x4, wrapped around the end.
C7_C9_SPLITS = [CHIRAL + " " + shifted(HIGHLIGHTED),
                HIGHLIGHTED + " " + shifted(CHIRAL),
                "x3^3 x4^2 x1^4 x2 x1^-1 x2^2 x1^2 x3^-12 x4"]


@pytest.mark.parametrize("text", C7_C9_SPLITS)
def test_split_on_c7_c9_keeps_z_apart_from_z_inverse(text):
    g = metacyclic_c7_c9()
    assert any(sorted(map(g.inv, cls)) != list(cls)
               for cls in g.conjugacy_classes)
    w = parse_word(text, 4)
    # The normal scan wins on C7:C9, so the helper is called directly.
    counts = engine._split(g, w, DEFAULT_BUDGET)
    assert tuple(counts) == image(g, w, want_fibers=True)[1].counts, text


def test_a_split_word_is_chiral_only_if_a_block_is():
    g = metacyclic_c7_c9()
    # x1^9 lies in the normal C7, and x2^3 acts on it by 2^3 = 1 mod 7, so
    # the fourth word is a law: G_v = {e}. Only such a v keeps CHIRAL's
    # product chiral.
    blocks = [CHIRAL, HIGHLIGHTED, "x1 x2 x1^-1 x2^-1",
              "x1^9 x2^3 x1^-9 x2^-3", "x1^3 x2^3"]
    verdicts = {}
    for text in blocks:
        v = pair_verdicts(g, parse_word(text, 2))
        verdicts[text] = (v.chiral, v.weakly_chiral)
    seen = set()
    for u in blocks:
        for v in blocks:
            w = pair_verdicts(g, parse_word(u + " " + shifted(v), 4))
            for kind, holds in enumerate((w.chiral, w.weakly_chiral)):
                assert not holds or verdicts[u][kind] or verdicts[v][kind], \
                    (u, v, kind)
                seen.add((kind, holds))
    # Both verdicts occur both ways, so neither check is vacuous.
    assert seen == {(0, False), (0, True), (1, False), (1, True)}
    # The converse fails: a chiral block times [x3, x4] is not chiral.
    assert not pair_verdicts(g, parse_word(
        CHIRAL + " " + shifted(blocks[2]), 4)).chiral

"""Fiber counts by removing a generator that occurs in one syllable only.

For w = A x_i^e B with A and B free of x_i, `engine._eliminate` takes the
counts of AB, over one coordinate fewer, and convolves them with the
counts R_e of e-th roots: N_w(x) = sum_z N_AB(z) R_e(x z^-1) / |G|.
`naive_image` stays the oracle. On S4 and A5 every class is closed under
inversion, so a slip between z and z^-1 cannot show there; C7:C9 has
classes that are not, and words whose AB is chiral, so it can.
"""

import json
import random

import pytest

from chiralwords import engine
from chiralwords.engine import DEFAULT_BUDGET, image, naive_image
from chiralwords.groups import parse_group_spec
from chiralwords.words import parse_word

from conftest import metacyclic_c7_c9

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


def eliminations(monkeypatch):
    """The words `_eliminate` is called on, as (word, answered) pairs."""
    seen = []

    def spy(g, w, budget, eliminate=engine._eliminate):
        counts = eliminate(g, w, budget)
        seen.append((w, counts is not None))
        return counts

    monkeypatch.setattr(engine, "_eliminate", spy)
    return seen


def assert_matches_naive(g, w):
    img, fibers = image(g, w, want_fibers=True)
    assert (img, fibers) == naive_image(g, w), (g.name, w)


@pytest.mark.parametrize("spec, texts", [("S4", ONCE), ("A5", ONCE[:5])])
def test_rank_3_matches_naive(spec, texts, monkeypatch):
    g = parse_group_spec(spec)
    seen = eliminations(monkeypatch)
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
    seen = eliminations(monkeypatch)
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
    counts = engine._eliminate(g, w, DEFAULT_BUDGET)
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
    seen = eliminations(monkeypatch)
    for text in REPEATED[:1 if spec == "A5" else None]:
        w = parse_word(text, 3)
        seen.clear()
        assert_matches_naive(g, w)
        assert seen == [(w, False)], text

"""Group-independent work done once per word, and its exactness.

`Word.scan_plan` routes every scan on the word's cyclic reduction, which
has the word's fiber counts: u^-1 w u is w's image under an inner
automorphism of F_d, which permutes G^d. `FiniteGroup.root_counts` is the
closed form's table. `random_automorphism` applies each Nielsen move
directly, and must equal the `compose` fold of the same draws, refusals
included. `naive_image` and `compose` are the oracles.
"""

import random
from collections import Counter

import pytest

from chiralwords import engine, words
from chiralwords.catalog import catalog_groups
from chiralwords.engine import image, naive_image
from chiralwords.groups import parse_group_spec
from chiralwords.words import (
    identity_endo,
    invert,
    parse_word,
    random_automorphism,
    reduce_syllables,
)

from conftest import (
    compose,
    metacyclic_c7_c9,
    nielsen_generators,
    random_reduced_word,
)


def conjugate(w, u):
    """The reduced word u^-1 w u."""
    return reduce_syllables(invert(u).syllables + w.syllables + u.syllables,
                            w.rank)


# --- the plan ----------------------------------------------------------------

@pytest.mark.parametrize("text, rank, reduced, read, modulus", [
    ("e", 2, "e", (), 0),
    ("x1^5", 1, "x1^5", (1,), 5),
    ("x1 x2^3 x1^-1", 2, "x2^3", (2,), 3),
    ("x1^-10 x2^-13 x1^2", 2, "x1^-8 x2^-13", (1, 2), 1),
    ("x1 x2 x1^-1 x2^-1", 2, "x1 x2 x1^-1 x2^-1", (1, 2), 0),
    ("x3 x1 x2 x3^-1 x1^2 x3^4", 3, "x3^5 x1 x2 x3^-1 x1^2", (1, 2, 3), 1),
    ("x1 x2 x3 x2^-1 x1^-1", 3, "x3", (3,), 1),
    ("x2^2 x1 x2 x1^-1 x2^-2", 2, "x2", (2,), 1),
    ("x2^6 x1^2 x2^4 x1^-2 x2^-1", 3, "x2^5 x1^2 x2^4 x1^-2", (1, 2), 9),
    ("x1^2 x2^4 x1^-2", 3, "x2^4", (2,), 4),
])
def test_scan_plan_examples(text, rank, reduced, read, modulus):
    w = parse_word(text, rank)
    plan = w.scan_plan()
    assert plan == (parse_word(reduced, rank), read, modulus)
    assert w.scan_plan() is plan  # kept on the word
    assert plan[0].scan_plan() is plan  # the reduction is its own plan


def test_scan_plan_keeps_exponent_sums_and_equality(rng):
    for _ in range(300):
        rank = rng.randint(1, 4)
        w = random_reduced_word(rng, rank, 10)
        reduced = w.scan_plan()[0]
        fresh = reduce_syllables(w.syllables, rank)
        assert w == fresh and hash(w) == hash(fresh)
        sums = Counter()
        for gen, exp in w.syllables:
            sums[gen] += exp
        for gen, exp in reduced.syllables:
            sums[gen] -= exp
        assert not any(sums.values())
        sylls = reduced.syllables
        assert len(sylls) <= 1 or sylls[0][0] != sylls[-1][0]
        assert reduced.length <= w.length


def test_a_conjugate_of_a_power_takes_the_closed_form(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned")

    g = parse_group_spec("D8")
    w = parse_word("x1 x2^3 x1^-1", 2)
    expected = naive_image(g, w)
    monkeypatch.setattr(engine, "_normal_scan", no_scan)
    monkeypatch.setattr(engine, "_class_scan", no_scan)
    img, fibers = image(g, w, want_fibers=True)
    assert (img, fibers) == expected
    assert img.word is w and fibers.word is w  # the caller's word


# --- conjugates against the oracle --------------------------------------------

RANK_2 = ["x2^3", "x1^2 x2^-1 x1 x2", "x1 x2 x1^-1 x2^-1", "x1^3 x2^2"]
# Each reads three coordinates after reduction, x3 in one syllable only.
RANK_3 = ["x1 x2 x1^-1 x3^2", "x1^2 x2 x3^-1 x2^-1"]
CONJUGATORS = ["x1", "x2^-1 x1", "x1^2 x2", "x2 x1^-1 x2"]


def groups_for_conjugates():
    return [parse_group_spec(spec) for spec in ("S4", "A5", "D16", "Q8xC2")] \
        + [metacyclic_c7_c9()]


@pytest.mark.parametrize("g", groups_for_conjugates(), ids=lambda g: g.name)
def test_conjugates_match_naive_and_the_word(g, monkeypatch):
    split = []

    def spy(g, w, budget, split_counts=engine._split):
        split.append(w)
        return split_counts(g, w, budget)

    monkeypatch.setattr(engine, "_split", spy)
    cases = [(text, 2, u) for text in RANK_2 for u in CONJUGATORS]
    cases += [(text, 3, u) for text in RANK_3 for u in CONJUGATORS[:2]]
    for text, rank, u_text in cases:
        w = parse_word(text, rank)
        conj = conjugate(w, parse_word(u_text, rank))
        assert conj != w
        fast = image(g, conj, want_fibers=True)
        assert fast == naive_image(g, conj), (text, u_text)
        assert fast[1].counts == image(g, w, want_fibers=True)[1].counts
    if g.name in ("S4", "A5"):  # the class-scan groups reach `_split`
        assert split


def test_random_conjugates_match_naive(rng):
    specs = ["S3", "D10", "Q8", "A4", "C2xC4", "S3xC2"]
    for _ in range(60):
        g = parse_group_spec(rng.choice(specs))
        rank = rng.randint(1, 3 if g.order <= 12 else 2)
        w = random_reduced_word(rng, rank, 5)
        conj = conjugate(w, random_reduced_word(rng, rank, 3))
        assert image(g, conj, want_fibers=True) == naive_image(g, conj), \
            (g.name, conj)


# --- root counts ---------------------------------------------------------------

@pytest.mark.parametrize("spec", ["C12", "S4", "Q8xC2", "D18", "C2xC2xC2"])
def test_root_counts_match_the_power_table(spec):
    g = parse_group_spec(spec)
    for k in range(-g.exponent - 1, g.exponent + 2):
        roots = g.root_counts(k)
        assert sum(roots) == g.order
        tally = Counter(g.power_table(k))
        assert list(roots) == [tally[x] for x in g.elements()]
        assert g.root_counts(k + g.exponent) is roots
    assert len(g._roots) == g.exponent


def test_root_counts_of_c7_c9():
    g = metacyclic_c7_c9()
    assert g.root_counts(3) == tuple(Counter(g.power_table(3))[x]
                                     for x in g.elements())


# --- an oracle with no scan -------------------------------------------------------

def class_count(g):
    """The number of conjugacy classes, from the table alone."""
    return len({frozenset(g.table[g.table[a][x]][g.inverses[a]]
                          for a in g.elements()) for x in g.elements()})


@pytest.mark.parametrize("text", ["x1 x2 x1^-1 x2^-1", "x2 x1^-1 x2^-1 x1"])
def test_commutator_counts_commuting_pairs(text):
    # [x, y] = e exactly when x and y commute, and the pairs that commute
    # number |G| k(G): the centralisers of a class's members have equal
    # size |G| / |class|, so each class contributes |G|.
    w = parse_word(text, 2)
    groups = catalog_groups(32)
    assert len(groups) == 55
    for spec, g in groups:
        counts = image(g, w, want_fibers=True)[1].counts
        assert counts[0] == g.order * class_count(g), spec
        assert sum(counts) == g.order ** 2, spec


# --- Nielsen moves -------------------------------------------------------------

class Refusal(str):
    """A refusal's message, in place of an endomorphism."""


def folded(rank, length, seed):
    """`compose` folded over the seeded draws of `nielsen_generators`, the
    outcome after each prefix of 0..length draws: an endomorphism, or the
    first refusal's message from the move that raised it on."""
    rng = random.Random(seed)
    gens = nielsen_generators(rank)
    endo = identity_endo(rank)
    out = [endo]
    for _ in range(length):
        if not isinstance(endo, Refusal):
            try:
                endo = compose(endo, rng.choice(gens))
            except ValueError as exc:
                endo = Refusal(exc)
        out.append(endo)
    return out


def direct(rank, length, seed):
    try:
        return random_automorphism(rank, length, seed)
    except ValueError as exc:
        return Refusal(exc)


def assert_same(got, expected, where):
    if isinstance(expected, Refusal):
        assert got == expected, where
        return
    assert not isinstance(got, Refusal), (where, got)
    assert got.images == expected.images, where
    assert got.inverse_images == expected.inverse_images, where


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_random_automorphism_equals_the_compose_fold(rank):
    for seed in range(200):
        for length, expected in enumerate(folded(rank, 12, seed)):
            assert_same(direct(rank, length, seed), expected,
                        (rank, length, seed))


@pytest.mark.parametrize("bound", [2, 5, 12, 20])
def test_refusals_come_at_the_same_move(bound, monkeypatch):
    monkeypatch.setattr(words, "MAX_EXPANSION", bound)
    refused = 0
    for rank in (2, 3):
        for seed in range(40):
            outcomes = folded(rank, 12, seed)
            refused += isinstance(outcomes[-1], Refusal)
            for length, expected in enumerate(outcomes):
                assert_same(direct(rank, length, seed), expected,
                            (bound, rank, length, seed))
    assert refused  # the bound is reached

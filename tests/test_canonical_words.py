"""Canonical words from the greedy normal form, against a brute-force
oracle that tries every signed generator permutation of w and of w^-1.

`canonical_form` must equal the oracle on every reduced word of rank <= 3
and length <= 5, and of rank 4 and length <= 4; `canonical_words` must be
exactly the oracle's fixed points among `enumerate_words`, in order.
`conjugacy_key` must split words exactly as the orbits of their letter-level
cyclic reductions under rotation and signed generator permutations do.
"""

import functools
import itertools
import time
from collections import defaultdict

import pytest

from chiralwords.verify import canonical_words
from chiralwords.words import (
    MAX_WALK_LETTERS,
    Word,
    canonical_form,
    conjugacy_key,
    parse_word,
    reduce_syllables,
)
from conftest import enumerate_words

BOUNDS = {1: 6, 2: 5, 3: 5, 4: 4}


@functools.lru_cache(maxsize=None)
def relabellings(d: int):
    """Every signed generator permutation of F_d as a table from letter
    index to letter index, under x1 < x1^-1 < x2 < x2^-1 < ..."""
    return [tuple(perm[idx // 2] * 2 + ((idx % 2) ^ signs[idx // 2])
                  for idx in range(2 * d))
            for perm in itertools.permutations(range(d))
            for signs in itertools.product((0, 1), repeat=d)]


def oracle_canonical_form(w: Word) -> Word:
    """The least letter tuple over all d!·2^d relabellings of w and w^-1."""
    d = w.rank
    letters = [(g - 1) * 2 + (s < 0) for g, s in w.letters()]
    reversed_neg = [idx ^ 1 for idx in reversed(letters)]  # letters of w^-1
    best = min(tuple(map(table.__getitem__, base))
               for table in relabellings(d)
               for base in (letters, reversed_neg))
    return reduce_syllables([(i // 2 + 1, -1 if i % 2 else 1)
                             for i in best], d)


@pytest.fixture(scope="module")
def oracle_words():
    """rank -> [(word, its oracle canonical form)] for every word up to the
    rank's length bound, in enumeration order."""
    return {rank: [(w, oracle_canonical_form(w))
                   for w in enumerate_words(rank, max_len)]
            for rank, max_len in BOUNDS.items()}


@pytest.mark.parametrize("rank", sorted(BOUNDS))
def test_canonical_form_matches_the_oracle(rank, oracle_words):
    for w, expected in oracle_words[rank]:
        assert canonical_form(w) == expected, w


@pytest.mark.parametrize("rank", sorted(BOUNDS))
def test_canonical_words_are_the_oracle_fixed_points_in_order(
        rank, oracle_words):
    for max_len in range(BOUNDS[rank] + 1):
        expected = [w for w, canon in oracle_words[rank]
                    if canon == w and w.length <= max_len]
        assert canonical_words(rank, max_len) == expected, max_len


def test_negative_max_len_raises():
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        canonical_words(2, -1)


@pytest.mark.parametrize("rank, max_len, count", [
    (2, 8, 883), (3, 6, 332), (4, 5, 95), (2, 10, 7566)])
def test_the_walk_bound_admits_the_lists_in_use(rank, max_len, count):
    assert len(canonical_words(rank, max_len)) == count


@pytest.mark.parametrize("rank, max_len", [
    (2, 11), (1, 1448), (2, 10 ** 9), (1, 10 ** 9), (10 ** 9, 1)])
def test_the_walk_bound_refuses_before_any_word_is_built(rank, max_len):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=(
            f"rank {rank} and length <= {max_len} have more than "
            f"{MAX_WALK_LETTERS} letters; lower --max-len or --rank")):
        canonical_words(rank, max_len)
    assert time.perf_counter() - start < 0.1


def test_a_rank_below_1_is_refused_before_the_walk():
    with pytest.raises(ValueError, match="rank must be positive, got 0"):
        canonical_words(0, 10 ** 9)


def oracle_conjugacy_orbit(w: Word) -> frozenset:
    """Every rotation of w's cyclic reduction, cut one letter at a time from
    both ends, under every signed generator permutation."""
    letters = [(g - 1) * 2 + (s < 0) for g, s in w.letters()]
    while len(letters) > 1 and letters[0] == letters[-1] ^ 1:
        letters = letters[1:-1]
    return frozenset(tuple(map(table.__getitem__, letters[i:] + letters[:i]))
                     for table in relabellings(w.rank)
                     for i in range(max(len(letters), 1)))


@pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 4)])
def test_conjugacy_keys_are_equal_exactly_on_an_orbit(rank, max_len):
    by_key, by_orbit = defaultdict(set), defaultdict(set)
    for w in enumerate_words(rank, max_len):
        key, orbit = conjugacy_key(w), oracle_conjugacy_orbit(w)
        assert key == min(orbit), w
        by_key[key].add(w)
        by_orbit[orbit].add(w)
    assert ({frozenset(c) for c in by_key.values()}
            == {frozenset(c) for c in by_orbit.values()})


def test_the_sweep_words_fall_into_36_classes():
    words = [w for w in canonical_words(2, 6) if len(w.syllables) > 1]
    assert len(words) == 106
    assert len({conjugacy_key(w) for w in words}) == 36


@pytest.mark.parametrize("text, key", [
    ("e", ()), ("x1", (0,)), ("x2^-3", (0, 0, 0)), ("x3^2", (0, 0)),
    ("x2 x1 x2^-1", (0,)), ("x1^-1 x3^4 x1", (0, 0, 0, 0)),
    ("x1 x2 x1^-1 x2^-1", (0, 2, 1, 3))])
def test_the_key_of_a_power_and_its_conjugates(text, key):
    # The identity word and a one-syllable word, conjugated or not, have
    # the key () or x1^|e|; a commutator keeps both generators.
    assert conjugacy_key(parse_word(text, 3)) == key

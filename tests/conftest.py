import itertools
import random

import pytest

from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    GroupError,
    GroupMap,
    from_cayley_document,
)
from chiralwords.words import Word, reduce_syllables


def random_reduced_word(rng: random.Random, rank: int, max_len: int) -> Word:
    """Random reduced word of length <= max_len (may shrink under reduction)."""
    raw = [(rng.randint(1, rank), rng.choice([1, -1]) * rng.randint(1, 2))
           for _ in range(rng.randint(0, max_len))]
    w = reduce_syllables(raw, rank)
    while w.length > max_len:
        w = reduce_syllables(w.syllables[:-1], rank)
    return w


def concat(a: Word, b: Word) -> Word:
    """The reduced product ab of two words of one rank."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    return reduce_syllables(a.syllables + b.syllables, a.rank)


def auto_from_anti(gamma: GroupMap) -> GroupMap:
    """The automorphism x -> gamma(x^-1); inverse of `anti_from_auto`. The
    checked constructor verifies its law."""
    if gamma.kind != ANTI_AUTOMORPHISM:
        raise GroupError("expected an anti-automorphism")
    return GroupMap(gamma.group,
                    tuple(map(gamma.images.__getitem__, gamma.group.inverses)),
                    AUTOMORPHISM)


def brute_force_reduced_words(rank: int, max_len: int) -> set:
    """Generate-and-reduce oracle: reduce every letter string of length <= max_len."""
    letters = [(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    seen = set()
    for length in range(max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            seen.add(reduce_syllables(combo, rank).syllables)
    return seen


def enumerate_words(rank: int, max_len: int):
    """All reduced words of length <= max_len, once each, by length and
    then by letters under x1 < x1^-1 < x2 < x2^-1 < ..."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    level = [()]  # letter 2(i - 1) is x_i, letter 2(i - 1) + 1 is x_i^-1
    for length in range(max_len + 1):
        if length:
            level = [seq + (letter,) for seq in level
                     for letter in range(2 * rank)
                     if not seq or seq[-1] ^ 1 != letter]
        for seq in level:
            yield reduce_syllables([(i // 2 + 1, -1 if i % 2 else 1)
                                    for i in seq], rank)


def metacyclic_c7_c9():
    """C7:C9 from (i, j)(k, l) = (i + k 2^j mod 7, j + l mod 9)."""
    pairs = [(i, j) for j in range(9) for i in range(7)]
    index = {p: x for x, p in enumerate(pairs)}
    table = [[index[(i + k * 2 ** j) % 7, (j + l) % 9] for k, l in pairs]
             for i, j in pairs]
    return from_cayley_document({"name": "C7:C9", "order": 63,
                                 "table": table})


@pytest.fixture
def rng():
    return random.Random(20240817)

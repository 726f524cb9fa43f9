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
from chiralwords.words import (
    FreeGroupEndo,
    Word,
    identity_endo,
    reduce_syllables,
    substitute,
)


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


def inverse_endo(e: FreeGroupEndo) -> FreeGroupEndo:
    """The inverse of an automorphism-witnessed endo: its images and inverse
    images swapped."""
    if e.inverse_images is None:
        raise ValueError("endomorphism carries no invertibility witness")
    return FreeGroupEndo(e.rank, e.inverse_images, e.images)


def compose(e1: FreeGroupEndo, e2: FreeGroupEndo) -> FreeGroupEndo:
    """(e1 . e2)(x) = e1 applied to e2's image of x. Folded over the
    Nielsen moves `random_automorphism` draws, it is that function's oracle.

    Hence substitute(w, compose(e1, e2)) == substitute(substitute(w, e2), e1).
    """
    if e1.rank != e2.rank:
        raise ValueError("rank mismatch")
    images = tuple(substitute(img, e1) for img in e2.images)
    inv_images = None
    if e1.inverse_images is not None and e2.inverse_images is not None:
        e2_inv = inverse_endo(e2)
        inv_images = tuple(substitute(img, e2_inv) for img in e1.inverse_images)
    return FreeGroupEndo(e1.rank, images, inv_images)


def nielsen_generators(rank: int) -> list[FreeGroupEndo]:
    """The standard Nielsen generating set of Aut(F_rank), in the order
    `random_automorphism` draws its moves.

    Adjacent generator swaps, inversion of x1, and (for rank >= 2) the
    transvection x1 -> x1*x2. Each carries its inverse images.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    gens: list[FreeGroupEndo] = []
    base = identity_endo(rank)
    for i in range(1, rank):
        images = list(base.images)
        images[i - 1], images[i] = images[i], images[i - 1]
        swapped = tuple(images)
        gens.append(FreeGroupEndo(rank, swapped, swapped))
    inverted = (Word(rank, ((1, -1),)),) + base.images[1:]
    gens.append(FreeGroupEndo(rank, inverted, inverted))
    if rank >= 2:
        fwd = list(base.images)
        fwd[0] = Word(rank, ((1, 1), (2, 1)))
        bwd = list(base.images)
        bwd[0] = Word(rank, ((1, 1), (2, -1)))
        gens.append(FreeGroupEndo(rank, tuple(fwd), tuple(bwd)))
    return gens


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

"""Reduced words in a free group F_d, with substitution and Nielsen automorphisms.

Words are kept in run-length normal form: a tuple of (generator, exponent)
syllables with nonzero exponents and no two adjacent syllables on the same
generator. Generators are indexed 1..rank. All values here are immutable.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence, Tuple

Syllable = Tuple[int, int]  # (generator index 1..rank, nonzero exponent)

# Most letters (or syllables) that `Word.letters`, `substitute` and
# `canonical_form` expand a word into; beyond it they raise ValueError
# before expanding. Image scans raise syllables to powers by squaring and
# have no such bound.
MAX_EXPANSION = 1 << 20
# Most digits of a generator index or exponent: the least limit the
# interpreter's int/str conversion can be set to, so int() never refuses one.
MAX_DIGITS = 640
# Indices and exponents are ASCII digits only: str.isdigit() also accepts
# characters such as '²' that int() refuses.
DIGITS = "0123456789"


class WordSyntaxError(ValueError):
    """Word text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Word:
    """A reduced word in F_rank, as run-length encoded syllables.

    Two words are equal when their rank and syllables are. `support_rank`
    is the largest generator index used (0 for the identity word), read by
    every `evaluate`; it is set by the validation walk.
    """

    def __init__(self, rank: int, syllables: Tuple[Syllable, ...]):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        prev_gen, top = None, 0
        for gen, exp in syllables:
            if not 1 <= gen <= rank:
                raise ValueError(f"generator x{gen} outside 1..{rank}")
            if exp == 0:
                raise ValueError("syllable with exponent 0")
            if gen == prev_gen:
                raise ValueError(f"adjacent syllables on x{gen}; word not in normal form")
            prev_gen = gen
            if gen > top:
                top = gen
        self.rank = rank
        self.syllables = syllables
        self.support_rank = top

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return self.rank == other.rank and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash((self.rank, self.syllables))

    def __repr__(self) -> str:
        return f"Word(rank={self.rank}, syllables={self.syllables})"

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def length(self) -> int:
        """Reduced word length: sum of |exponent| over syllables."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> Iterator[Tuple[int, int]]:
        """The word letter by letter as (generator, +1 or -1).

        Raises ValueError if the word has more than MAX_EXPANSION letters.
        """
        _check_expansion(self, self.length, "letters")
        return ((gen, 1 if exp > 0 else -1)
                for gen, exp in self.syllables for _ in range(abs(exp)))


def _check_expansion(w: Word, size: int, unit: str) -> None:
    if size > MAX_EXPANSION:
        raise ValueError(f"a word of length {w.length} expands to {size} "
                         f"{unit}, more than the bound of {MAX_EXPANSION}")


def identity_word(rank: int) -> Word:
    return Word(rank, ())


def reduce_syllables(syllables: Iterable[Syllable], rank: int) -> Word:
    """Freely reduce a raw syllable list into normal form. Idempotent."""
    stack: list[list[int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return Word(rank, tuple((g, e) for g, e in stack))


def _int_at(what: str, text: str, start: int, end: int) -> int:
    if end - start - (text[start] in "+-") > MAX_DIGITS:
        raise WordSyntaxError(f"{what} has more than {MAX_DIGITS} digits", start)
    return int(text[start:end])


def parse_word(text: str, rank: int) -> Word:
    """Parse word text like "x1 x3^2" or "x1*x3^-2"; "e" is the identity.

    Terms are separated by whitespace or '*'. Raises WordSyntaxError with the
    offending position on malformed input.
    """
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if text.strip() == "e":
        return identity_word(rank)
    syllables: list[Syllable] = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace() or text[i] == "*":
            i += 1
            continue
        if text[i] != "x":
            raise WordSyntaxError(f"expected 'x', found {text[i]!r}", i)
        i += 1
        start = i
        while i < n and text[i] in DIGITS:
            i += 1
        if i == start:
            raise WordSyntaxError("expected generator index after 'x'", i)
        gen = _int_at("generator index", text, start, i)
        if gen == 0:
            raise WordSyntaxError("generator index 0 is not allowed", start)
        if gen > rank:
            raise WordSyntaxError(f"generator x{gen} exceeds rank {rank}", start)
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] in "+-":
                i += 1
            while i < n and text[i] in DIGITS:
                i += 1
            if i == start or not text[start:i].lstrip("+-"):
                raise WordSyntaxError("expected integer exponent after '^'", start)
            exp = _int_at("exponent", text, start, i)
            if exp == 0:
                raise WordSyntaxError("exponent 0 is not allowed", start)
        syllables.append((gen, exp))
    return reduce_syllables(syllables, rank)


def render_word(w: Word) -> str:
    """Canonical text: "x1*x3^2", or "e" for the identity word."""
    if w.is_identity:
        return "e"
    return "*".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in w.syllables)


def invert(w: Word) -> Word:
    return Word(w.rank, tuple((g, -e) for g, e in reversed(w.syllables)))


def concat(a: Word, b: Word) -> Word:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    return reduce_syllables(a.syllables + b.syllables, a.rank)


class FreeGroupEndo:
    """Endomorphism of F_rank by generator images.

    When inverse_images is set, the endo is automorphism-witnessed: it was
    built from Nielsen generators and carries the images of its inverse.
    """

    def __init__(self, rank: int, images: Tuple[Word, ...],
                 inverse_images: Optional[Tuple[Word, ...]] = None):
        if len(images) != rank:
            raise ValueError("need one image per generator")
        for img in images:
            if img.rank != rank:
                raise ValueError("image rank mismatch")
        self.rank = rank
        self.images = images
        self.inverse_images = inverse_images

    def inverse(self) -> "FreeGroupEndo":
        if self.inverse_images is None:
            raise ValueError("endomorphism carries no invertibility witness")
        return FreeGroupEndo(self.rank, self.inverse_images, self.images)


def identity_endo(rank: int) -> FreeGroupEndo:
    gens = tuple(Word(rank, ((i, 1),)) for i in range(1, rank + 1))
    return FreeGroupEndo(rank, gens, gens)


def substitute(w: Word, e: FreeGroupEndo) -> Word:
    """Apply an endomorphism: replace each x_i by its image, then reduce.

    Raises ValueError if that gives more than MAX_EXPANSION syllables.
    """
    if w.rank != e.rank:
        raise ValueError(f"rank mismatch: word {w.rank} vs endo {e.rank}")
    _check_expansion(w, sum(abs(exp) * len(e.images[gen - 1].syllables)
                            for gen, exp in w.syllables), "syllables")
    out: list[Syllable] = []
    for gen, exp in w.syllables:
        img = e.images[gen - 1]
        piece = img.syllables if exp > 0 else invert(img).syllables
        for _ in range(abs(exp)):
            out.extend(piece)
    return reduce_syllables(out, w.rank)


def compose(e1: FreeGroupEndo, e2: FreeGroupEndo) -> FreeGroupEndo:
    """(e1 . e2)(x) = e1 applied to e2's image of x.

    Hence substitute(w, compose(e1, e2)) == substitute(substitute(w, e2), e1).
    """
    if e1.rank != e2.rank:
        raise ValueError("rank mismatch")
    images = tuple(substitute(img, e1) for img in e2.images)
    inv_images = None
    if e1.inverse_images is not None and e2.inverse_images is not None:
        e2_inv = e2.inverse()
        inv_images = tuple(substitute(img, e2_inv) for img in e1.inverse_images)
    return FreeGroupEndo(e1.rank, images, inv_images)


def _word(rank: int, *sylls: Syllable) -> Word:
    return Word(rank, sylls)


def nielsen_generators(rank: int) -> list[FreeGroupEndo]:
    """The standard Nielsen generating set of Aut(F_rank).

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
    images = list(base.images)
    images[0] = _word(rank, (1, -1))
    inverted = tuple(images)
    gens.append(FreeGroupEndo(rank, inverted, inverted))
    if rank >= 2:
        fwd = list(base.images)
        fwd[0] = _word(rank, (1, 1), (2, 1))
        bwd = list(base.images)
        bwd[0] = _word(rank, (1, 1), (2, -1))
        gens.append(FreeGroupEndo(rank, tuple(fwd), tuple(bwd)))
    return gens


def random_automorphism(rank: int, length: int, seed: int) -> FreeGroupEndo:
    """Compose `length` Nielsen generators chosen by a seeded RNG."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    rng = random.Random(seed)
    gens = nielsen_generators(rank)
    endo = identity_endo(rank)
    for _ in range(length):
        endo = compose(endo, rng.choice(gens))
    return endo


class FreeAntiAuto:
    """Anti-automorphism of F_rank, represented as w -> theta(w^-1)."""

    def __init__(self, theta: FreeGroupEndo):
        if theta.inverse_images is None:
            raise ValueError("theta must be automorphism-witnessed")
        self.theta = theta

    @property
    def rank(self) -> int:
        return self.theta.rank


def inversion_anti(rank: int) -> FreeAntiAuto:
    """The anti-automorphism w -> w^-1."""
    return FreeAntiAuto(identity_endo(rank))


def apply_anti(w: Word, gamma: FreeAntiAuto) -> Word:
    if w.rank != gamma.rank:
        raise ValueError(f"rank mismatch: word {w.rank} vs anti {gamma.rank}")
    return substitute(invert(w), gamma.theta)


def _letter_index(gen: int, sign: int) -> int:
    # Letter ordering x1 < x1^-1 < x2 < x2^-1 < ...
    return (gen - 1) * 2 + (0 if sign > 0 else 1)


def _word_from_indices(indices: Sequence[int], rank: int) -> Word:
    return reduce_syllables([(i // 2 + 1, 1 if i % 2 == 0 else -1)
                             for i in indices], rank)


def _reduced_sequences(rank: int, length: int,
                       normal: bool) -> Iterator[Tuple[int, ...]]:
    """Letter indices of every reduced word of one length, in lex order.

    With `normal`, only the words in normal form (`_normal_form`): each
    generator first appears as the next unused x_k, with exponent +1.
    """
    seq: list[int] = []
    top = 2 * rank

    def rec(remaining: int, fresh: int) -> Iterator[Tuple[int, ...]]:
        # Letters below 2*fresh belong to generators already used, and
        # 2*fresh is the next unused generator, positive.
        if remaining == 0:
            yield tuple(seq)
            return
        for letter in range(min(2 * fresh + 1, top) if normal else top):
            if seq and seq[-1] ^ 1 == letter:
                continue  # would cancel with the previous letter
            seq.append(letter)
            yield from rec(remaining - 1, max(fresh, letter // 2 + 1))
            seq.pop()

    return rec(length, 0)


def enumerate_words(rank: int, max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, once each, length-lex order.

    Within a length, words are ordered lexicographically by letters under
    x1 < x1^-1 < x2 < x2^-1 < ...
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    for length in range(max_len + 1):
        for indices in _reduced_sequences(rank, length, normal=False):
            yield _word_from_indices(indices, rank)


def _normal_form(indices: Sequence[int]) -> Tuple[int, ...]:
    """The least image of a word's letters under signed generator
    permutations: generators relabelled x1, x2, ... in order of first
    appearance, each signed so that it first appears with exponent +1.

    At a generator's first appearance every letter before it is already
    fixed, and no image of it is smaller than the next unused x_k, so this
    greedy choice is the lexicographic minimum.
    """
    relabel: dict[int, int] = {}
    out = []
    for i in indices:
        # A generator's new index with its first sign folded in, so that
        # xor with a letter's sign bit gives the relabelled letter.
        base = relabel.setdefault(i >> 1, 2 * len(relabel) | (i & 1))
        out.append(base ^ (i & 1))
    return tuple(out)


def _inverse_indices(indices: Sequence[int]) -> list[int]:
    return [i ^ 1 for i in reversed(indices)]


def canonical_form(w: Word) -> Word:
    """Least orbit member under signed generator permutations and inversion.

    The orbit group is the finite subgroup of Aut(F_d) that permutes
    generators and inverts them, together with inversion of the whole word.
    Orbit-mates have identical chirality behavior, so this is a sound dedup
    key for searches. The least member is the smaller normal form
    (`_normal_form`) of w and of w^-1. Raises ValueError, as `Word.letters`
    does, for a word longer than MAX_EXPANSION letters.
    """
    indices = [_letter_index(g, s) for g, s in w.letters()]
    return _word_from_indices(min(_normal_form(indices),
                                  _normal_form(_inverse_indices(indices))),
                              w.rank)


def canonical_words(rank: int, max_len: int) -> list[Word]:
    """Canonical orbit representatives, the words w == canonical_form(w) of
    length <= max_len, in `enumerate_words` order.

    Only words in normal form are built, and one is kept when it is no
    larger than the normal form of its inverse.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    return [_word_from_indices(indices, rank)
            for length in range(max_len + 1)
            for indices in _reduced_sequences(rank, length, normal=True)
            if indices <= _normal_form(_inverse_indices(indices))]

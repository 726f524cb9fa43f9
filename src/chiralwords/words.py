"""Reduced words in a free group F_d, with substitution and Nielsen automorphisms.

Words are kept in run-length normal form: a tuple of (generator, exponent)
syllables with nonzero exponents and no two adjacent syllables on the same
generator. Generators are indexed 1..rank. All values here are immutable.
"""

from __future__ import annotations

import math
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
# Most letters, summed over every reduced word of the rank and lengths it
# covers, that `canonical_words` walks before it refuses. Rank 2 to length
# 10 is 1,121,932 letters and gives 7,566 words in about 85 ms; rank 2 to
# length 11 (3,720,088) and rank 1 past length 1,447 are refused.
MAX_WALK_LETTERS = 1 << 21
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
        self._plan: Optional[tuple] = None

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

    def scan_plan(self) -> Tuple["Word", Tuple[int, ...], int]:
        """What a scan reads of the word on any group, worked out on the
        first call and kept: the cyclic reduction, the generators it reads
        in ascending order, and the gcd of its exponent sums (0 if all are
        0). The reduction merges the last syllable into the first while
        both are on one generator. It is u^-1 w u for some u, w's image
        under an inner automorphism of F_d, so it has w's fiber counts on
        every group, and w's exponent sums."""
        plan = self._plan
        if plan is None:
            sylls = list(self.syllables)
            while len(sylls) > 1 and sylls[0][0] == sylls[-1][0]:
                gen, exp = sylls.pop()
                exp += sylls[0][1]
                if exp:
                    sylls[0] = (gen, exp)
                else:
                    del sylls[0]
            sums: dict = {}
            for gen, exp in sylls:
                sums[gen] = sums.get(gen, 0) + exp
            reduced = (self if len(sylls) == len(self.syllables)
                       else Word(self.rank, tuple(sylls)))
            plan = self._plan = reduced._plan = (
                reduced, tuple(sorted(sums)), math.gcd(*sums.values()))
        return plan


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
        piece = e.images[gen - 1].syllables
        if exp < 0:
            piece = tuple((g, -x) for g, x in reversed(piece))
        out += piece * abs(exp)
    return reduce_syllables(out, w.rank)


def random_automorphism(rank: int, length: int, seed: int) -> FreeGroupEndo:
    """Compose `length` Nielsen moves drawn by a seeded RNG from, in order,
    the rank - 1 adjacent swaps, the inversion x1 -> x1^-1 and (rank >= 2)
    the transvection x1 -> x1 x2; the result carries its inverse images.

    Equal, refusals included, to folding composition over the drawn moves,
    but each move changes only what it must of the images and inverse images.
    Every image has at most MAX_EXPANSION syllables and every inverse image
    at most MAX_EXPANSION letters: each was checked when a transvection's
    `substitute` built it (substituting x1 x2^-1 for x1 gives no more
    letters than the size it checks), and a swap or an inversion keeps both
    counts. The fold's checks of a swap or an inversion are exactly those
    sizes (the images' syllables, and the inverse images' letters, as each
    letter becomes one syllable), so they cannot fail and are skipped. A
    transvection runs them, through `substitute`, in the fold's order.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if rank < 1:
        raise ValueError("rank must be positive")
    rng = random.Random(seed)
    moves = range(rank + (rank >= 2))
    images = list(identity_endo(rank).images)
    inverses = images[:]
    if rank >= 2:
        product = Word(rank, ((1, 1), (2, 1)))
        back = FreeGroupEndo(rank, (Word(rank, ((1, 1), (2, -1))),)
                             + tuple(images[1:]))
    for _ in range(length):
        move = rng.choice(moves)
        if move < rank - 1:  # swap x_a and x_b: relabel the inverses
            a, b = move + 1, move + 2
            images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
            label = {a: b, b: a}
            inverses = [Word(rank, tuple((label.get(gen, gen), exp)
                                         for gen, exp in w.syllables))
                        for w in inverses]
        elif move == rank - 1:  # x1 -> x1^-1: negate x1 in the inverses
            images[0] = invert(images[0])
            inverses = [Word(rank, tuple((gen, -exp if gen == 1 else exp)
                                         for gen, exp in w.syllables))
                        for w in inverses]
        else:  # x1 -> x1 x2, whose inverse is x1 -> x1 x2^-1
            images[0] = substitute(product, FreeGroupEndo(rank, tuple(images)))
            inverses = [substitute(w, back) for w in inverses]
    return FreeGroupEndo(rank, tuple(images), tuple(inverses))


class FreeAntiAuto:
    """Anti-automorphism of F_rank, represented as w -> theta(w^-1)."""

    def __init__(self, theta: FreeGroupEndo):
        if theta.inverse_images is None:
            raise ValueError("theta must be automorphism-witnessed")
        self.theta = theta

    @property
    def rank(self) -> int:
        return self.theta.rank


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


def conjugacy_key(w: Word) -> Tuple[int, ...]:
    """The least normal form (`_normal_form`) over the letter rotations of
    w's cyclic reduction. Equal keys hold exactly when two cyclic
    reductions share an orbit under rotation and signed generator
    permutations, automorphisms of F_d up to conjugation, so words with
    equal keys and rank have equal fiber counts on every group. w^-1 is
    not folded in: it inverts G_w and moves the chiral witness."""
    indices = [_letter_index(g, s) for g, s in w.scan_plan()[0].letters()]
    return min((_normal_form(indices[i:] + indices[:i])
                for i in range(len(indices))), default=())


def canonical_words(rank: int, max_len: int) -> list[Word]:
    """Canonical orbit representatives, the words w == canonical_form(w) of
    length <= max_len, by length and then by letters under
    x1 < x1^-1 < x2 < x2^-1 < ...

    Only words in normal form (`_normal_form`) are built, one length at a
    time, and one is kept when it is no larger than the normal form of its
    inverse. Raises ValueError, before any word is built, for a negative
    length or rank, and when the reduced words, 2d(2d-1)^(L-1) of each
    length L, have more than MAX_WALK_LETTERS letters in all.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    letters, count = 0, 2 * rank
    for length in range(1, max_len + 1):
        letters += length * count
        if letters > MAX_WALK_LETTERS:
            raise ValueError(
                f"the reduced words of rank {rank} and length <= {max_len} "
                f"have more than {MAX_WALK_LETTERS} letters; lower "
                "--max-len or --rank")
        count *= 2 * rank - 1
    words: list[Word] = []
    # The reduced words of one length in normal form, in order, each with
    # the number of generators it reads: its letters below 2*used are
    # theirs, and 2*used is the next unused generator, positive.
    level: list[Tuple[Tuple[int, ...], int]] = [((), 0)]
    for length in range(max_len + 1):
        if length:
            level = [(seq + (letter,), max(used, letter // 2 + 1))
                     for seq, used in level
                     for letter in range(min(2 * used + 1, 2 * rank))
                     if not seq or seq[-1] ^ 1 != letter]
        words += [_word_from_indices(seq, rank) for seq, _ in level
                  if seq <= _normal_form(_inverse_indices(seq))]
    return words

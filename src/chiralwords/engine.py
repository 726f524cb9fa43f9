"""Word-map evaluation over G^d: images, fibers, and chirality verdicts.

On abelian groups the word map is a homomorphism, and on any group a word
reading one coordinate is a power map, so their fiber counts come in
closed form from one power table, with no scan. On a direct product A x B
built by `groups.direct_product` they are the outer product of the
factors' counts, so only A^d and B^d are scanned, never (A x B)^d.
Elsewhere they come from one tuple per coset of A^k for an abelian normal
subgroup A (`_normal_scan`: dihedral groups, Q8), or, where a cost
estimate says that is dearer, from one first coordinate per conjugacy
class, weighted by the class size, since fiber counts are class functions
(`_class_scan`). Both skip coordinates the word does not read and evaluate
blocks of tuples at once. The tables these paths read are kept on the
group (`FiniteGroup`). `naive_image` is the independent reference path.
"""

from __future__ import annotations

import math
import time
from itertools import compress, product
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .groups import (
    ANTI_AUTOMORPHISM,
    AllGammas,
    FiniteGroup,
    GroupError,
    GroupMap,
    _closure,
)
from .words import FreeAntiAuto, Word, apply_anti, render_word

DEFAULT_BUDGET = 2 ** 24


class BudgetExceededError(RuntimeError):
    """The tuple-space size exceeds the configured evaluation budget."""


class WordImage:
    """The image G_w of a word map, as a dense membership set. Two images
    are equal when their group, word and members are."""

    def __init__(self, group: FiniteGroup, word: Word,
                 members: Tuple[bool, ...]):
        self.group = group
        self.word = word
        self.members = members

    def __eq__(self, other):
        if other.__class__ is not WordImage:
            return NotImplemented
        return (self.group == other.group and self.word == other.word
                and self.members == other.members)

    @property
    def arity(self) -> int:
        return self.word.rank

    @property
    def member_indices(self) -> Tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.members) if m)

    @property
    def size(self) -> int:
        return sum(self.members)


class FiberDistribution:
    """Per-element preimage counts of a word map; sums to |G|^arity. Two
    distributions are equal when their group, word and counts are."""

    def __init__(self, group: FiniteGroup, word: Word, counts: Tuple[int, ...]):
        self.group = group
        self.word = word
        self.counts = counts

    def __eq__(self, other):
        if other.__class__ is not FiberDistribution:
            return NotImplemented
        return (self.group == other.group and self.word == other.word
                and self.counts == other.counts)

    @property
    def arity(self) -> int:
        return self.word.rank


def evaluate(g: FiniteGroup, w: Word, tup: Sequence[int]) -> int:
    """Evaluate w at a tuple of element indices; w may use x_1..x_len(tup)."""
    if w.support_rank > len(tup):
        raise ValueError(
            f"word uses x{w.support_rank} but tuple has arity {len(tup)}")
    acc = 0
    for gen, exp in w.syllables:
        a = tup[gen - 1]
        if not 0 <= a < g.order:
            raise ValueError(f"element index {a} out of range")
        acc = g.mul(acc, g.power(a, exp))
    return acc


def evaluate_twisted(g: FiniteGroup, w: Word, gamma: GroupMap,
                     tup: Sequence[int]) -> int:
    """Evaluate the twisted map w_gamma = gamma(w(...))."""
    _check_antis(g, [gamma])
    return gamma.images[evaluate(g, w, tup)]


def _check_budget(g: FiniteGroup, arity: int, budget: int) -> int:
    # |G|^arity >= 2^arity > budget here: refuse before building a number
    # that could take seconds to compute and too many digits to print.
    if g.order >= 2 and arity > budget.bit_length():
        raise BudgetExceededError(
            f"{g.order}^{arity} tuples exceed budget {budget}; "
            "lower the rank or group order, or raise --budget")
    total = g.order ** arity
    if total > budget:
        raise BudgetExceededError(
            f"{g.order}^{arity} = {total} tuples exceed budget {budget}; "
            "lower the rank or group order, or raise --budget")
    return total


# The most tuples of the trailing coordinates that one scan step covers.
SCAN_BLOCK = 256
# How many class-scan steps one word evaluation of `_normal_scan` costs.
NORMAL_COST = 1.25
# The most generator sets whose subgroup of A one group keeps.
SUBGROUP_CACHE_SIZE = 1024


def normal_wins(g: FiniteGroup, k: int) -> bool:
    """Whether `_normal_scan` beats `_class_scan` on k coordinates, by
    their cost in word evaluations: |T|^k (1 + k gens(A)) against
    k(G) |G|^(k-1). Timed on S3, Q8, D16, D24, A4 and S4, the first
    loses at index above 3 (S4) and near a cost ratio of 1 (A4 at
    k = 2), whence the bound and NORMAL_COST."""
    normal = g.abelian_normal
    t, gens = len(normal.transversal), len(normal.gens)
    return t <= 3 and (NORMAL_COST * t ** k * (1 + k * gens)
                       < len(g.conjugacy_classes) * g.order ** (k - 1))


def _fiber_counts(g: FiniteGroup, w: Word, budget: int) -> List[int]:
    """Exact fiber counts of w over G^arity, arity = w.rank: in closed form
    on abelian groups and for words reading one coordinate, as an outer
    product on direct products, and on the rest from a scan over an
    abelian normal subgroup (`_normal_scan`) or a class-weighted scan
    (`_class_scan`), whichever `normal_wins` picks.

    On an abelian group (every conjugacy class a singleton) w(t) is
    prod t_i^{e_i}, where e_i is the exponent sum of x_i, so w is a
    homomorphism G^arity -> G. Its image, the product of the subgroups
    G^{e_i}, is G^m, the m-th powers, for m the gcd of the e_i (Bezout;
    m = 0 when every sum is 0, giving {e}). Every fiber over the image is
    a coset of the kernel, so each element of G^m has |G|^arity / |G^m|
    preimages and every other element none. The power map a -> a^m is a
    homomorphism with image G^m, so counting its preimages through
    `power_table(m)` and scaling by |G|^(arity-1) gives those counts
    without a scan. On any group a word reading only x_i is x_i^e, e its
    exponent sum, with counts #{a : a^e = x} |G|^(arity-1); a -> a^-1 maps
    {a : a^-e = x} onto {a : a^e = x}, so they depend on |e| = m only.

    On a nonabelian G = A x B built by `direct_product` (`g.factors`),
    (A x B)^arity = A^arity x B^arity and w is evaluated componentwise, so
    N_w(a, b) = N_w^A(a) * N_w^B(b): the counts are the outer product of
    the factors' counts, each computed by this same function, and the
    scan of G^arity becomes scans of A^arity and B^arity. The element
    i*|B| + j of the product is the pair (i, j), which fixes the order of
    the outer product. The closed forms above are taken first.
    The budget is checked on G itself, so a product is refused exactly
    when its scan would be, and it is checked before either scan runs.
    A coordinate the word does not read multiplies every count by |G|.
    """
    arity = w.rank
    _check_budget(g, arity, budget)
    n = g.order
    read = sorted({gen for gen, _ in w.syllables})
    if not read:  # the identity word: every tuple maps to the identity
        return [n ** arity] + [0] * (n - 1)
    if g.is_abelian or len(read) == 1:  # a homomorphism or a power map
        counts = [0] * n
        sums = dict.fromkeys(read, 0)
        for gen, exp in w.syllables:
            sums[gen] += exp
        scale = n ** (arity - 1)
        for x in g.power_table(math.gcd(*sums.values())):
            counts[x] += scale
        return counts
    if g.factors is not None:  # G = A x B: N_w(a, b) = N_w^A(a) N_w^B(b)
        a, b = g.factors
        counts_b = _fiber_counts(b, w, budget)
        return [x * y for x in _fiber_counts(a, w, budget)
                for y in counts_b]
    k = len(read)
    scan = _normal_scan if normal_wins(g, k) else _class_scan
    counts = scan(g, w, read)
    if arity > k:
        scale = n ** (arity - k)
        counts = [c * scale for c in counts]
    return counts


def _normal_scan(g: FiniteGroup, w: Word, read: List[int]) -> List[int]:
    """Fiber counts of w over G^k, k = len(read) >= 2, from one tuple per
    coset of A^k, for A = `g.abelian_normal` abelian and normal in G.

    Write t_i = a_i s_i with a_i in A and s_i in the transversal T. Moving
    each a_i to the left conjugates it by elements that depend only on s,
    and conjugation acts on A by automorphisms, so w(t) = phi_s(a) w(s)
    for a homomorphism phi_s: A^k -> A. Its image H_s is generated by the
    k gens(A) values w(s with s_i -> a s_i) w(s)^-1, and each element of
    H_s w(s) has |A|^k / |H_s| preimages in the coset. The block holds,
    per s in T^k, s and those k gens(A) neighbours; all are evaluated at
    once, one list comprehension per syllable, and the H_s closures are
    kept with A by generator set, since few subgroups of A recur.
    """
    table, cols = g.table, g.columns
    a_group = g.abelian_normal
    k = len(read)
    block = a_group.blocks.get(k)
    if block is None:
        rows = []
        for s in product(a_group.transversal, repeat=k):
            rows.append(s)
            rows += [s[:i] + (table[a][s[i]],) + s[i + 1:]
                     for i in range(k) for a in a_group.gens]
        block = a_group.blocks[k] = list(zip(*rows))
    slot = {gen: i for i, gen in enumerate(read)}
    (gen, exp), *rest = w.syllables
    pows = g.power_table(exp)
    vals = [pows[x] for x in block[slot[gen]]]
    for gen, exp in rest:
        pows = g.power_table(exp)
        vals = [table[v][pows[x]] for v, x in zip(vals, block[slot[gen]])]
    counts = [0] * g.order
    whole = len(a_group.members) ** k
    subgroups, inverses = a_group.subgroups, g.inverses
    stride = 1 + k * len(a_group.gens)
    for j in range(0, len(vals), stride):
        ws = vals[j]
        key = frozenset(map(cols[inverses[ws]].__getitem__,
                            vals[j + 1:j + stride]))
        h = subgroups.get(key)
        if h is None:
            assert all(a_group.in_a[x] for x in key), "phi_s maps into A"
            if len(subgroups) >= SUBGROUP_CACHE_SIZE:
                subgroups.clear()
            h = subgroups[key] = tuple(_closure(table, list(key), 0))
            assert whole % len(h) == 0, "|H_s| divides |A|^k"
        share, col = whole // len(h), cols[ws]
        for x in h:
            counts[col[x]] += share
    return counts


def _class_scan(g: FiniteGroup, w: Word, read: List[int]) -> List[int]:
    """Fiber counts of w over G^k, k = len(read) >= 2, from one first
    coordinate per conjugacy class.

    Conjugation by h maps the tuples with first coordinate r onto those
    with first coordinate h r h^-1 and conjugates their values, so the
    counts are class functions. The first coordinate therefore runs over
    one representative r per conjugacy class, weighted by |class(r)|, and
    each class's weighted total is then shared equally among its members.

    The trailing coordinates, as many as fit in SCAN_BLOCK tuples (the
    first coordinate stays outside), are covered at once: one list
    comprehension per syllable over the whole block. The
    coordinates before them run as an odometer, and the syllables before
    the first one that reads the block give a prefix that is constant
    across it.
    """
    n, table = g.order, g.table
    counts = [0] * n
    k = len(read)
    inner = k - 1  # the block is coordinates inner..k-1
    while inner > 1 and n ** (k - inner + 1) <= SCAN_BLOCK:
        inner -= 1
    block = list(product(range(n), repeat=k - inner))
    slot = {gen: i for i, gen in enumerate(read)}
    # Per-syllable powers: indexed by element outside the block and by
    # block tuple inside it.
    sylls = []
    for gen, exp in w.syllables:
        c = slot[gen]
        pows = g.power_table(exp)
        if c >= inner:
            pows = [pows[t[c - inner]] for t in block]
        sylls.append((c, pows))
    s = next(j for j, (c, _) in enumerate(sylls) if c >= inner)
    head, first_pows, tail = sylls[:s], sylls[s][1], sylls[s + 1:]
    cols = g.columns
    class_size = g.class_size
    for tup in product(class_size, *[range(n)] * (inner - 1)):
        p = 0
        for c, pows in head:
            p = table[p][pows[tup[c]]]
        row = table[p]
        vec = [row[x] for x in first_pows]
        for c, pows in tail:
            if c >= inner:
                vec = [table[v][x] for v, x in zip(vec, pows)]
            else:
                col = cols[pows[tup[c]]]
                vec = [col[v] for v in vec]
        weight = class_size[tup[0]]
        for v in vec:
            counts[v] += weight
    for cls in g.conjugacy_classes:
        if len(cls) > 1:
            share, rest = divmod(sum(counts[x] for x in cls), len(cls))
            assert not rest, "fiber counts are class functions"
            for x in cls:
                counts[x] = share
    return counts


def image(g: FiniteGroup, w: Word, *, want_fibers: bool = False,
          budget: int = DEFAULT_BUDGET):
    """Exact image G_w (and optionally fiber counts) over G^d, d = w.rank.

    Returns a WordImage, or a (WordImage, FiberDistribution) pair when
    want_fibers is set.
    """
    counts = _fiber_counts(g, w, budget)
    img = WordImage(g, w, tuple(map(bool, counts)))
    if want_fibers:
        return img, FiberDistribution(g, w, tuple(counts))
    return img


def naive_image(g: FiniteGroup, w: Word, *, budget: int = DEFAULT_BUDGET):
    """Reference oracle: counts every tuple of G^d, d = w.rank, evaluating w
    left to right from the Cayley table and power tables alone.

    The first d-1 coordinates run one tuple at a time; the last runs as a
    vector of all |G| values, multiplied on the right by one syllable at a
    time, so at most O(|G|) values are held at once. It reads none of the
    facts the fast paths rest on (classes, normal subgroups, factors).
    """
    d = w.rank
    _check_budget(g, d, budget)
    n, table, cols = g.order, g.table, g.columns
    last = d - 1
    sylls = [(gen - 1, g.power_table(exp)) for gen, exp in w.syllables]
    counts = [0] * n
    for head in product(range(n), repeat=last):
        vec = [0] * n
        for c, pows in sylls:
            if c == last:
                vec = [table[v][x] for v, x in zip(vec, pows)]
            else:
                col = cols[pows[head[c]]]
                vec = [col[v] for v in vec]
        for v in vec:
            counts[v] += 1
    return (WordImage(g, w, tuple(map(bool, counts))),
            FiberDistribution(g, w, tuple(counts)))


def invert_set(g: FiniteGroup, members: Sequence[bool]) -> Tuple[bool, ...]:
    """Elementwise inverses of a membership set; inversion is an involution."""
    return tuple(map(members.__getitem__, g.inverses))


def map_set(m: GroupMap, members: Sequence[bool]) -> Tuple[bool, ...]:
    """Image of a membership set under a group map."""
    out = [False] * m.group.order
    for y in compress(m.images, members):
        out[y] = True
    return tuple(out)


class ChiralityReport:
    """Verdicts with witnesses for one (group, word) chirality check."""

    def __init__(self, group_name: str, group_order: int, word_text: str,
                 arity: int, evaluations: int, *,
                 chiral: Optional[bool] = None,
                 weakly_chiral: Optional[bool] = None,
                 chiral_witness: Optional[int] = None,
                 weak_witness: Optional[int] = None,
                 gamma_results: Optional[List[dict]] = None,
                 all_gammas_agree: Optional[bool] = None,
                 members: Tuple[int, ...] = (),
                 counts: Optional[Tuple[int, ...]] = None,
                 wall_time_s: float = 0.0):
        self.group_name = group_name
        self.group_order = group_order
        self.word_text = word_text
        self.arity = arity
        self.evaluations = evaluations
        self.chiral = chiral
        self.weakly_chiral = weakly_chiral
        self.chiral_witness = chiral_witness
        self.weak_witness = weak_witness
        self.gamma_results = [] if gamma_results is None else gamma_results
        self.all_gammas_agree = all_gammas_agree
        self.members = members
        self.counts = counts
        self.wall_time_s = wall_time_s

    def to_structured(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "chirality-report",
            "group": self.group_name,
            "order": self.group_order,
            "word": self.word_text,
            "arity": self.arity,
            "members": list(self.members),
            "counts": list(self.counts) if self.counts is not None else None,
            "chiral": self.chiral,
            "weakly_chiral": self.weakly_chiral,
            "chiral_witness": self.chiral_witness,
            "weak_witness": self.weak_witness,
            "gamma_results": self.gamma_results,
            "all_gammas_agree": self.all_gammas_agree,
            "evaluations": self.evaluations,
            "wall_time_s": self.wall_time_s,
        }


def _chiral_witness(g: FiniteGroup, members: Sequence[bool]) -> Optional[int]:
    """Smallest x in G_w with x^-1 not in G_w, or None."""
    for x, present in enumerate(members):
        if present and not members[g.inv(x)]:
            return x
    return None


def weak_verdict_from_counts(g: FiniteGroup, counts: Sequence[int],
                             gamma_inverse: Sequence[int]) -> Optional[int]:
    """Witness x with counts_w[x] != counts_{w_gamma}[x], or None.

    Uses the fiber identity counts_{w_gamma}[x] = counts_w[gamma^-1(x)];
    gamma_inverse is the image array of gamma^-1. Given the Aut(G)-orbit
    minima (`AllGammas.orbit_minima`) instead, None says N_w is
    orbit-constant."""
    for x in g.elements():
        if counts[x] != counts[gamma_inverse[x]]:
            return x
    return None


class GammaVerdict(NamedTuple):
    """The verdicts of one pair under one anti-automorphism gamma."""

    chiral: bool                 # gamma(G_w) != G_w
    weak_witness: Optional[int]  # some N_w(x) != N_{w_gamma}(x)


class PairVerdicts(NamedTuple):
    """Image, fibers and the inversion verdicts of one (group, word) pair."""

    image: WordImage
    fibers: FiberDistribution
    chiral_witness: Optional[int]
    weak_witness: Optional[int]

    @property
    def chiral(self) -> bool:
        return self.chiral_witness is not None

    @property
    def weakly_chiral(self) -> bool:
        return self.weak_witness is not None

    def against(self, gammas: Sequence[GroupMap]) -> List[GammaVerdict]:
        """The per-gamma verdicts, from the image and fibers already held.

        For all of AA(G) (`enumerate_anti_automorphisms`) with fiber counts
        constant on the Aut(G)-orbits, every gamma = zeta o inversion pulls
        the counts back to inversion's pull-back, so each verdict is
        inversion's. Otherwise gamma(G_w) and the twisted fiber counts are
        both gathered through gamma^-1 (`GroupMap.inverse_images`).
        """
        g, members = self.image.group, self.image.members
        counts = self.fibers.counts
        if (isinstance(gammas, AllGammas) and weak_verdict_from_counts(
                g, counts, gammas.orbit_minima) is None):
            return [GammaVerdict(self.chiral, self.weak_witness)] * len(gammas)
        member = members.__getitem__
        return [GammaVerdict(
            chiral=tuple(map(member, gamma.inverse_images)) != members,
            weak_witness=weak_verdict_from_counts(g, counts,
                                                  gamma.inverse_images))
            for gamma in gammas]


def pair_verdicts(g: FiniteGroup, w: Word, *,
                  budget: int = DEFAULT_BUDGET) -> PairVerdicts:
    """Scan G^(w.rank) once and derive the chiral and weak verdicts against
    inversion; `PairVerdicts.against` derives them for other gammas."""
    img, fibers = image(g, w, want_fibers=True, budget=budget)
    return PairVerdicts(
        img, fibers, _chiral_witness(g, img.members),
        weak_verdict_from_counts(g, fibers.counts, g.inverses))


def _check_antis(g: FiniteGroup, gammas: Sequence[GroupMap]) -> None:
    """Refuse a gamma of another group or one that is no anti-automorphism.
    A group equal to g but built apart from it is accepted."""
    for gamma in gammas:
        if gamma.group is not g and gamma.group != g:
            raise GroupError("gamma belongs to a different group")
        if gamma.kind != ANTI_AUTOMORPHISM:
            raise GroupError("gamma must be an anti-automorphism")


def _report(v: PairVerdicts, start: float, key: str,
            per_gamma: Sequence[bool], **verdicts) -> ChiralityReport:
    """A report on v's pair with the given verdicts, timed from `start`; with
    gammas, each one's verdict under `key` and if all equal verdicts[key]."""
    img = v.image
    if per_gamma:
        verdicts["gamma_results"] = [{"gamma_index": i, key: x}
                                     for i, x in enumerate(per_gamma)]
        verdicts["all_gammas_agree"] = all(x == verdicts[key]
                                           for x in per_gamma)
    return ChiralityReport(
        group_name=img.group.name, group_order=img.group.order,
        word_text=render_word(img.word), arity=img.arity,
        evaluations=img.group.order ** img.arity,
        members=img.member_indices, **verdicts,
        wall_time_s=time.perf_counter() - start)


def is_chiral_pair(g: FiniteGroup, w: Word, *, budget: int = DEFAULT_BUDGET,
                   gammas: Optional[Sequence[GroupMap]] = None
                   ) -> ChiralityReport:
    """Decide whether G_w is closed under inversion. With `gammas`, the
    report also holds each one's verdict gamma(G_w) != G_w and whether all
    agree with inversion's."""
    start = time.perf_counter()
    _check_antis(g, gammas or ())
    v = pair_verdicts(g, w, budget=budget)
    per_gamma = [r.chiral for r in v.against(gammas or ())]
    return _report(v, start, "chiral", per_gamma, chiral=v.chiral,
                   chiral_witness=v.chiral_witness)


def is_gamma_chiral_pair(g: FiniteGroup, w: Word, *,
                         gamma_word: Optional[FreeAntiAuto] = None,
                         gamma_group: Optional[GroupMap] = None,
                         budget: int = DEFAULT_BUDGET) -> ChiralityReport:
    """Decide gamma-chirality for a free-group or group anti-automorphism.

    Exactly one of gamma_word / gamma_group must be given. The word flavor
    compares G_w with G_{gamma(w)}, from a second scan; the group flavor
    compares G_w with gamma(G_w), gathered through gamma^-1. The witness is
    the least x where they differ. Both agree with is_chiral_pair.
    """
    if (gamma_word is None) == (gamma_group is None):
        raise ValueError("pass exactly one of gamma_word, gamma_group")
    start = time.perf_counter()
    if gamma_group is not None:
        _check_antis(g, [gamma_group])
    v = pair_verdicts(g, w, budget=budget)
    members = v.image.members
    if gamma_word is not None:
        tw = apply_anti(w, gamma_word)
        twisted = image(g, tw, budget=budget)
        other, flavor = twisted.members, "word-anti"
        twisted_evaluations = g.order ** twisted.arity
    else:
        other = tuple(map(members.__getitem__, gamma_group.inverse_images))
        flavor, twisted_evaluations = "group-anti", 0
    witness = next((x for x, (a, b) in enumerate(zip(members, other))
                    if a != b), None)
    chiral = witness is not None
    report = _report(v, start, "chiral", (), chiral=chiral,
                     chiral_witness=witness,
                     gamma_results=[{"gamma": flavor, "chiral": chiral}])
    report.evaluations += twisted_evaluations
    return report


def is_weakly_chiral_pair(g: FiniteGroup, w: Word,
                          gammas: Sequence[GroupMap], *,
                          budget: int = DEFAULT_BUDGET) -> ChiralityReport:
    """Decide whether some fiber count differs between w and w_gamma, for
    the first of `gammas`; the report also holds each gamma's verdict and
    whether all agree."""
    if not gammas:
        raise ValueError("pass at least one gamma")
    start = time.perf_counter()
    _check_antis(g, gammas)
    v = pair_verdicts(g, w, budget=budget)
    per_gamma = v.against(gammas)
    witness = per_gamma[0].weak_witness
    return _report(v, start, "weakly_chiral",
                   [r.weak_witness is not None for r in per_gamma],
                   weakly_chiral=witness is not None, weak_witness=witness,
                   counts=v.fibers.counts)

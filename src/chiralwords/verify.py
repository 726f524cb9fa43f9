"""Verification suites for the chirality equivalences.

Each suite checks one identity on every (group, word) pair of the group
catalog and the canonical reduced words: image invariance under free and
group automorphisms, chirality equals gamma-chirality in both flavors, and
weak chirality does not depend on gamma. One driver makes one pass over the
catalog per suite and skips a pair exactly when |G|^rank exceeds the budget
or Aut(G) exceeds the automorphism cap. Any failure localizes an
implementation bug and carries full reproduction data.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalog import catalog_groups
from .engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    image,
    invert_set,
    map_set,
    naive_image,
)
from .groups import (
    DEFAULT_AUTO_CAP,
    CapExceededError,
    FiniteGroup,
    GroupMap,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
)
from .words import (
    FreeAntiAuto,
    FreeGroupEndo,
    Word,
    apply_anti,
    canonical_words,
    invert,
    random_automorphism,
    render_word,
    substitute,
)

MAX_RECORDED_FAILURES = 100
# The most Nielsen moves in a sampled automorphism. Moves lengthen words:
# at the default bounds, 64 moves take about 0.6 s to sample and reach
# 9,225 syllables; 128 pass `words.MAX_EXPANSION`.
MAX_THETA_LENGTH = 64
# The most sampled automorphisms of each kind per word. Each suite draws
# every word's samples before its first scan, and time grows linearly in
# the count: at the default bounds, 1,000 theta samples take about 2.2 s
# and 59 MB (CPython 3.11, 2 vCPUs), as do 1,000 gamma samples.
MAX_SAMPLES = 1000
# The most automorphisms one suite draws in a run: lemma1 draws
# theta_samples and thm1 gamma_samples per canonical word, all before its
# first scan. At the default theta_length 20,000 draws take about 2.5 s
# and 37 MB (CPython 3.11, 2 vCPUs); MAX_SAMPLES times the 18 words of
# the default --max-len is let through.
MAX_DRAWS = 20000
# The most Nielsen moves, draws times theta_length, in one suite's draws.
# A move can lengthen the sampled words, so a draw of 64 moves costs far
# more than 13 of 5. In lemma1 at the default words (CPython 3.11, 2 vCPUs),
# 18,000 draws of 5 moves (90,000) take about 2.1 s and 59 MB, and 1,548
# of 64 (99,072, the most let through at that length) 9.3 s and 126 MB.
# MAX_SAMPLES at the default theta_length passes; 1,000 of 64 do not.
MAX_DRAWN_MOVES = 100000
_DRAWN = {"lemma1": "theta_samples", "thm1": "gamma_samples"}


class Bounds:
    """Parameter bounds for one verification run. The class attributes are
    the defaults, which the CLI reads as well."""

    max_order = 16
    max_word_len = 4
    rank = 2
    theta_samples = 5
    gamma_samples = 10
    theta_length = 5
    seed = 0
    auto_cap = DEFAULT_AUTO_CAP
    budget = DEFAULT_BUDGET
    families: Optional[Tuple[str, ...]] = None

    def __init__(self, max_order: int = max_order,
                 max_word_len: int = max_word_len, rank: int = rank,
                 theta_samples: int = theta_samples,
                 gamma_samples: int = gamma_samples,
                 theta_length: int = theta_length, seed: int = seed,
                 auto_cap: int = auto_cap, budget: int = budget,
                 families: Optional[Tuple[str, ...]] = families):
        for name, count in (("theta_samples", theta_samples),
                            ("gamma_samples", gamma_samples)):
            if count < 0:  # range(-1) is empty
                raise ValueError(f"{name} must be nonnegative, got {count}")
            if count > MAX_SAMPLES:
                raise ValueError(f"{name} must be at most {MAX_SAMPLES}, "
                                 f"got {count}")
        if not 0 <= theta_length <= MAX_THETA_LENGTH:
            raise ValueError(f"theta_length must be between 0 and "
                             f"{MAX_THETA_LENGTH}, got {theta_length}")
        # 2^rank > budget: every group but C1 would be a budget skip, after
        # O(rank^2) work per sampled automorphism. Decided without 2^rank.
        if budget < 1 or rank >= budget.bit_length():
            raise ValueError(
                f"rank {rank} gives 2^{rank} or more tuples on any "
                f"group of order 2 or more, over budget {budget}")
        # Set in this order: `VerificationReport.to_structured` writes the
        # instance's attributes, in order, as the report's "bounds".
        self.max_order = max_order
        self.max_word_len = max_word_len
        self.rank = rank
        self.theta_samples = theta_samples
        self.gamma_samples = gamma_samples
        self.theta_length = theta_length
        self.seed = seed
        self.auto_cap = auto_cap
        self.budget = budget
        self.families = families


class VerificationReport:
    """One suite's cases, failure records and skips over one run."""

    def __init__(self, suite: str, bounds: Bounds):
        self.suite = suite
        self.bounds = bounds
        self.cases = 0
        self.failures: List[dict] = []
        self.skipped: List[dict] = []
        self.wall_time_s = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record_failure(self, record: dict) -> None:
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(record)

    def to_structured(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "verification-report",
            "suite": self.suite,
            "bounds": dict(vars(self.bounds)),
            "cases": self.cases,
            "passed": self.passed,
            "failures": self.failures,
            "skipped": self.skipped,
            "wall_time_s": self.wall_time_s,
        }


def derived_seed(seed: int, *parts) -> int:
    """Stable sub-seed derived from a base seed and string-able parts."""
    text = ":".join([str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _sampled_autos(bounds: Bounds, label: str, w: Word,
                   count: int) -> List[FreeGroupEndo]:
    """The seeded random automorphisms a suite applies to w. They do not
    depend on the group, so a suite draws them once per word."""
    return [random_automorphism(
        bounds.rank, bounds.theta_length,
        derived_seed(bounds.seed, label, render_word(w), i))
        for i in range(count)]


class _Scans:
    """The scans of one run, each done once: `run_all` shares one across
    its suites, `run_suite` builds its own, and `search`, `replay` and the
    CLI queries never read one.

    A scan is kept by (group, cyclic reduction of the word). Every scan
    routes on that reduction (`Word.scan_plan`), so equal keys give equal
    counts. A scan over the budget raises on each call and is not kept.
    Equal member and count tuples are stored once. The coarser
    `conjugacy_key`, which `search_chiral` keys its findings by, is not
    used here: it costs O(L^2) on each long sampled theta(w), and it would
    merge theta(w) with w, so lemma1's theta cases would compare a scan
    with itself."""

    def __init__(self, budget: int):
        self.budget = budget
        self.found: Dict[tuple, Tuple[tuple, tuple]] = {}
        self.members: Dict[tuple, tuple] = {}
        self.counts: Dict[tuple, tuple] = {}  # apart: (1,) == (True,)

    def __call__(self, g: FiniteGroup, w: Word) -> Tuple[tuple, tuple]:
        """G_w's membership set and fiber counts."""
        key = (g, w.scan_plan()[0])
        found = self.found.get(key)
        if found is None:
            img, fibers = image(g, w, want_fibers=True, budget=self.budget)
            found = self.found[key] = (
                self.members.setdefault(img.members, img.members),
                self.counts.setdefault(fibers.counts, fibers.counts))
        return found


def _indices(members: Sequence[bool]) -> List[int]:
    return [x for x, present in enumerate(members) if present]


# Each suite builds the check that the driver applies to every (group, word)
# pair; `where` names the pair in records. A check makes every call that can
# raise before it counts a case. Sampled words keep w.rank, so their scans
# pass the budget test that the check's first scan passed. A check over
# Aut(G) or AA(G) runs once per group and distinct input, and each pair
# counts its cases and records its failures from that one result.
Check = Callable[[VerificationReport, dict, FiniteGroup, Word], None]


def _lemma1(bounds: Bounds, words: Sequence[Word], scan: _Scans) -> Check:
    """G_w = G_{theta(w)} for sampled theta in A(F_d), and zeta(G_w) = G_w
    for every zeta in A(G)."""
    samples = {w: [(theta, substitute(w, theta)) for theta in
                   _sampled_autos(bounds, "lemma-theta", w,
                                  bounds.theta_samples)]
               for w in words}
    moved: Dict[tuple, List[int]] = {}  # (g, G_w) -> zetas that move G_w

    def check(report, where, g, w):
        autos = enumerate_automorphisms(g, bounds.auto_cap)
        members = scan(g, w)[0]
        for theta, tw in samples[w]:
            other = scan(g, tw)[0]
            report.cases += 1
            if other != members:
                report.record_failure({
                    "check": "image-invariance-under-theta", **where,
                    "theta_images": [render_word(t) for t in theta.images],
                    "theta_word": render_word(tw),
                    "members_w": _indices(members),
                    "members_theta_w": _indices(other),
                })
        failing = moved.get((g, members))
        if failing is None:
            failing = moved[g, members] = [
                zi for zi, zeta in enumerate(autos)
                if map_set(zeta, members) != members]
        report.cases += len(autos)
        for zi in failing:
            report.record_failure({
                "check": "image-invariance-under-zeta", **where,
                "zeta_index": zi, "zeta_images": list(autos[zi].images),
                "members_w": _indices(members),
            })
    return check


def _thm1(bounds: Bounds, words: Sequence[Word], scan: _Scans) -> Check:
    """G_{gamma(w)} = G_{w^-1} for sampled gamma in AA(F_d), hence
    chirality and word gamma-chirality verdicts coincide."""
    samples = {w: (invert(w), [
        (theta, apply_anti(w, FreeAntiAuto(theta))) for theta in
        _sampled_autos(bounds, "thm1-gamma", w, bounds.gamma_samples)])
        for w in words}

    def check(report, where, g, w):
        inverse, sampled = samples[w]
        inverted = scan(g, inverse)[0]
        for theta, gw in sampled:
            members = scan(g, gw)[0]
            report.cases += 1
            if members != inverted:
                report.record_failure({
                    "check": "image-of-gamma-w-equals-image-of-w-inverse", **where,
                    "theta_images": [render_word(t) for t in theta.images],
                    "gamma_word": render_word(gw),
                    "members_gamma_w": _indices(members),
                    "members_w_inverse": _indices(inverted),
                })
    return check


def _thm2(bounds: Bounds, words: Sequence[Word], scan: _Scans) -> Check:
    """gamma(G_w) = (G_w)^-1 for every gamma in AA(G), hence group
    gamma-chirality coincides with chirality."""
    wrong: Dict[tuple, List[int]] = {}  # (g, G_w) -> gammas that fail

    def check(report, where, g, w):
        antis = enumerate_anti_automorphisms(g, bounds.auto_cap)
        members = scan(g, w)[0]
        failing = wrong.get((g, members))
        if failing is None:
            inverted = invert_set(g, members)
            failing = wrong[g, members] = [
                zi for zi, gamma in enumerate(antis)
                if map_set(gamma, members) != inverted]
        report.cases += len(antis)
        for zi in failing:
            report.record_failure({
                "check": "gamma-image-equals-inverted-image", **where,
                "zeta_index": zi, "gamma_images": list(antis[zi].images),
                "members_w": _indices(members),
            })
    return check


def _twists(g: FiniteGroup, gammas: Sequence[GroupMap],
            counts: Sequence[int], direct: Sequence[int]) -> tuple:
    """The Remark's checks of one pair's fibers over AA(G): the failing
    (gamma index, twisted direct counts, predicted counts), and each
    gamma's weak verdict."""
    # A list, as `predicted` is: a list never equals a tuple.
    counts = list(counts)
    failing, verdicts = [], []
    for zi, gamma in enumerate(gammas):
        # gamma is a bijection, so each entry is assigned exactly once:
        # the scatter twisted[gamma(v)] += direct[v], at C speed.
        twisted = [0] * g.order
        deque(map(twisted.__setitem__, gamma.images, direct), 0)
        predicted = list(map(counts.__getitem__, gamma.inverse_images))
        if twisted != predicted:
            failing.append((zi, twisted, predicted))
        # Some N_w(x) != N_w(gamma^-1(x)): w is weakly gamma-chiral.
        verdicts.append(predicted != counts)
    return failing, verdicts


def _remark(bounds: Bounds, words: Sequence[Word], scan: _Scans) -> Check:
    """The weak-chirality verdict is identical across all gamma in AA(G),
    and counts_{w_gamma}[x] = counts_w[gamma^-1(x)] matches direct twisted
    enumeration."""
    twists: Dict[tuple, tuple] = {}  # (g, N_w, direct N_w) -> `_twists`

    def check(report, where, g, w):
        gammas = enumerate_anti_automorphisms(g, bounds.auto_cap)
        counts = scan(g, w)[1]
        # One direct evaluation pass per pair, the oracle for the scan.
        direct = naive_image(g, w, budget=bounds.budget)[1].counts
        found = twists.get((g, counts, direct))
        if found is None:
            found = twists[g, counts, direct] = _twists(g, gammas, counts,
                                                        direct)
        failing, verdicts = found
        report.cases += len(gammas)
        for zi, twisted, predicted in failing:
            report.record_failure({
                "check": "twisted-fiber-identity", **where,
                "zeta_index": zi, "gamma_images": list(gammas[zi].images),
                "direct_counts": list(twisted),
                "predicted_counts": list(predicted),
            })
        report.cases += 1
        if len(set(verdicts)) > 1:
            report.record_failure({
                "check": "weak-verdict-gamma-independence", **where,
                "verdicts": list(verdicts),
            })
    return check


_SUITES = {
    "lemma1": _lemma1,
    "thm1": _thm1,
    "thm2": _thm2,
    "remark": _remark,
}


def _drive(name: str, bounds: Bounds, words: Sequence[Word],
           scan: _Scans) -> VerificationReport:
    """One suite's pass over the catalog, checking every (group, word)."""
    report = VerificationReport(name, bounds)
    start = time.perf_counter()
    check = _SUITES[name](bounds, words, scan)
    texts = [render_word(w) for w in words]
    for spec, g in catalog_groups(bounds.max_order, bounds.families):
        for w, text in zip(words, texts):
            where = {"group": spec, "word": text}
            try:
                check(report, where, g, w)
            except (BudgetExceededError, CapExceededError) as exc:
                report.skipped.append({**where, "reason": str(exc)})
    report.wall_time_s = time.perf_counter() - start
    return report


def _words(bounds: Bounds, names: Sequence[str]) -> List[Word]:
    """The canonical words of a run of the named suites. A run in which
    one suite would draw more than MAX_DRAWS automorphisms, or more than
    MAX_DRAWN_MOVES Nielsen moves in all, is refused here, before any is
    drawn."""
    words = canonical_words(bounds.rank, bounds.max_word_len)
    for name, field in _DRAWN.items():
        if name not in names:
            continue
        count = getattr(bounds, field)
        draws = len(words) * count
        flag = "--" + field.replace("_", "-")
        what = (f"{len(words)} words of length <= {bounds.max_word_len} "
                f"times {field} {count}")
        if draws > MAX_DRAWS:
            raise ValueError(
                f"{what} is {draws} sampled automorphisms, more than "
                f"{MAX_DRAWS}; lower --max-len or {flag}")
        moves = draws * bounds.theta_length
        if moves > MAX_DRAWN_MOVES:
            raise ValueError(
                f"{what} times theta_length {bounds.theta_length} is "
                f"{moves} Nielsen moves, more than {MAX_DRAWN_MOVES}; "
                f"lower --theta-length or {flag}")
    return words


def run_suite(name: str, bounds: Bounds) -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(_SUITES)} or 'all'")
    return _drive(name, bounds, _words(bounds, [name]),
                  _Scans(bounds.budget))


def run_all(bounds: Bounds) -> List[VerificationReport]:
    words = _words(bounds, list(_SUITES))
    scan = _Scans(bounds.budget)
    return [_drive(name, bounds, words, scan) for name in _SUITES]


def summarize(reports: Sequence[VerificationReport]) -> dict:
    return {
        "schema_version": 1,
        "kind": "verification-summary",
        "passed": all(r.passed for r in reports),
        "suites": [r.to_structured() for r in reports],
    }

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
from typing import Callable, List, Optional, Sequence, Tuple

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


# Each suite builds the check that the driver applies to every (group, word)
# pair; `where` names the pair in records. A check makes every call that can
# raise before it counts a case. Sampled words keep w.rank, so their scans
# pass the budget test that the check's first scan passed.
Check = Callable[[VerificationReport, dict, FiniteGroup, Word], None]


def _lemma1(bounds: Bounds, words: Sequence[Word]) -> Check:
    """G_w = G_{theta(w)} for sampled theta in A(F_d), and zeta(G_w) = G_w
    for every zeta in A(G)."""
    samples = {w: [(theta, substitute(w, theta)) for theta in
                   _sampled_autos(bounds, "lemma-theta", w,
                                  bounds.theta_samples)]
               for w in words}

    def check(report, where, g, w):
        autos = enumerate_automorphisms(g, bounds.auto_cap)
        img = image(g, w, budget=bounds.budget)
        for theta, tw in samples[w]:
            img2 = image(g, tw, budget=bounds.budget)
            report.cases += 1
            if img2.members != img.members:
                report.record_failure({
                    "check": "image-invariance-under-theta", **where,
                    "theta_images": [render_word(t) for t in theta.images],
                    "theta_word": render_word(tw),
                    "members_w": list(img.member_indices),
                    "members_theta_w": list(img2.member_indices),
                })
        for zi, zeta in enumerate(autos):
            report.cases += 1
            if map_set(zeta, img.members) != img.members:
                report.record_failure({
                    "check": "image-invariance-under-zeta", **where,
                    "zeta_index": zi, "zeta_images": list(zeta.images),
                    "members_w": list(img.member_indices),
                })
    return check


def _thm1(bounds: Bounds, words: Sequence[Word]) -> Check:
    """G_{gamma(w)} = G_{w^-1} for sampled gamma in AA(F_d), hence
    chirality and word gamma-chirality verdicts coincide."""
    samples = {w: [(theta, apply_anti(w, FreeAntiAuto(theta))) for theta in
                   _sampled_autos(bounds, "thm1-gamma", w,
                                  bounds.gamma_samples)]
               for w in words}

    def check(report, where, g, w):
        inv_img = image(g, invert(w), budget=bounds.budget)
        for theta, gw in samples[w]:
            img = image(g, gw, budget=bounds.budget)
            report.cases += 1
            if img.members != inv_img.members:
                report.record_failure({
                    "check": "image-of-gamma-w-equals-image-of-w-inverse", **where,
                    "theta_images": [render_word(t) for t in theta.images],
                    "gamma_word": render_word(gw),
                    "members_gamma_w": list(img.member_indices),
                    "members_w_inverse": list(inv_img.member_indices),
                })
    return check


def _thm2(bounds: Bounds, words: Sequence[Word]) -> Check:
    """gamma(G_w) = (G_w)^-1 for every gamma in AA(G), hence group
    gamma-chirality coincides with chirality."""
    def check(report, where, g, w):
        antis = enumerate_anti_automorphisms(g, bounds.auto_cap)
        img = image(g, w, budget=bounds.budget)
        inverted = invert_set(g, img.members)
        for zi, gamma in enumerate(antis):
            report.cases += 1
            if map_set(gamma, img.members) != inverted:
                report.record_failure({
                    "check": "gamma-image-equals-inverted-image", **where,
                    "zeta_index": zi, "gamma_images": list(gamma.images),
                    "members_w": list(img.member_indices),
                })
    return check


def _remark(bounds: Bounds, words: Sequence[Word]) -> Check:
    """The weak-chirality verdict is identical across all gamma in AA(G),
    and counts_{w_gamma}[x] = counts_w[gamma^-1(x)] matches direct twisted
    enumeration."""
    def check(report, where, g, w):
        gammas = enumerate_anti_automorphisms(g, bounds.auto_cap)
        # A list, as `predicted` is: a list never equals a tuple.
        counts = list(image(g, w, want_fibers=True,
                            budget=bounds.budget)[1].counts)
        # One direct evaluation pass, shared by every gamma's twisted count.
        direct = naive_image(g, w, budget=bounds.budget)[1].counts
        verdicts = []
        for zi, gamma in enumerate(gammas):
            # gamma is a bijection, so each entry is assigned exactly once:
            # the scatter twisted[gamma(v)] += direct[v], at C speed.
            twisted = [0] * g.order
            deque(map(twisted.__setitem__, gamma.images, direct), 0)
            predicted = list(map(counts.__getitem__, gamma.inverse_images))
            report.cases += 1
            if twisted != predicted:
                report.record_failure({
                    "check": "twisted-fiber-identity", **where,
                    "zeta_index": zi, "gamma_images": list(gamma.images),
                    "direct_counts": twisted,
                    "predicted_counts": predicted,
                })
            # Some N_w(x) != N_w(gamma^-1(x)): w is weakly gamma-chiral.
            verdicts.append(predicted != counts)
        report.cases += 1
        if len(set(verdicts)) > 1:
            report.record_failure({
                "check": "weak-verdict-gamma-independence", **where,
                "verdicts": verdicts,
            })
    return check


_SUITES = {
    "lemma1": _lemma1,
    "thm1": _thm1,
    "thm2": _thm2,
    "remark": _remark,
}


def _drive(name: str, bounds: Bounds,
           words: Sequence[Word]) -> VerificationReport:
    """One suite's pass over the catalog, checking every (group, word)."""
    report = VerificationReport(name, bounds)
    start = time.perf_counter()
    check = _SUITES[name](bounds, words)
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


def run_suite(name: str, bounds: Bounds) -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(_SUITES)} or 'all'")
    return _drive(name, bounds,
                  canonical_words(bounds.rank, bounds.max_word_len))


def run_all(bounds: Bounds) -> List[VerificationReport]:
    words = canonical_words(bounds.rank, bounds.max_word_len)
    return [_drive(name, bounds, words) for name in _SUITES]


def summarize(reports: Sequence[VerificationReport]) -> dict:
    return {
        "schema_version": 1,
        "kind": "verification-summary",
        "passed": all(r.passed for r in reports),
        "suites": [r.to_structured() for r in reports],
    }

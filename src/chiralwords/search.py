"""Sweep canonical words against a group catalog for chiral pairs.

Findings are emitted as line-delimited JSON records in deterministic
(word, group) order; each record replays to identical verdicts. Pairs with
a proven-achiral shape are skipped up front: abelian groups (inversion is
an automorphism, so images are inversion-closed) and single-generator
powers ((g^k)^-1 = (g^-1)^k lands in the image).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .catalog import catalog_groups
from .engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    pair_verdicts,
    weak_verdict_from_counts,
)
from .groups import (
    DEFAULT_AUTO_CAP,
    CapExceededError,
    FiniteGroup,
    _is_int,
    enumerate_anti_automorphisms,
    parse_group_spec,
)
from .words import Word, canonical_words, parse_word, render_word


class MalformedRecordError(ValueError):
    """A finding record cannot be replayed."""


class Finding:
    """One scanned (group, word) pair with verdicts and witnesses."""

    def __init__(self, group_spec: str, group_order: int, word_text: str,
                 arity: int, chiral: Optional[bool],
                 weakly_chiral: Optional[bool], gammas_agree: Optional[bool],
                 chiral_witness: Optional[int], weak_witness: Optional[int],
                 image_size: Optional[int], evaluations: int,
                 skipped: Optional[str] = None):
        self.group_spec = group_spec
        self.group_order = group_order
        self.word_text = word_text
        self.arity = arity
        self.chiral = chiral
        self.weakly_chiral = weakly_chiral
        self.gammas_agree = gammas_agree
        self.chiral_witness = chiral_witness
        self.weak_witness = weak_witness
        self.image_size = image_size
        self.evaluations = evaluations
        self.skipped = skipped

    @property
    def highlighted(self) -> bool:
        # Achiral but weakly chiral: the open-question shape worth flagging.
        return self.chiral is False and self.weakly_chiral is True

    def to_record(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "finding",
            "group": self.group_spec,
            "order": self.group_order,
            "word": self.word_text,
            "arity": self.arity,
            "chiral": self.chiral,
            "weakly_chiral": self.weakly_chiral,
            "gammas_agree": self.gammas_agree,
            "chiral_witness": self.chiral_witness,
            "weak_witness": self.weak_witness,
            "image_size": self.image_size,
            "evaluations": self.evaluations,
            "highlighted": self.highlighted,
            "skipped": self.skipped,
        }


def _scan_pair(spec: str, g: FiniteGroup, w: Word, auto_cap: int,
               budget: int) -> Finding:
    d = w.rank
    try:
        v = pair_verdicts(g, w, budget=budget)
    except BudgetExceededError as exc:
        return Finding(spec, g.order, render_word(w), d, None, None, None,
                       None, None, None, 0, skipped=str(exc))
    # Every gamma in AA(G) is zeta o inversion for some zeta in Aut(G). When
    # the fiber counts are constant on every Aut(G)-orbit (Lemma 1), each
    # gamma pulls them back to inversion's, so it gives inversion's chiral
    # and weak verdicts and maps G_w onto (G_w)^-1.
    gammas_agree: Optional[bool]
    try:
        rep = enumerate_anti_automorphisms(g, auto_cap).orbit_minima
    except CapExceededError:  # Aut(G) not enumerated: agreement unknown
        gammas_agree = None
    else:
        gammas_agree = weak_verdict_from_counts(g, v.fibers.counts,
                                                rep) is None
    return Finding(
        group_spec=spec, group_order=g.order, word_text=render_word(w),
        arity=d, chiral=v.chiral, weakly_chiral=v.weakly_chiral,
        gammas_agree=gammas_agree,
        chiral_witness=v.chiral_witness, weak_witness=v.weak_witness,
        image_size=v.image.size, evaluations=g.order ** d)


def search_chiral(rank: int, max_len: int, max_order: int,
                  families: Optional[Sequence[str]] = None,
                  auto_cap: int = DEFAULT_AUTO_CAP,
                  budget: int = DEFAULT_BUDGET,
                  full: bool = False) -> Iterator[Finding]:
    """Scan canonical words x catalog groups; an iterator of Findings in
    order. The groups and words are built at the call, so a bad family or
    length raises before any finding is asked for.

    Abelian groups and single-generator power words are skipped as proven
    achiral. By default only positive (chiral or weakly chiral) and
    skipped findings are yielded; `full` yields every scanned pair.
    """
    groups = [(spec, g) for spec, g in catalog_groups(max_order, families)
              if not g.is_abelian]
    words = [w for w in canonical_words(rank, max_len)
             if len(w.syllables) > 1]  # not the identity or a power word
    findings = (_scan_pair(spec, g, w, auto_cap, budget)
                for w in words for spec, g in groups)
    return (f for f in findings
            if full or f.skipped or f.chiral or f.weakly_chiral)


def replay(record: dict, auto_cap: int = DEFAULT_AUTO_CAP,
           budget: int = DEFAULT_BUDGET) -> Tuple[bool, List[str]]:
    """Recompute a finding record from scratch; return (ok, mismatches)."""
    fields = record if isinstance(record, dict) else {}
    spec, word_text, arity = map(fields.get, ("group", "word", "arity"))
    for key, kind, ok in (("group", "a string", isinstance(spec, str)),
                          ("word", "a string", isinstance(word_text, str)),
                          ("arity", "an integer of at least 1",
                           _is_int(arity) and arity >= 1)):
        if not ok:
            raise MalformedRecordError(
                f"field {key!r} is missing or not {kind}")
    try:
        g = parse_group_spec(spec)
        w = parse_word(word_text, arity)
    except ValueError as exc:
        raise MalformedRecordError(str(exc)) from None
    if not fields.keys() & {"chiral", "weakly_chiral", "image_size"}:
        raise MalformedRecordError("the record states no verdict: none of "
                                   "'chiral', 'weakly_chiral', 'image_size'")
    fresh = _scan_pair(spec, g, w, auto_cap, budget).to_record()
    mismatches = []
    for key in ("order", "chiral", "weakly_chiral", "gammas_agree",
                "chiral_witness", "weak_witness", "image_size",
                "evaluations", "highlighted"):
        if key in record and record[key] != fresh[key]:
            mismatches.append(
                f"{key}: recorded {record[key]!r}, recomputed {fresh[key]!r}")
    return (not mismatches, mismatches)

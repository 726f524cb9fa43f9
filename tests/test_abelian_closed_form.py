"""Closed-form fiber counts on abelian groups.

There a word map is the homomorphism t -> prod t_i^{e_i}, so `engine.image`
reads its image G^m (m the gcd of the exponent sums) and its uniform fibers
off one power table instead of scanning G^d. `naive_image` stays the oracle.
The budget still binds first; the pinned verify skip digests
(`test_verify.py::test_skipped_pairs_keep_their_digest`) cover the skips it
causes.
"""

import time

import pytest

from chiralwords.catalog import catalog_groups
from chiralwords.engine import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    image,
    naive_image,
)
from chiralwords.groups import parse_group_spec
from chiralwords.words import parse_word

ABELIAN = [spec for spec, g in catalog_groups(32) if g.is_abelian]

# (word, rank): the identity word, exponent sums all 0, gcds that share a
# factor with exp(G) on some groups, a word that skips x1, and gcd 1.
WORDS = [
    ("e", 2),
    ("x1 x2 x1^-1 x2^-1", 2),
    ("x1^2 x2^4", 2),
    ("x1^3", 1),
    ("x1^6 x2^-4", 2),
    ("x2^-4 x1^8 x2^2", 2),
    ("x1^2 x2^3 x1 x2^-1", 2),
    ("x1^2 x3^6 x2^-4 x1", 3),
]


@pytest.mark.parametrize("spec", ABELIAN)
def test_closed_form_matches_naive(spec):
    g = parse_group_spec(spec)
    for text, rank in WORDS:
        for arity in (rank, rank + 1):
            w = parse_word(text, arity)
            if g.order ** arity <= 20000:
                assert image(g, w, want_fibers=True) == \
                    naive_image(g, w), (text, arity)


def test_closed_form_covers_the_whole_budget_at_once():
    g = parse_group_spec("C2xC2xC2")
    assert g.order ** 8 == DEFAULT_BUDGET
    for text, counts in [
            ("x1 x2 x3 x4 x5 x6 x7 x8", (8 ** 7,) * 8),
            ("x1^2 x8^-2 x3^4", (8 ** 8,) + (0,) * 7),
            ("x1 x8 x1 x8", (8 ** 8,) + (0,) * 7)]:
        start = time.perf_counter()
        _, fibers = image(g, parse_word(text, 8), want_fibers=True)
        assert time.perf_counter() - start < 0.5, text
        assert fibers.counts == counts, text
    with pytest.raises(BudgetExceededError):
        image(g, parse_word("x1", 9))


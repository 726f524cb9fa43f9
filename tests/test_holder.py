"""Hölder's metacyclic table, <a, b | a^m, b^n = a^s, b a b^-1 = a^r>,
with b^j a^i at index j*m + i.

`C<n>`, `D<n>` and `Q8` are built from it, and must keep the bytes they
had when each family had its own multiplication rule: the digest below was
measured on those rules. Every admissible parameter set of order <= 32
must give a group satisfying its presentation, and (7, 9, 2, 0) must be
the C7:C9 whose words are the pinned real positives.
"""

import hashlib
import math

import pytest

from chiralwords.engine import pair_verdicts
from chiralwords.groups import (
    _build_group,
    _holder_table,
    build_family,
    is_isomorphic,
    validate_group,
)
from chiralwords.words import parse_word

from conftest import metacyclic_c7_c9
from test_normal_fibers import CHIRAL, HIGHLIGHTED

FAMILY_SPECS = ([f"C{n}" for n in range(1, 65)]
                + [f"D{n}" for n in range(4, 65, 2)] + ["C512", "D512", "Q8"])
# sha256 over repr(_key()) of FAMILY_SPECS in order, as the per-family
# rules built them.
FAMILY_DIGEST = (
    "28407c6c57e036fee3121b25bedb8df60b29827d7201515467ff6d4e8bdf8068")


def test_family_tables_keep_their_bytes():
    digest = hashlib.sha256()
    for spec in FAMILY_SPECS:
        digest.update(repr(build_family(spec)._key()).encode())
    assert digest.hexdigest() == FAMILY_DIGEST


def admissible(max_order):
    """Every (m, n, r, s) with mn <= max_order, 0 <= r, s < m,
    gcd(r, m) = 1, r^n = 1 and s(r - 1) = 0 mod m."""
    return [(m, n, r, s)
            for m in range(1, max_order + 1)
            for n in range(1, max_order // m + 1)
            for r in range(m) for s in range(m)
            if math.gcd(r, m) == 1 and pow(r, n, m) == 1 % m
            and s * (r - 1) % m == 0]


def holder_group(m, n, r, s):
    table = _holder_table(m, n, r, s)
    return _build_group(f"H({m},{n},{r},{s})", table,
                        [str(x) for x in range(m * n)])


def test_every_admissible_table_satisfies_its_presentation():
    sets = admissible(32)
    assert (len(sets), sum(1 for p in sets if p[3])) == (945, 784)
    for m, n, r, s in sets:
        g = holder_group(m, n, r, s)
        assert validate_group(g.table) == [], (m, n, r, s)
        a = 1 if m > 1 else 0
        b = m if n > 1 else g.power(a, s)
        assert g.power(a, m) == 0, (m, n, r, s)
        assert g.power(b, n) == g.power(a, s), (m, n, r, s)
        assert g.mul(g.mul(b, a), g.inv(b)) == g.power(a, r), (m, n, r, s)


def test_c7_c9_is_the_metacyclic_group_of_the_real_positives():
    assert is_isomorphic(holder_group(7, 9, 2, 0), metacyclic_c7_c9())


@pytest.mark.parametrize("text, chiral, weakly_chiral, size", [
    (CHIRAL, True, True, 15),
    (HIGHLIGHTED, False, True, None),
])
def test_c7_c9_gives_the_pinned_verdicts(text, chiral, weakly_chiral, size):
    v = pair_verdicts(holder_group(7, 9, 2, 0), parse_word(text, 2))
    assert (v.chiral, v.weakly_chiral) == (chiral, weakly_chiral)
    if size is not None:
        assert v.image.size == size

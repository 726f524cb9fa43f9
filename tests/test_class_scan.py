"""The class-weighted image scan and the verdicts it feeds.

`engine.image` scans one first coordinate per conjugacy class and shares
each class's weighted total among its members; `naive_image` evaluates
every tuple. They must agree on every fiber count.
"""

import json
import random

import pytest

from chiralwords import engine
from chiralwords.catalog import catalog_specs
from chiralwords.engine import (
    FiberDistribution,
    WordImage,
    image,
    is_weakly_chiral_pair,
    naive_image,
    pair_verdicts,
)
from chiralwords.groups import (
    build_family,
    identity_map,
    inversion_map,
    parse_group_spec,
)
from chiralwords.words import parse_word

# (word, rank): words that skip x1, a rank above the word's largest
# generator, rank 1, the identity word (the closed form's m = 0 case), a
# commutator, and words reading 3 or more coordinates.
WORDS = [
    ("x1 x2 x1^-1 x2^-1", 2),
    ("x1 x3 x2 x4 x1^-1 x3^2", 4),
    ("x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x1^-1 x5", 10),
    ("x1^2 x2^3 x1 x2^-1", 2),
    ("x1^5 x2^-7 x1^-1 x2^12", 2),
    ("x2^2 x3", 3),
    ("x2^2 x3", 4),
    ("x1 x2^-1", 3),
    ("x1^3", 1),
    ("x1^-2", 1),
    ("e", 2),
]


def small_cases(g):
    """The WORDS words with at most 30000 tuples on g."""
    for text, rank in WORDS:
        if g.order ** rank <= 30000:
            yield parse_word(text, rank)


def assert_matches_naive(g, w):
    fast_img, fast_fibers = image(g, w, want_fibers=True)
    ref_img, ref_fibers = naive_image(g, w)
    assert fast_fibers.counts == ref_fibers.counts
    assert fast_img.members == ref_img.members
    assert fast_img.arity == ref_img.arity


@pytest.mark.parametrize("spec", ["S3", "Q8", "S4", "A5", "D24", "Q8xC2",
                                  "C6", "C2xC2"])
def test_conjugacy_classes_partition_and_are_closed(spec):
    g = parse_group_spec(spec)
    classes = g.conjugacy_classes
    members = sorted(x for cls in classes for x in cls)
    assert members == list(g.elements())
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    for cls in classes:
        assert list(cls) == sorted(cls)
        for a in g.elements():
            ai = g.inv(a)
            assert {g.mul(g.mul(a, x), ai) for x in cls} == set(cls)


@pytest.mark.parametrize("spec,count", [
    ("S3", 3), ("Q8", 5), ("S4", 5), ("A5", 5), ("D24", 9), ("Q8xC2", 10),
    ("C7", 7),
])
def test_conjugacy_class_counts(spec, count):
    assert len(parse_group_spec(spec).conjugacy_classes) == count


@pytest.mark.parametrize("spec", catalog_specs(24))
def test_class_scan_matches_naive_on_catalog(spec):
    g = parse_group_spec(spec)
    for w in small_cases(g):
        assert_matches_naive(g, w)


def test_class_scan_matches_naive_on_relabelled_cayley_file(tmp_path):
    base = parse_group_spec("S4")
    rng = random.Random(4)
    perm = list(base.elements())
    rng.shuffle(perm)
    table = [[0] * base.order for _ in base.elements()]
    for a in base.elements():
        for b in base.elements():
            table[perm[a]][perm[b]] = perm[base.table[a][b]]
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"order": base.order, "table": table}))
    g = parse_group_spec(f"@{path}")
    assert g.table != base.table
    assert len(g.conjugacy_classes) == 5
    for w in small_cases(g):
        assert_matches_naive(g, w)
    rng = random.Random(5)
    for _ in range(10):
        letters = [f"x{rng.randint(1, 3)}^{rng.choice([-2, -1, 1, 2])}"
                   for _ in range(rng.randint(2, 6))]
        assert_matches_naive(g, parse_word(" ".join(letters), 3))


def test_positive_chiral_and_weak_verdicts(monkeypatch):
    # Fibers (1, 2, 0) on C3: G_w = {0, 1} is not closed under inversion
    # (1^-1 = 2), and N(1) = 2 != 0 = N(1^-1). No real word on C3 has
    # them; they test the verdict logic, which the catalog never drives
    # to a positive answer.
    g = build_family("C3")
    w = parse_word("x1", 1)
    fake = (WordImage(g, w, (True, True, False)),
            FiberDistribution(g, w, (1, 2, 0)))
    monkeypatch.setattr(engine, "image",
                        lambda *args, **kwargs: fake)
    v = pair_verdicts(g, w)
    assert v.chiral_witness == 1 and v.chiral
    assert v.weak_witness == 1 and v.weakly_chiral
    [inv] = v.against([inversion_map(g)])
    assert (inv.chiral, inv.weak_witness) == (v.chiral, v.weak_witness)
    # On abelian C3 the identity is an anti-automorphism too; it fixes
    # G_w and every fiber, so it disagrees with inversion.
    [ident] = v.against([identity_map(g)])
    assert not ident.chiral and ident.weak_witness is None
    assert (ident.chiral, ident.weak_witness) != (v.chiral, v.weak_witness)
    report = is_weakly_chiral_pair(g, w, [inversion_map(g)])
    assert report.weakly_chiral and report.weak_witness == 1

"""Fiber counts on direct products, from the factors' counts.

(A x B)^d = A^d x B^d and a word map is evaluated componentwise, so
N_w(a, b) = N_w^A(a) * N_w^B(b). `engine.image` builds a nonabelian
product's counts as that outer product and scans only the factors;
`naive_image` stays the oracle, and a relabelled Cayley file of the same
group, which carries no factors, is still scanned whole.
"""

import json
import random

import pytest

from chiralwords import engine
from chiralwords.cli import main
from chiralwords.engine import image, naive_image
from chiralwords.groups import (
    FiniteGroup,
    from_cayley_document,
    load_group_file,
    parse_group_spec,
)
from chiralwords.verify import canonical_words
from chiralwords.words import Word, parse_word

PRODUCTS = ["Q8xC2", "S3xC2", "S3xS3", "D8xC3", "C2xS3", "S3xC2xC2",
            "A4xC2", "C3xQ8"]
WORDS = [(w, rank) for rank, max_len in ((1, 4), (2, 4))
         for w in canonical_words(rank, max_len)]


@pytest.fixture
def scanned_orders(monkeypatch):
    """The order of every group a whole-group scan runs on: the class scan
    or the scan over an abelian normal subgroup."""
    orders = []
    for name in ("_class_scan", "_normal_scan"):
        def spy(g, *args, scan=getattr(engine, name)):
            orders.append(g.order)
            return scan(g, *args)

        monkeypatch.setattr(engine, name, spy)
    return orders


@pytest.mark.parametrize("spec", PRODUCTS)
def test_product_counts_match_naive(spec):
    g = parse_group_spec(spec)
    assert g.factors is not None
    cases = 0
    for w, rank in WORDS:
        for arity in (rank, rank + 1):
            if g.order ** arity <= 20000:
                wd = Word(arity, w.syllables)
                assert image(g, wd, want_fibers=True) == \
                    naive_image(g, wd), (w, arity)
                cases += 1
    assert cases >= len(WORDS)


def test_products_keep_their_factors_left_to_right():
    g = parse_group_spec("S3xS3xC2")
    left, right = g.factors
    assert (left.name, right.name) == ("S3xS3", "C2")
    assert [f.name for f in left.factors] == ["S3", "S3"]
    assert left.factors[0].factors is None
    assert parse_group_spec("S4").factors is None


def test_product_scans_only_its_factors(scanned_orders):
    g = parse_group_spec("S4xC2")
    w = parse_word("x1^2 x2 x3^-1 x1 x2^3", 3)
    _, fibers = image(g, w, want_fibers=True)
    assert scanned_orders == [24]  # S4; C2 takes the abelian closed form
    whole = FiniteGroup(g.name, g.order, g.table, g.inverses, g.labels)
    _, scanned = image(whole, w, want_fibers=True)
    assert scanned_orders == [24, 48]
    assert fibers == scanned


def test_scans_over_an_abelian_normal_subgroup_are_seen(scanned_orders):
    g = parse_group_spec("D8xC3")
    w = parse_word("x1^2 x2 x1^-1 x2^3", 2)
    _, fibers = image(g, w, want_fibers=True)
    assert scanned_orders == [8]  # D8 over its rotations; C3 closed form
    whole = FiniteGroup(g.name, g.order, g.table, g.inverses, g.labels)
    assert image(whole, w, want_fibers=True)[1] == fibers
    assert scanned_orders == [8, 24]


def test_relabelled_cayley_file_is_scanned_whole(tmp_path, scanned_orders):
    g = parse_group_spec("S4xC2")
    perm = list(range(g.order))
    random.Random(48).shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    labels = [""] * g.order
    for a in g.elements():
        labels[perm[a]] = g.labels[a]
        for b in g.elements():
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    path = tmp_path / "s4xc2.json"
    path.write_text(json.dumps({"name": "S4xC2", "order": g.order,
                                "table": table, "labels": labels}))
    f = load_group_file(path)
    assert f.factors is None and f != g
    for text, rank in [("x1^2 x2^-1 x1 x2", 2), ("x1 x2^2 x1^-1 x2^3", 3),
                       ("x1^3 x3 x2^-2 x3", 3)]:
        w = parse_word(text, rank)
        scanned_orders.clear()
        _, file_fibers = image(f, w, want_fibers=True)
        _, fibers = image(g, w, want_fibers=True)
        assert scanned_orders == [48, 24], text
        by_label = dict(zip(g.labels, fibers.counts))
        assert dict(zip(f.labels, file_fibers.counts)) == by_label, text


def test_product_budget_refusal_is_unchanged(capsys):
    code = main(["image", "--group", "S4xC2", "--word", "x1 x2",
                 "--rank", "5", "--budget", "1000"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: 48^5 = 254803968 tuples exceed budget 1000; lower the "
        "rank or group order, or raise --budget\n")


def test_a_file_of_the_same_table_is_the_same_group_without_factors():
    g = parse_group_spec("C2xS3")
    f = from_cayley_document({"name": g.name, "order": g.order,
                              "table": [list(row) for row in g.table],
                              "labels": list(g.labels)})
    assert f.factors is None
    assert f == g and hash(f) == hash(g)
    assert "factors" not in repr(g)
    w = parse_word("x1^2 x2^3 x1 x2^-1", 2)
    assert image(f, w, want_fibers=True) == image(g, w, want_fibers=True)

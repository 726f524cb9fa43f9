"""Fast paths that must give the bytes and errors of their slow forms.

`parse_word` reads reduced text in the canonical alphabet with one regex
pass and leaves everything else to its character walk, which alone raises
WordSyntaxError. `reports.dumps_line` reuses one compact JSON encoder.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwords import words
from chiralwords.reports import dumps_line
from chiralwords.search import search_chiral
from chiralwords.words import (MAX_DIGITS, WordSyntaxError, canonical_words,
                               identity_word, parse_word, render_word)


def walked(text, rank):
    """parse_word with the fast path left out."""
    if text.strip() == "e":
        return identity_word(rank)
    return words._walk_word(text, rank)


def outcome(parse, text, rank):
    try:
        return parse(text, rank)
    except WordSyntaxError as exc:
        return ("error", str(exc), exc.position)


LONG = "1" * MAX_DIGITS
SPECIAL = ["x1x2", "x1^+2", "x01", "x1^0", "x1^-0", "²", "x²", "x1^²",
           " ", "", "e", " e ", "x1*x1^-1", "x0", "x1^", "x", "x1\tx2",
           "x" + LONG, "x" + LONG + "1", "x1^" + LONG, "x1^-" + LONG + "1",
           "x1^" + LONG + "1", "x1^--2", "x1 ^2", "**x2**"]
TEXT = (st.sampled_from(SPECIAL)
        | st.text("x0123456789^-+* \t²e", max_size=12)
        | st.lists(st.sampled_from(SPECIAL) | st.text("x12^-* ", max_size=4),
                   max_size=4).map("".join))


@settings(max_examples=300, deadline=None)
@given(TEXT, st.integers(1, 4) | st.just(10 ** 700))
def test_both_paths_give_one_word_or_one_error(text, rank):
    assert outcome(parse_word, text, rank) == outcome(walked, text, rank)


def test_canonical_text_skips_the_walk(monkeypatch):
    texts = [render_word(w) for w in canonical_words(3, 4)]
    expected = [walked(t, 3) for t in texts]
    walks, walk = [], words._walk_word
    monkeypatch.setattr(words, "_walk_word",
                        lambda *args: walks.append(args) or walk(*args))
    assert [parse_word(t, 3) for t in texts] == expected
    assert walks == []
    for text in ("x1^+2", "x1\tx2", "x1*x1^-1", "x4", "x1^" + LONG + "1"):
        outcome(parse_word, text, 3)
    assert [t for t, _ in walks] == [
        "x1^+2", "x1\tx2", "x1*x1^-1", "x4", "x1^" + LONG + "1"]


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def test_dumps_line_matches_json_dumps_on_the_sweep_records():
    records = [f.to_record() for f in search_chiral(2, 5, 24, full=True)]
    assert records
    for record in records:
        assert dumps_line(record) == compact(record)


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 10 ** 40])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_dumps_line_matches_json_dumps(obj):
    assert dumps_line(obj) == compact(obj)


def test_dumps_line_on_named_values():
    for obj in ([math.nan, math.inf, -math.inf], {"é": "😀 "},
                {"a": [{"b": [None, True, 1.5]}]}, [], {}, "", 0):
        assert dumps_line(obj) == compact(obj)

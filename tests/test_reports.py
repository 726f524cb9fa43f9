"""`reports.dumps` renders the bytes of json.dumps(obj, indent=2)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chiralwords import reports
from chiralwords.engine import is_chiral_pair
from chiralwords.groups import enumerate_anti_automorphisms, parse_group_spec
from chiralwords.words import parse_word

VALUES = [
    {"schema_version": 1, "kind": "image", "members": [0, 3, 5],
     "counts": [4, 0, 2, -1, 10 ** 30], "chiral": False, "weak": True,
     "witness": None, "wall_time_s": 0.0012, "empty": [], "none": {}},
    [{"gamma_index": 0, "chiral": True}, {"gamma_index": 1, "x": [[], [1]]}],
    ["é\n\"\\\t ", "(1 2)(3 4)", "", "\U0001f600"],
    [1, True, 2], [True, False], (1, 2), [1.5, -0.0, 1e300, 2.5e-8],
    3, -7, "s", None, True, 0.1, [], {},
    # Left to json.dumps: non-str keys, non-finite floats, subclasses.
    {1: "a", "b": 2}, {"x": float("nan")}, [float("inf")],
    {"x": type("Sub", (int,), {})(5)},
]

# Lists of records, the shape a report's gamma results take: the ones
# whose fields are all ints, all strs or all bools and nulls render in one
# format pass, and every other one item by item, with the same bytes.
RECORDS = {
    "gamma-results": [{"gamma_index": i, "chiral": i % 3 == 0}
                      for i in range(7)],
    "all-field-kinds": [{"i": 1, "s": "a", "b": None},
                        {"i": -2, "s": "", "b": True}],
    "int-and-true": [{"v": 1}, {"v": True}],
    "percent-key": [{"100%": 1, "%s": "%d", "%%": None},
                    {"100%": 2, "%s": "%", "%%": False}],
    "escapes": [{"é\"\n": "é\"\n\\", "k": "\U0001f600",
                 "\u2028": "\u2028"},
                {"é\"\n": "\t", "k": "", "\u2028": "a\u2028b"}],
    "key-order": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "key-set": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "extra-key": [{"a": 1}, {"a": 1, "b": 2}],
    "nested-list": [{"a": [1, 2]}, {"a": [3]}],
    "nested-dict": [{"a": {"b": 1}}, {"a": {"b": 2}}],
    "floats": [{"x": 0.5}, {"x": 1.5}],
    "nan": [{"x": 1}, {"x": float("nan")}],
    "dict-subclass": [{"a": 1}, type("Sub", (dict,), {})(a=2)],
    "non-str-key": [{1: "a"}, {1: "b"}],
    "one-record": [{"gamma_index": 0, "chiral": False}],
    "empty-records": [{}, {}],
    "tuple-of-records": ({"a": 1}, {"a": 2}),
    "records-in-a-record": {"outer": [{"a": 1}, {"a": 2}], "n": 0},
    "str-list": ["(1 2)", "é", "\"", "%s"],
    "bools-and-nulls": [True, None, False],
}


@pytest.mark.parametrize("value", VALUES + list(RECORDS.values()),
                         ids=list(range(len(VALUES))) + list(RECORDS))
def test_dumps_matches_json_dumps(value):
    assert reports.dumps(value) == json.dumps(value, indent=2)


SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
           | st.floats(allow_nan=True, allow_infinity=True))
JSON_LIKE = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)
                   | st.lists(st.fixed_dictionaries(
                       {"k": inner, "%": SCALARS}), max_size=3)),
    max_leaves=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_LIKE)
def test_dumps_matches_json_dumps_on_any_json_like_value(value):
    assert reports.dumps(value) == json.dumps(value, indent=2)


def test_a_report_renders_its_gamma_records_in_bulk(monkeypatch):
    """One `_render` call per field and list, not one per gamma: a report
    whose records fell back to the item-by-item path would call it three
    times per gamma."""
    a5 = parse_group_spec("A5")
    gammas = enumerate_anti_automorphisms(a5)
    doc = is_chiral_pair(a5, parse_word("x1 x2 x1^-1", 2),
                         gammas=gammas).to_structured()
    assert len(doc["gamma_results"]) == len(gammas) == 120
    calls = []
    render = reports._render

    def counting(obj, newline):
        calls.append(obj)
        return render(obj, newline)

    monkeypatch.setattr(reports, "_render", counting)
    assert reports.dumps(doc) == json.dumps(doc, indent=2)
    assert len(calls) <= len(doc) + 1

"""`reports.dumps` renders the bytes of json.dumps(obj, indent=2)."""

import json

import pytest

from chiralwords import reports

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


@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_dumps_matches_json_dumps(value):
    assert reports.dumps(value) == json.dumps(value, indent=2)

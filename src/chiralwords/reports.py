"""Structured report rendering and stable digests.

Structured output is JSON with a fixed field order. The stable digest
strips wall-time fields first, so byte-identical digests are expected
across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Optional, Sequence, Set

_TIMING_KEYS = {"wall_time_s"}
_CONSTANTS = {True: "true", False: "false", None: "null"}
_CONSTANT_TYPES = {bool, type(None)}
# json.dumps builds an encoder per call when given separators; this is it.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def strip_timing(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class _Unrendered(Exception):
    """A value `_render` leaves to `json.dumps`."""


def dumps(obj: Any) -> str:
    """The bytes of json.dumps(obj, indent=2), rendered without its
    pure-Python encoder: strings and numbers go through the C-level
    `encode_basestring_ascii`, `int.__repr__` and `float.__repr__`. A list
    of all ints, all strs or all bools and nulls is converted column-wise
    in C and joined once, and so is each field of a list of same-shaped
    flat records, which then fill one `%` format. Any value outside plain
    JSON types (a non-str key, a NaN or infinite float, a subclass) falls
    back to json.dumps."""
    try:
        return _render(obj, "\n")
    except _Unrendered:
        return json.dumps(obj, indent=2)


def _render(obj: Any, newline: str) -> str:
    """obj rendered as by json.dumps(obj, indent=2), where `newline` is a
    newline plus the indentation of obj's own line."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, obj))
        items = _scalar_texts(obj, kinds)
        if items is None:
            records = _render_records(obj, inner) if kinds == {dict} else None
            if records is not None:
                return "[" + inner + records + newline + "]"
            items = [_render(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for k, v in obj.items():
            if type(k) is not str:
                raise _Unrendered
            items.append(encode_basestring_ascii(k) + ": " + _render(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind in _CONSTANT_TYPES:
        return _CONSTANTS[obj]
    raise _Unrendered


def _scalar_texts(values: Sequence[Any], kinds: Set[type]
                  ) -> Optional[Iterable[str]]:
    """The JSON texts of `values`, whose types are `kinds`, converted in C
    when they are all ints, all strs, or all bools and Nones; else None."""
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if kinds <= _CONSTANT_TYPES:
        return map(_CONSTANTS.__getitem__, values)
    return None


def _render_records(records: Sequence[dict], newline: str) -> Optional[str]:
    """The items of a list of plain dicts, each on a line indented by
    `newline`, joined as `_render` joins list items; None unless every
    dict has the same str keys in the same order and each field's values
    pass `_scalar_texts`. One template per record, repeated, takes the
    fields' texts interleaved record by record in a single `%` format."""
    shapes = set(map(tuple, records))
    if len(shapes) != 1:
        return None
    (keys,) = shapes
    if not keys or set(map(type, keys)) != {str}:
        return None
    columns = []
    for key in keys:
        column = list(map(operator.itemgetter(key), records))
        texts = _scalar_texts(column, set(map(type, column)))
        if texts is None:
            return None
        columns.append(texts)
    inner = newline + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s"
        for k in keys) + newline + "}"
    return (("," + newline).join([template] * len(records))
            % tuple(chain.from_iterable(zip(*columns))))


def dumps_line(obj: Any) -> str:
    return _LINE_ENCODER.encode(obj)


def stable_digest(obj: Any) -> str:
    canonical = json.dumps(strip_timing(obj), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

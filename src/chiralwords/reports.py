"""Structured report rendering and stable digests.

Structured output is JSON with a fixed field order. The stable digest
strips wall-time fields first, so byte-identical digests are expected
across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

_TIMING_KEYS = {"wall_time_s"}


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
    `encode_basestring_ascii`, `int.__repr__` and `float.__repr__`, and a
    list of ints is one join. Any value outside plain JSON types (a
    non-str key, a NaN or infinite float, a subclass) falls back to
    json.dumps."""
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
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
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
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise _Unrendered


def dumps_line(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def stable_digest(obj: Any) -> str:
    canonical = json.dumps(strip_timing(obj), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

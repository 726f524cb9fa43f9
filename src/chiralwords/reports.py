"""Structured report rendering and stable digests.

Structured output is JSON with a fixed field order. The stable digest
strips wall-time fields first, so byte-identical digests are expected
across runs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

SCHEMA_VERSION = 1

_TIMING_KEYS = {"wall_time_s"}


def strip_timing(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2)


def dumps_line(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def stable_digest(obj: Any) -> str:
    canonical = json.dumps(strip_timing(obj), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

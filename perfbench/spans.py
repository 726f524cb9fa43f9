"""Spans around the public entry points of each chiralwords layer.

The tracer wraps every entry point at every name its callers use: a
function is replaced in each loaded `chiralwords` module whose attribute is
that very function object, and methods are replaced on their class. Each
call records a span (name, start, end, parent index) in memory; per-layer
figures are computed from the spans when the traced phase ends. An entry
point that no longer exists is skipped, and its metrics are left out of the
result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module under chiralwords, attribute or Class.method)
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.image", "engine", "image"),
    ("engine.evaluate", "engine", "evaluate"),
    ("engine.weak_verdict", "engine", "weak_verdict_from_counts"),
    ("engine.map_set", "engine", "map_set"),
    ("groups.parse_spec", "groups", "parse_group_spec"),
    ("groups.validate", "groups", "validate_group"),
    ("groups.autos", "groups", "enumerate_automorphisms"),
    ("groups.anti_autos", "groups", "enumerate_anti_automorphisms"),
    ("groups.map_check", "groups", "GroupMap.__post_init__"),
    ("groups.map_inverse", "groups", "GroupMap.inverse"),
    ("words.random_auto", "words", "random_automorphism"),
    ("words.substitute", "words", "substitute"),
    ("words.apply_anti", "words", "apply_anti"),
    ("words.parse_word", "words", "parse_word"),
    ("verify.canonical_words", "verify", "canonical_words"),
    ("search.scan_pair", "search", "_scan_pair"),
    ("search.replay", "search", "replay"),
    ("catalog.groups", "catalog", "catalog_groups"),
    ("reports.dumps", "reports", "dumps"),
    ("reports.dumps_line", "reports", "dumps_line"),
    ("reports.digest", "reports", "stable_digest"),
    ("cli.main", "cli", "main"),
)

# Spans that are one layer's work for an "outer time" metric: a span counts
# only when no ancestor belongs to the same set, so nested calls (anti-autos
# calling autos, compose calling substitute) are not counted twice.
OUTER_GROUPS: Dict[str, Tuple[str, ...]] = {
    "groups.autos_s": ("groups.autos", "groups.anti_autos"),
    "groups.map_check_s": ("groups.map_check",),
    "groups.validate_s": ("groups.validate",),
    "words.random_auto_s": ("words.random_auto",),
    "words.substitute_s": ("words.substitute",),
    "words.apply_anti_s": ("words.apply_anti",),
    "words.parse_word_s": ("words.parse_word",),
    "verify.canonical_words_s": ("verify.canonical_words",),
    "catalog.groups_s": ("catalog.groups",),
    "reports.dumps_s": ("reports.dumps", "reports.dumps_line"),
    "reports.digest_s": ("reports.digest",),
}

# metric name -> span name whose call count it reports
CALL_COUNTS: Dict[str, str] = {
    "engine.image.calls": "engine.image",
    "engine.weak_verdict.calls": "engine.weak_verdict",
    "engine.map_set.calls": "engine.map_set",
    "engine.evaluate.calls": "engine.evaluate",
    "groups.map_checks": "groups.map_check",
    "groups.parse_spec.calls": "groups.parse_spec",
    "groups.validate.calls": "groups.validate",
    "words.random_auto.calls": "words.random_auto",
}

# metric name -> span name whose summed self time it reports
SELF_TIMES: Dict[str, str] = {
    "engine.image.self_s": "engine.image",
    "engine.weak_verdict.self_s": "engine.weak_verdict",
    "engine.map_set.self_s": "engine.map_set",
    "engine.evaluate.self_s": "engine.evaluate",
    "groups.parse_spec.self_s": "groups.parse_spec",
    "search.scan_pair.self_s": "search.scan_pair",
    "cli.self_s": "cli.main",
}

# Every metric metrics() can report; one missing from its result belongs to
# an entry point that no longer exists.
METRICS = (tuple(CALL_COUNTS) + tuple(SELF_TIMES) + tuple(OUTER_GROUPS) + (
    "engine.tuples", "engine.tuples_per_s", "groups.autos.misses",
    "groups.autos.hits", "words.random_auto.distinct_frac"))

# A ratio of counts: like the integer counts, it must repeat across traced
# runs of one seed, so the benchmark compares it between traced iterations.
DETERMINISTIC = ("words.random_auto.distinct_frac",)


def clock() -> float:
    """Seconds on CLOCK_MONOTONIC."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when the entry is gone."""
    try:
        mod = importlib.import_module(f"chiralwords.{module}")
    except ImportError:
        return None
    owner = mod
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Records spans around chiralwords entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.stack: List[int] = []
        self.tuples = 0
        self.random_auto_args: List[tuple] = []
        self.originals: Dict[str, Callable] = {}
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack
        on_result = {
            "engine.image": self._count_tuples,
            "words.random_auto": self._record_auto_args,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_tuples(self, args, kwargs, result) -> None:
        img = result[0] if isinstance(result, tuple) else result
        self.tuples += img.group.order ** img.arity

    def _record_auto_args(self, args, kwargs, result) -> None:
        self.random_auto_args.append(tuple(args) + tuple(sorted(kwargs.items())))

    def install(self) -> None:
        for name, module, attr in ENTRY_POINTS:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, key, original = found
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, key, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "chiralwords" and not mod_name.startswith("chiralwords."):
                    continue
                for attr_name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr_name, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures from the recorded spans and cache counters."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = {}
        self_time: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[index]

        def outer_time(members: Tuple[str, ...]) -> float:
            total = 0.0
            for span in spans:
                name, start, end, parent = span
                if name not in members:
                    continue
                while parent >= 0 and self.spans[parent][0] not in members:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += end - start
            return total

        present = set(self.originals)
        out: Dict[str, float] = {}
        for metric, name in CALL_COUNTS.items():
            if name in present:
                out[metric] = calls.get(name, 0)
        for metric, name in SELF_TIMES.items():
            if name in present:
                out[metric] = self_time.get(name, 0.0)
        for metric, members in OUTER_GROUPS.items():
            if all(m in present for m in members):
                out[metric] = outer_time(members)
        if "engine.image" in present:
            out["engine.tuples"] = self.tuples
            image_s = self_time.get("engine.image", 0.0)
            out["engine.tuples_per_s"] = self.tuples / image_s if image_s else 0.0
        autos = [self.originals.get(n) for n in ("groups.autos", "groups.anti_autos")]
        if all(hasattr(fn, "cache_info") for fn in autos):
            infos = [fn.cache_info() for fn in autos]
            out["groups.autos.misses"] = sum(i.misses for i in infos)
            out["groups.autos.hits"] = sum(i.hits for i in infos)
        if "words.random_auto" in present:
            n = len(self.random_auto_args)
            out["words.random_auto.distinct_frac"] = (
                len(set(self.random_auto_args)) / n if n else 0.0)
        return out

"""The output contract, pinned: the bytes that a change below the output
(a faster scan, a new route, a refactor) must leave as they are.

- `verify` at the CLI defaults: the stable digest of `run_all(Bounds())`,
  with each suite's cases and skips.
- `search --rank 2 --max-len 6 --max-order 24 --full`: the sha256 of its
  JSONL, one `reports.dumps_line` record per line.
"""

import hashlib

from chiralwords import reports
from chiralwords.search import search_chiral
from chiralwords.verify import Bounds, run_all, summarize

RUN_ALL_DIGEST = \
    "c8b31f16e4862f1cd2b7cabf8ef7e48bff4526884d173b336eff2425f225f13c"
# (cases, skips) of lemma1, thm1, thm2 and remark.
RUN_ALL_CASES = [(17568, 0), (6120, 0), (14508, 0), (15120, 0)]
SWEEP_SHA256 = \
    "ac84a69abd1ee8d6a0c678d5bffc9ec79f8ccd55c47ec27d416224cc826822e1"
SWEEP_RECORDS = 1590


def test_verify_at_the_defaults_keeps_its_digest():
    results = run_all(Bounds())
    assert [r.suite for r in results] == ["lemma1", "thm1", "thm2", "remark"]
    assert [(r.cases, len(r.skipped)) for r in results] == RUN_ALL_CASES
    assert all(r.passed for r in results)
    assert reports.stable_digest(summarize(results)) == RUN_ALL_DIGEST


def test_sweep_keeps_its_jsonl_bytes():
    lines = [reports.dumps_line(f.to_record()) + "\n"
             for f in search_chiral(2, 6, 24, full=True)]
    assert len(lines) == SWEEP_RECORDS
    data = "".join(lines).encode()
    assert hashlib.sha256(data).hexdigest() == SWEEP_SHA256

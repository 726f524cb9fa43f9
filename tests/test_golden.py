"""Byte-identity pins: sweep findings and structured CLI reports.

The expected bytes were recorded from the original implementation; any
change to verdicts, witnesses, field order or rendering shows here.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from chiralwords import reports
from chiralwords.cli import main
from chiralwords.search import replay, search_chiral

GOLDEN = Path(__file__).parent / "golden"

SWEEP_LINES = 52
SWEEP_SHA256 = "56a0e86b58a63af8554912fd603929c4869bc67580f828f39401fc558b1921a2"


def test_sweep_bytes_and_replay():
    lines = [reports.dumps_line(f.to_record())
             for f in search_chiral(rank=2, max_len=4, max_order=8, full=True)]
    data = "".join(line + "\n" for line in lines).encode()
    assert len(lines) == SWEEP_LINES
    assert hashlib.sha256(data).hexdigest() == SWEEP_SHA256
    for line in lines:
        ok, mismatches = replay(json.loads(line))
        assert ok, (line, mismatches)


@pytest.mark.parametrize("command", ["chiral", "weak-chiral"])
def test_s4_report_bytes(capsys, command):
    code = main([command, "--group", "S4", "--word", "x1^2 x2^3 x1 x2^-1",
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    out = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0.0', out)
    assert out == (GOLDEN / f"s4-{command}.json").read_text()


# All 120 anti-automorphisms of A5, on a word with the whole group as its
# image and on one whose image is a proper subset (16 elements).
A5_WORDS = {"mixed": "x1^2 x2^3 x1 x2^-1", "powers": "x1^6 x2^15 x1^-6"}


@pytest.mark.parametrize("name", sorted(A5_WORDS))
@pytest.mark.parametrize("command", ["chiral", "weak-chiral"])
def test_a5_per_gamma_report_bytes(capsys, command, name):
    code = main([command, "--group", "A5", "--word", A5_WORDS[name],
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    out = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0.0', out)
    expected = (GOLDEN / f"a5-{name}-{command}.json").read_text()
    assert out == expected
    assert len(json.loads(expected)["gamma_results"]) == 120

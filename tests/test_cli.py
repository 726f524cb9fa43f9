import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chiralwords
from chiralwords import cli
from chiralwords.cli import main
from chiralwords.groups import MAX_AUTOMORPHISMS
from chiralwords.words import MAX_DIGITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_list(capsys):
    code, out, _ = run(capsys, "group", "list", "--max-order", "8",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    specs = [g["spec"] for g in doc["groups"]]
    assert "C8" in specs and "Q8" in specs and "S3" in specs


def test_group_show(capsys):
    code, out, _ = run(capsys, "group", "show", "C4", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert doc["table"][1][3] == 0


def test_group_autos(capsys):
    code, out, _ = run(capsys, "group", "autos", "C4", "--format", "structured")
    assert code == 0
    assert len(json.loads(out)["automorphisms"]) == 2
    code, out, _ = run(capsys, "group", "autos", "S3", "--format", "structured")
    assert len(json.loads(out)["automorphisms"]) == 6


@pytest.mark.parametrize("action", [["list", "--max-order", "4"],
                                    ["show", "C4"], ["autos", "C4"]])
def test_group_flags_follow_the_action(capsys, action):
    # After the action the common flags apply; before it, `group` has none
    # to take, so they are refused instead of being silently dropped.
    code, out, _ = run(capsys, "group", *action, "--format", "structured")
    assert code == 0 and json.loads(out)["schema_version"] == 1
    for flags in (["--format", "structured"], ["--auto-cap", "8"],
                  ["--budget", "5"], ["--format=structured"]):
        with pytest.raises(SystemExit) as exc:
            main(["group", *flags, *action])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["group", "list", "--budget", "1"],
    ["group", "list", "--auto-cap", "1"],
    ["group", "show", "C4", "--budget", "1"],
    ["group", "show", "C4", "--auto-cap", "1"],
    ["group", "autos", "S3", "--budget", "1"],
    ["image", "--group", "S3", "--word", "x1", "--auto-cap", "1"],
    ["search", "--max-len", "2", "--max-order", "6", "--format", "structured"],
    ["replay", "findings.jsonl", "--format", "structured"],
])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def test_image_command(capsys):
    code, out, _ = run(capsys, "image", "--group", "C4", "--word", "x1^2",
                       "--fibers", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [0, 2]
    assert doc["counts"] == [2, 0, 2, 0]
    code, out, _ = run(capsys, "image", "--group", "S3",
                       "--word", "x1 x2 x1^-1 x2^-1", "--format", "structured")
    assert len(json.loads(out)["members"]) == 3
    code, out, _ = run(capsys, "image", "--group", "C6", "--word", "x1",
                       "--format", "structured")
    assert len(json.loads(out)["members"]) == 6


def test_chiral_command(capsys):
    code, out, _ = run(capsys, "chiral", "--group", "C12",
                       "--word", "x1^3 x2^2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["chiral"] is False
    assert doc["all_gammas_agree"] is True
    code, out, _ = run(capsys, "chiral", "--group", "S4", "--word", "x1^2",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["chiral"] is False


def test_weak_chiral_command(capsys):
    code, out, _ = run(capsys, "weak-chiral", "--group", "C4",
                       "--word", "x1^2", "--gamma", "inv",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["weakly_chiral"] is False
    code, out, _ = run(capsys, "weak-chiral", "--group", "S3",
                       "--word", "x1^2", "--format", "structured")
    assert json.loads(out)["all_gammas_agree"] is True


def test_gamma_index_selection(capsys):
    code, out, _ = run(capsys, "chiral", "--group", "S3", "--word", "x1 x2",
                       "--gamma", "0", "--format", "structured")
    assert code == 0
    code, _, err = run(capsys, "chiral", "--group", "S3", "--word", "x1 x2",
                       "--gamma", "99")
    assert code == 2
    assert "out of range" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-order", "6",
                       "--max-len", "2", "--theta-samples", "2",
                       "--gamma-samples", "2", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert "stable_digest" in doc


def test_verify_degenerate_bounds(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-order", "1",
                       "--max-len", "0")
    assert code == 0


def test_verify_seed_reproducible(capsys):
    args = ("verify", "lemma1", "--max-order", "6", "--max-len", "2",
            "--seed", "3", "--format", "structured")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert json.loads(out1)["stable_digest"] == \
        json.loads(out2)["stable_digest"]


def test_search_and_replay_commands(capsys, tmp_path):
    out_path = tmp_path / "findings.jsonl"
    code, _, _ = run(capsys, "search", "--rank", "2", "--max-len", "3",
                     "--max-order", "6", "--full", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines
    code, out, _ = run(capsys, "replay", str(out_path))
    assert code == 0
    assert all("pass" in line for line in out.splitlines())
    # tamper with one record
    record = json.loads(lines[0])
    record["image_size"] = (record["image_size"] or 0) + 1
    bad_path = tmp_path / "bad.jsonl"
    bad_path.write_text(json.dumps(record) + "\n")
    code, out, _ = run(capsys, "replay", str(bad_path))
    assert code == 1
    assert "MISMATCH" in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "group", "show", "E8")
    assert code == 2
    code, _, err = run(capsys, "image", "--group", "C4", "--word", "x1^^")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_budget_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "image", "--group", "S4", "--word", "x1 x2",
                       "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_huge_arity_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "image", "--group", "S3", "--word", "x1 x2",
                       "--arity", str(10 ** 9))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "exceed budget" in err and len(err) < 200


def test_repeated_queries_give_identical_output(capsys):
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "image", "--group", "S4", "--word",
                        "x1 x2 x1^-1 x2^-1", "--fibers",
                        "--format", "structured")
        outputs.add(out)
    assert len(outputs) == 1


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["image", "--group", "S3", "--word", "x1 x2", "--threads", "2"])
    assert exc.value.code == 2


def test_human_format_default(capsys):
    code, out, _ = run(capsys, "chiral", "--group", "C6", "--word", "x1 x2")
    assert code == 0
    assert "not chiral" in out


def test_word_beyond_inferred_rank_names_the_limit(capsys):
    code, _, err = run(capsys, "image", "--group", "S3", "--word", "x65")
    assert code == 2
    assert "x1..x64" in err and "--rank" in err
    assert "exceeds rank 64" not in err
    code, out, _ = run(capsys, "image", "--group", "C1", "--word", "x65",
                       "--rank", "65", "--format", "structured")
    assert code == 0
    assert json.loads(out)["arity"] == 65


def cli_process(*argv, **kwargs):
    """Start the CLI in a fresh interpreter on this checkout's package."""
    src = str(Path(chiralwords.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "chiralwords.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("command,predicate", [
    ("chiral", "is_chiral_pair"), ("weak-chiral", "is_weakly_chiral_pair")])
def test_commands_build_their_report_with_one_predicate_call(
        capsys, monkeypatch, command, predicate):
    real, calls = getattr(cli, predicate), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, predicate, counting)
    for gamma in ([], ["--gamma", "inv"], ["--gamma", "1"]):
        calls.clear()
        code, out, _ = run(capsys, command, "--group", "S3", "--word",
                           "x1^2 x2", "--format", "structured", *gamma)
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["gamma_results"]


@pytest.mark.parametrize("argv", [
    ["--group", "D128", "--word", "x1 x2 x3 x4"],
    ["--group", "S3", "--word", " ".join(f"x{i}" for i in range(1, 11)),
     "--gamma", "99"]])
def test_flags_are_checked_before_the_scan(capsys, argv):
    """Gammas are selected at entry, so both commands refuse a bad
    --gamma or an Aut(G) above --auto-cap before a scan over the budget."""
    codes = {run(capsys, command, *argv)[0]
             for command in ("chiral", "weak-chiral")}
    assert codes == {2}


def test_automorphism_enumeration_stops_at_its_bound():
    # |Aut(C2^5)| = |GL(5,2)| is about 10^7; the order 32 is under the cap.
    start = time.perf_counter()
    proc = cli_process("group", "autos", "C2xC2xC2xC2xC2", text=True)
    try:
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert f"more than {MAX_AUTOMORPHISMS} automorphisms" in err


def test_closed_pipe_ends_the_run_quietly():
    # About 280 kB of records: more than a pipe holds, so the writer sees
    # the reader close.
    proc = cli_process("search", "--max-len", "6", "--max-order", "16",
                       "--full")
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
    assert all(line.startswith(b"{") for line in lines)
    assert err == b""


@pytest.mark.parametrize("word,position", [
    ("x1^" + "1" * 5000, 3), ("x1 x" + "1" * 5000, 4)],
    ids=["exponent", "index"])
def test_long_integers_in_words_are_refused_with_their_position(
        capsys, word, position):
    code, _, err = run(capsys, "image", "--group", "S3", "--word", word)
    assert code == 2
    assert f"has more than {MAX_DIGITS} digits" in err
    assert f"(at position {position})" in err


def test_non_ascii_digits_in_words_are_refused_with_their_position(capsys):
    code, _, err = run(capsys, "image", "--group", "S3", "--word", "x\u00b2")
    assert code == 2
    assert err == "error: expected generator index after 'x' (at position 1)\n"


def test_replay_names_the_line_of_an_integer_json_refuses(capsys, tmp_path):
    # json.loads raises a plain ValueError past 4,300 digits, not a
    # JSONDecodeError.
    path = tmp_path / "huge.jsonl"
    path.write_text('{"group":"S3","word":"x1","arity":' + "1" * 5000 + "}\n")
    code, out, err = run(capsys, "replay", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: invalid JSON: ")


@pytest.mark.parametrize("spec", ["C2x", "xC2", "C2xxC3", ""])
def test_empty_product_factors_name_the_spec(capsys, spec):
    code, out, err = run(capsys, "image", "--group", spec, "--word", "x1")
    assert code == 2 and out == ""
    assert err == f"error: group spec {spec!r} has an empty factor\n"


def test_python_m_chiralwords_runs_the_cli(capsys):
    argv = ["group", "list", "--max-order", "4"]
    code, out, err = run(capsys, *argv)
    src = str(Path(chiralwords.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "chiralwords", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == \
        (code, out.encode(), err.encode())
    assert code == 0 and "C2xC2" in out


@pytest.mark.parametrize("record, field", [
    ({"group": 5, "word": "x1", "arity": 1}, "group"),
    ({"group": ["S3"], "word": "x1", "arity": 2}, "group"),
    ({"group": "S3", "word": 7, "arity": 1}, "word"),
    ({"group": "S3", "word": "x1", "arity": True}, "arity"),
    ({"group": "S3", "word": "x1 x2", "arity": 2.7}, "arity"),
    ({"group": "S3", "word": "x1", "arity": "3"}, "arity"),
])
def test_replay_refuses_fields_of_the_wrong_type(capsys, tmp_path, record,
                                                 field):
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(record) + "\n")
    code, out, err = run(capsys, "replay", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: field '{field}' is ")


# Replay input: group specs from an alphabet without '@' (so no file is
# read), of at most 6 characters, with no Q or 4 (so no Aut(G) as large as
# Aut(Q8xQ8) or Aut(C2^2 x D16) is enumerated); every JSON type in every
# field, and lines that are not objects.
SPECS = st.sampled_from(["S3", "D8", "A4"]) | st.text("ACDSx02368", max_size=6)
WORDS = st.sampled_from(["x1", "x1 x2", "x1^2 x2^-1 x1"]) | \
    st.text("x12^- ", max_size=8)
OTHERS = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.lists(st.integers(-3, 3) | st.text("S3x1", max_size=3),
                     max_size=3))


def any_json(strings, ints=st.integers(-2, 4)):
    return strings | ints | OTHERS


RECORD = st.fixed_dictionaries(
    {"group": any_json(SPECS), "word": any_json(WORDS),
     "arity": any_json(SPECS, st.integers(-2, 4) | st.integers())})
LINE = RECORD | OTHERS


@settings(max_examples=40, deadline=None)
@given(st.lists(LINE, min_size=1, max_size=3))
def test_replay_of_any_json_lines_exits_cleanly(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["replay", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")

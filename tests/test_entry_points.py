"""What a CLI query pays on entry: the parser, group files and order caps.

The parser is built once per process, a group file's content is validated
once per process, and an order above the cap is refused before any table
is built. None of this may change an output or an exit code.
"""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import chiralwords
from chiralwords import cli, groups
from chiralwords.catalog import catalog_groups
from chiralwords.groups import (DEFAULT_ORDER_CAP, MAX_GROUP_FILE_BYTES,
                                CapExceededError, build_family,
                                parse_group_spec)

# Mostly group list, search and verify lemma1; flags set and then omitted,
# and usage errors (SystemExit 2) followed by valid calls.
PARSER_REUSE_SEQUENCE = [
    ["group", "list", "--max-order", "8", "--families", "C", "D"],
    ["group", "list", "--max-order", "8"],
    ["group", "list", "--max-order", "8", "--format", "structured"],
    ["search", "--max-len", "2", "--max-order", "6", "--families", "S",
     "--full"],
    ["search", "--max-len", "2", "--max-order", "6", "--full"],
    ["verify", "lemma1", "--max-order", "6", "--max-len", "2",
     "--families", "C", "--format", "structured"],
    ["verify", "lemma1", "--max-order", "6", "--max-len", "2"],
    ["chiral", "--group", "S3", "--word", "x1^2 x2", "--gamma", "0",
     "--format", "structured"],
    ["chiral", "--group", "S3", "--word", "x1^2 x2", "--format",
     "structured"],
    ["weak-chiral", "--group", "S3", "--word", "x1^2 x2", "--gamma", "0"],
    ["weak-chiral", "--group", "S3", "--word", "x1^2 x2"],
    ["group", "list", "--no-such-flag"],
    ["group", "list", "--max-order", "4"],
    ["verify", "no-such-suite"],
    ["verify", "lemma1", "--max-order", "4", "--max-len", "2",
     "--format", "structured"],
    ["search", "--max-len", "2", "--max-order", "4", "--families", "C"],
]


def call(capsys, argv):
    """(exit code, stdout, stderr) of one main() call, wall times zeroed."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    stdout = re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": 0', out.out)
    stdout = re.sub(r"\d+\.\d+s\]", "0s]", stdout)
    return code, stdout, out.err


def test_reused_parser_gives_the_outputs_of_a_fresh_one(capsys, monkeypatch):
    fresh = []
    for argv in PARSER_REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(call(capsys, argv))
    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    reused = [call(capsys, argv) for argv in PARSER_REUSE_SEQUENCE]
    assert len(builds) == 1
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes.count(2) == 2 and codes.count(0) == len(codes) - 2


def test_parser_is_not_built_at_import():
    program = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import chiralwords.cli as cli",
        "assert not built, built",
        "assert cli._parser.cache_info().currsize == 0",
        "cli.main(['group', 'list', '--max-order', '2'])",
        "cli.main(['group', 'list', '--max-order', '3'])",
        "assert cli._parser.cache_info().misses == 1",
    ])
    src = str(Path(chiralwords.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", program], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def write_table(path, g, relabel=None):
    """Write g's Cayley table, with element a renamed relabel[a]."""
    relabel = relabel or list(g.elements())
    table = [[0] * g.order for _ in g.elements()]
    for a in g.elements():
        for b in g.elements():
            table[relabel[a]][relabel[b]] = relabel[g.table[a][b]]
    path.write_text(json.dumps({"order": g.order, "table": table}))


@pytest.fixture
def fresh_file_cache(monkeypatch):
    monkeypatch.setattr(groups, "_file_groups", {})


@pytest.fixture
def validations(monkeypatch):
    """Counts validate_group calls."""
    calls = []
    real_validate = groups.validate_group

    def counting_validate(table, *args, **kwargs):
        calls.append(len(table))
        return real_validate(table, *args, **kwargs)

    monkeypatch.setattr(groups, "validate_group", counting_validate)
    return calls


def test_group_file_is_validated_once_per_content(
        capsys, tmp_path, fresh_file_cache, validations):
    s3 = build_family("S3")
    path = tmp_path / "s3.json"
    write_table(path, s3)
    first = parse_group_spec(f"@{path}")
    assert parse_group_spec(f"@{path}") is first
    assert validations == [6]

    write_table(path, s3, relabel=[3, 0, 5, 1, 4, 2])
    second = parse_group_spec(f"@{path}")
    assert validations == [6, 6]
    assert second.table != first.table
    assert second.order == 6 and second.inverses != first.inverses
    other = tmp_path / "copy" / "s3.json"
    other.parent.mkdir()
    other.write_bytes(path.read_bytes())
    assert parse_group_spec(f"@{other}") is second
    assert validations == [6, 6]

    broken = [list(row) for row in s3.table]
    broken[1][2], broken[1][3] = broken[1][3], broken[1][2]
    path.write_text(json.dumps({"order": 6, "table": broken}))
    code, _, err = call(capsys, ["group", "show", f"@{path}"])
    assert code == 2 and "invalid group table" in err
    code, _, err = call(capsys, ["group", "show", f"@{path}"])
    assert code == 2 and "invalid group table" in err
    assert validations == [6, 6, 6, 6]

    path.write_text('{"order": 6, "table": [[0, 1], ')
    code, _, err = call(capsys, ["group", "show", f"@{path}"])
    assert code == 2 and f"cannot read group file {path}" in err

    path.unlink()
    code, _, err = call(capsys, ["group", "show", f"@{path}"])
    assert code == 2 and f"cannot read group file {path}" in err


def test_perm_gens_groups_are_named_by_their_own_file(tmp_path,
                                                      fresh_file_cache):
    text = '{"perm-gens": [[1, 0, 2], [0, 2, 1]]}'
    (tmp_path / "first.json").write_text(text)
    (tmp_path / "second.json").write_text(text)
    assert parse_group_spec(f"@{tmp_path / 'first.json'}").name == "first"
    assert parse_group_spec(f"@{tmp_path / 'second.json'}").name == "second"


def test_file_cache_is_bounded(tmp_path, fresh_file_cache, validations):
    for n in range(1, groups.FILE_CACHE_SIZE + 2):
        write_table(tmp_path / "c.json", build_family(f"C{n}"))
        parse_group_spec(f"@{tmp_path / 'c.json'}")
    assert len(groups._file_groups) == groups.FILE_CACHE_SIZE
    write_table(tmp_path / "c.json", build_family("C1"))
    parse_group_spec(f"@{tmp_path / 'c.json'}")
    assert validations.count(1) == 2


def refuse_tables(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built")

    for name in ("_build_group", "validate_group", "find_identity"):
        monkeypatch.setattr(groups, name, no_table)


@pytest.mark.parametrize("spec", ["C513", "D1026"])
def test_family_orders_above_the_cap_exit_2_before_a_table(
        capsys, monkeypatch, spec):
    refuse_tables(monkeypatch)
    tracemalloc.start()
    try:
        code, _, err = call(capsys, ["group", "show", spec])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"exceeds cap {DEFAULT_ORDER_CAP}" in err
    assert peak < 1 << 20


def test_cayley_file_above_the_cap_exits_2_before_validation(
        capsys, monkeypatch, tmp_path, fresh_file_cache):
    n = DEFAULT_ORDER_CAP + 1
    path = tmp_path / "c513.json"
    path.write_text(json.dumps(
        {"order": n, "table": [[(a + b) % n for b in range(n)]
                               for a in range(n)]}))
    refuse_tables(monkeypatch)
    code, _, err = call(capsys, ["group", "show", f"@{path}"])
    assert code == 2
    assert f"order {n} exceeds cap {DEFAULT_ORDER_CAP}" in err


@pytest.mark.parametrize("degree, cycle", [(DEFAULT_ORDER_CAP + 1, 2),
                                           (200_000, 32)])
def test_permutations_on_more_points_than_the_cap_exit_2_at_once(
        capsys, tmp_path, fresh_file_cache, degree, cycle):
    # A cycle of `cycle` points, fixing the rest: a group of order `cycle`
    # whose table would cost |G|^2 * degree to build.
    gen = list(range(degree))
    gen[:cycle] = gen[1:cycle] + gen[:1]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"perm-gens": [gen]}))
    start = time.perf_counter()
    code, out, err = call(capsys, ["group", "show", f"@{path}"])
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (f"error: permutation degree {degree} exceeds cap "
                   f"{DEFAULT_ORDER_CAP}\n")
    gen[DEFAULT_ORDER_CAP:] = []
    path.write_text(json.dumps({"perm-gens": [gen]}))
    assert parse_group_spec(f"@{path}").order == cycle


def test_oversized_group_file_is_refused_unread(capsys, tmp_path,
                                                fresh_file_cache):
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(MAX_GROUP_FILE_BYTES + 1)
    tracemalloc.start()
    try:
        code, _, err = call(capsys, ["group", "show", f"@{path}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"larger than {MAX_GROUP_FILE_BYTES} bytes" in err
    assert f"cap {DEFAULT_ORDER_CAP}" in err
    assert peak < 1 << 20


def test_groups_up_to_the_cap_still_load():
    assert [g.order for _, g in catalog_groups(32)][-1] == 32
    assert len(catalog_groups(24)) > 32
    for spec in ("C512", "D512", "C8xC8xC8"):
        assert parse_group_spec(spec).order == DEFAULT_ORDER_CAP
    with pytest.raises(CapExceededError, match="exceeds cap"):
        groups.from_cayley_document({"order": DEFAULT_ORDER_CAP + 1,
                                     "table": []})


def test_group_list_builds_the_catalog_once(capsys, monkeypatch):
    calls = []
    real = cli.catalog_groups

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "catalog_groups", counting)
    for fmt in ("human", "structured"):
        code, out, _ = call(capsys, ["group", "list", "--max-order", "6",
                                     "--format", fmt])
        assert code == 0 and "S3" in out
    assert calls == [(6, None), (6, None)]

from collections import defaultdict

import pytest

from chiralwords import reports, search
from chiralwords.catalog import catalog_groups
from chiralwords.engine import naive_image, pair_verdicts
from chiralwords.groups import parse_group_spec
from chiralwords.search import (
    MalformedRecordError,
    replay,
    search_chiral,
)
from chiralwords.words import (
    Word,
    canonical_words,
    conjugacy_key,
    parse_word,
    reduce_syllables,
)

from conftest import metacyclic_c7_c9
from test_canonical_words import relabellings
from test_normal_fibers import CHIRAL


def run_sweep(**kwargs):
    defaults = dict(rank=2, max_len=3, max_order=6, full=True)
    defaults.update(kwargs)
    return list(search_chiral(**defaults))


def test_sweep_s3_only():
    findings = run_sweep(families=["S"])
    assert findings
    assert all(f.group_spec == "S3" for f in findings)
    for f in findings:
        ok, mismatches = replay(f.to_record())
        assert ok, mismatches


def test_abelian_only_catalog_is_empty():
    # cyclic groups are skipped as proven achiral, so nothing is scanned
    assert run_sweep(families=["C"]) == []


def test_power_and_identity_words_skipped():
    for f in run_sweep():
        assert f.word_text != "e"
        assert "*" in f.word_text  # at least two syllables


def test_no_orbit_duplicates():
    findings = run_sweep(max_len=4)
    from chiralwords.words import canonical_form, parse_word, render_word
    pairs = set()
    for f in findings:
        w = parse_word(f.word_text, 2)
        assert render_word(canonical_form(w)) == f.word_text
        pairs.add((f.word_text, f.group_spec))
    assert len(pairs) == len(findings)


def test_sweep_deterministic_bytes():
    def lines():
        return [reports.dumps_line(f.to_record())
                for f in run_sweep(max_order=8)]
    assert lines() == lines()


def test_default_verbosity_only_positives():
    full = run_sweep(max_order=8)
    positives = list(search_chiral(rank=2, max_len=3, max_order=8))
    assert len(positives) <= len(full)
    for f in positives:
        assert f.chiral or f.weakly_chiral or f.highlighted or f.skipped


def test_findings_record_fields():
    f = run_sweep(families=["S"])[0]
    record = f.to_record()
    assert record["kind"] == "finding"
    assert record["schema_version"] == 1
    assert record["group"] == "S3"
    assert isinstance(record["evaluations"], int)


def test_replay_detects_tampering():
    f = run_sweep(families=["S"])[0]
    record = f.to_record()
    record["chiral"] = not record["chiral"]
    ok, mismatches = replay(record)
    assert not ok
    assert any("chiral" in m for m in mismatches)


def test_replay_malformed_records():
    with pytest.raises(MalformedRecordError):
        replay({"word": "x1"})  # missing group/arity
    with pytest.raises(MalformedRecordError):
        replay({"group": "NoSuchGroup99", "word": "x1", "arity": 1})
    with pytest.raises(MalformedRecordError):
        replay({"group": "S3", "word": "x@@", "arity": 2})


# A field of the wrong JSON type is refused, never read as another value.
WRONG_TYPES = [
    ({"group": 5, "word": "x1", "arity": 1}, "group"),
    ({"group": ["S3"], "word": "x1", "arity": 2}, "group"),
    ({"group": "S3", "word": 7, "arity": 1}, "word"),
    ({"group": "S3", "word": "x1", "arity": True}, "arity"),
    ({"group": "S3", "word": "x1 x2", "arity": 2.7}, "arity"),
    ({"group": "S3", "word": "x1", "arity": "3"}, "arity"),
]


@pytest.mark.parametrize("record, field", WRONG_TYPES)
def test_replay_refuses_fields_of_the_wrong_type(record, field):
    with pytest.raises(MalformedRecordError, match=f"field '{field}' is "):
        replay(record)


@pytest.mark.parametrize("word", ["x1^" + "1" * 5000, "x1 x" + "1" * 5000],
                         ids=["exponent", "index"])
def test_replay_refuses_a_long_integer_in_the_word(word):
    record = {"group": "S3", "word": word, "arity": 2}
    with pytest.raises(MalformedRecordError, match="more than 640 digits.*position"):
        replay(record)


@pytest.mark.parametrize("arity", [-1, 0, -(10 ** 40)])
def test_replay_refuses_an_arity_below_1(arity):
    record = {"group": "S3", "word": "x1", "arity": arity, "chiral": False}
    with pytest.raises(MalformedRecordError,
                       match="field 'arity' is .* at least 1"):
        replay(record)


@pytest.mark.parametrize("arity", [1, 2, 100])
def test_replay_refuses_a_record_with_no_verdict(arity):
    # Such a record checks nothing, so it must not replay as a pass.
    record = {"group": "S3", "word": "x1", "arity": arity, "order": 6}
    with pytest.raises(MalformedRecordError,
                       match="states no verdict: none of 'chiral', "
                             "'weakly_chiral', 'image_size'"):
        replay(record)


@pytest.mark.parametrize("key, value", [
    ("chiral", False), ("weakly_chiral", False), ("image_size", 6)])
def test_replay_checks_a_record_with_one_verdict(key, value):
    record = {"group": "S3", "word": "x1", "arity": 2, key: value}
    assert replay(record) == (True, [])
    assert not replay(dict(record, **{key: 1 - value}))[0]


def test_replay_of_a_huge_arity_record_is_a_skip():
    record = {"group": "S3", "word": "x1*x2", "arity": 2_000_000,
              "chiral": None, "weakly_chiral": None, "image_size": None}
    assert replay(record) == (True, [])


def test_budget_exceeded_recorded_as_skipped():
    findings = list(search_chiral(rank=2, max_len=2, max_order=6,
                                  families=["S"], budget=10, full=True))
    assert findings
    assert all(f.skipped for f in findings)
    for f in findings:
        ok, _ = replay(f.to_record(), budget=10)
        assert ok


# --- one scan per (group, word class) in each search_chiral call ---------

def per_pair_lines(rank, max_len, max_order, **kwargs):
    """The full sweep rebuilt with one `_scan_pair` per (word, group)."""
    groups = [(spec, g) for spec, g in catalog_groups(max_order)
              if not g.is_abelian]
    return [reports.dumps_line(search._scan_pair(
                spec, g, w, kwargs.get("auto_cap", search.DEFAULT_AUTO_CAP),
                kwargs.get("budget", search.DEFAULT_BUDGET)).to_record())
            for w in canonical_words(rank, max_len) if len(w.syllables) > 1
            for spec, g in groups]


@pytest.mark.parametrize("rank, max_len, max_order", [
    (2, 6, 24), (2, 8, 16), (3, 5, 12)])
def test_the_table_gives_the_per_pair_bytes(rank, max_len, max_order):
    lines = [reports.dumps_line(f.to_record())
             for f in search_chiral(rank, max_len, max_order, full=True)]
    assert lines == per_pair_lines(rank, max_len, max_order)


@pytest.fixture
def scan_calls(monkeypatch):
    calls = []
    original = search._scan_pair

    def spy(spec, g, w, auto_cap, budget):
        calls.append((spec, w))
        return original(spec, g, w, auto_cap, budget)

    monkeypatch.setattr(search, "_scan_pair", spy)
    return calls


def test_the_bench_sweep_scans_each_group_and_class_once(scan_calls):
    # 106 words in 36 classes, times 15 nonabelian groups. The table lives
    # for one call: the second call scans all 540 again.
    for run in (1, 2):
        findings = list(search_chiral(2, 6, 24, full=True))
        assert len(findings) == 1590
        assert len(scan_calls) == 540 * run
    assert len({(spec, conjugacy_key(w)) for spec, w in scan_calls}) == 540


def test_copied_findings_keep_the_budget_refusal(scan_calls):
    findings = list(search_chiral(rank=2, max_len=4, max_order=6,
                                  families=["S"], budget=10, full=True))
    assert len(findings) == 13 > len(scan_calls) == 9
    assert {f.skipped for f in findings} == {
        "6^2 = 36 tuples exceed budget 10; lower the rank or group order, "
        "or raise --budget"}
    for f in findings:
        assert replay(f.to_record(), budget=10) == (True, [])


def signed_relabellings(w: Word) -> list:
    """w under every rotation of its syllables and every signed generator
    permutation."""
    sylls = w.syllables
    return [reduce_syllables([(table[2 * (g - 1)] // 2 + 1,
                               e if table[2 * (g - 1)] % 2 == 0 else -e)
                              for g, e in sylls[i:] + sylls[:i]], w.rank)
            for table in relabellings(w.rank) for i in range(len(sylls))]


@pytest.mark.parametrize("spec", ["S4", "D8", "Q8", "C7:C9"])
def test_orbit_mates_have_equal_naive_counts(spec):
    g = metacyclic_c7_c9() if spec == "C7:C9" else parse_group_spec(spec)
    classes = defaultdict(list)
    for w in canonical_words(2, 6):
        classes[conjugacy_key(w)].append(w)
    if spec == "C7:C9":  # the only group with positive verdicts
        chiral = parse_word(CHIRAL, 2)
        mates = signed_relabellings(chiral)
        assert len(set(mates)) == 32
        assert all(pair_verdicts(g, w).chiral for w in mates[::7])
        classes[conjugacy_key(chiral)] += mates
    for words in classes.values():
        counts = {naive_image(g, w)[1].counts for w in words}
        assert len(counts) == 1, words

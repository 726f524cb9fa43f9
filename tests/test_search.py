import pytest

from chiralwords import reports
from chiralwords.search import (
    MalformedRecordError,
    replay,
    search_chiral,
)


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


def test_replay_of_a_huge_arity_record_is_a_skip():
    record = {"group": "S3", "word": "x1*x2", "arity": 2_000_000}
    assert replay(record) == (True, [])


def test_budget_exceeded_recorded_as_skipped():
    findings = list(search_chiral(rank=2, max_len=2, max_order=6,
                                  families=["S"], budget=10, full=True))
    assert findings
    assert all(f.skipped for f in findings)
    for f in findings:
        ok, _ = replay(f.to_record(), budget=10)
        assert ok

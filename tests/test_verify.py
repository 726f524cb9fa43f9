import time
from collections import Counter

import pytest

from chiralwords import catalog, engine, reports, verify
from chiralwords.catalog import catalog_specs
from chiralwords.engine import (
    DEFAULT_BUDGET,
    FiberDistribution,
    image,
    naive_image,
)
from chiralwords.groups import build_family, parse_group_spec
from chiralwords.search import replay
from chiralwords.verify import (
    Bounds,
    canonical_words,
    derived_seed,
    run_all,
    run_suite,
    summarize,
)
from chiralwords.words import (
    canonical_form,
    identity_word,
    parse_word,
    substitute,
)

from conftest import enumerate_words, nielsen_generators

SMALL = Bounds(max_order=8, max_word_len=3, rank=2,
               theta_samples=3, gamma_samples=3, seed=1)
SUITES = ["lemma1", "thm1", "thm2", "remark"]


def test_catalog_contents():
    specs = set(catalog_specs(16))
    for n in range(1, 17):
        assert f"C{n}" in specs
    for spec in ["C2xC2", "C2xC4", "C2xC2xC2", "Q8", "S3", "A4",
                 "D4", "D6", "D8", "D10", "D12", "D14", "D16"]:
        assert spec in specs
    assert "S4" not in specs  # order 24 > 16
    assert catalog_specs(6, families=["S"]) == ["S3"]


def test_catalog_records_each_extra_order(monkeypatch):
    for spec, order in catalog._EXTRA_SPECS:
        assert parse_group_spec(spec).order == order, spec
    expected = catalog_specs(60)

    def no_build(spec):
        raise AssertionError(f"built {spec} to list the catalog")

    monkeypatch.setattr(catalog, "parse_group_spec", no_build)
    assert catalog_specs(60) == expected
    assert "A5" in expected and "A5" not in catalog_specs(59)


def test_canonical_words_are_canonical_and_deduped():
    words = canonical_words(2, 4)
    assert words[0].is_identity
    assert len({w.syllables for w in words}) == len(words)
    orbit_reps = {canonical_form(w).syllables for w in enumerate_words(2, 4)}
    assert {w.syllables for w in words} == orbit_reps


def untimed(report):
    """A report's structured form without its wall time."""
    doc = report.to_structured()
    del doc["wall_time_s"]
    return doc


@pytest.fixture(scope="module")
def small_run_all():
    return run_all(SMALL)


@pytest.mark.parametrize("suite", SUITES)
def test_suites_pass_at_small_bounds(suite, small_run_all):
    report = run_suite(suite, SMALL)
    assert report.passed
    assert report.cases > 0
    assert not report.skipped
    # `verify <suite>` gives exactly its part of `verify all`.
    assert untimed(report) == untimed(small_run_all[SUITES.index(suite)])


def test_run_all_enumerates_words_once_and_passes_catalog_per_suite(
        monkeypatch):
    events = []
    words, groups = verify.canonical_words, verify.catalog_groups

    def counted_words(*args):
        events.append("words")
        return words(*args)

    def counted_groups(*args):
        events.append("catalog-start")
        yield from groups(*args)
        events.append("catalog-end")

    monkeypatch.setattr(verify, "canonical_words", counted_words)
    monkeypatch.setattr(verify, "catalog_groups", counted_groups)
    results = run_all(SMALL)
    # One word list; then one whole pass over the catalog per suite, each
    # finished before the next suite starts.
    assert events == ["words"] + ["catalog-start", "catalog-end"] * 4
    assert [r.suite for r in results] == SUITES


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("thm3", SMALL)


def test_lemma_single_case_brute_force():
    # (S3, w = x1^2 x2, theta: x1 -> x1x2): both images by brute force
    g = build_family("S3")
    w = parse_word("x1^2 x2", 2)
    theta = [e for e in nielsen_generators(2)
             if e.images[0].syllables == ((1, 1), (2, 1))][0]
    tw = substitute(w, theta)
    img_w, _ = naive_image(g, w)
    img_tw, _ = naive_image(g, tw)
    assert img_w.members == img_tw.members


def test_degenerate_bounds_pass():
    bounds = Bounds(max_order=1, max_word_len=0, theta_samples=1,
                    gamma_samples=1)
    for report in run_all(bounds):
        assert report.passed


@pytest.mark.parametrize("name", ["theta_samples", "gamma_samples"])
def test_bounds_refuse_a_negative_sample_count(name):
    with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
        Bounds(**{name: -1})
    assert getattr(Bounds(**{name: 0}), name) == 0


def two_cap_refusal(words, samples, length):
    """The rule the run bound replaced: more than 20,000 draws, or more
    than 100,000 Nielsen moves in draws of `length` moves."""
    draws = words * samples
    return draws > 20000 or draws * length > 100000


def test_the_run_bound_refuses_exactly_what_the_two_caps_refused(
        monkeypatch):
    # Draws D of length L: D * max(L, 5) > 100,000 holds exactly when
    # D > 20,000 or D * L > 100,000. Checked on the rank-2 word counts of
    # --max-len 0..6, every sample count 0..1,200 and every length 0..64.
    lists = {n: canonical_words(2, n) for n in range(7)}
    assert [len(lists[n]) for n in range(7)] == [1, 2, 4, 8, 18, 43, 113]
    monkeypatch.setattr(verify, "canonical_words", lambda rank, n: lists[n])
    mismatches = refusals = 0
    for suite, field in (("lemma1", "theta_samples"),
                         ("thm1", "gamma_samples")):
        for n, words in lists.items():
            for length in range(verify.MAX_THETA_LENGTH + 1):
                bounds = Bounds(max_word_len=n, theta_length=length)
                for samples in range(1201):
                    setattr(bounds, field, samples)
                    try:
                        verify._words(bounds, [suite])
                        refused = False
                    except ValueError:
                        refused = True
                    refusals += refused
                    mismatches += refused != two_cap_refusal(
                        len(words), samples, length)
    assert mismatches == 0
    assert 0 < refusals < 2 * 7 * 65 * 1201


def refused_draws(name, suite, monkeypatch, bounds, message):
    """Both run_all and the one suite that draws `name` refuse `bounds` at
    once, with `message`, before any automorphism is drawn."""
    def no_draw(*args):
        raise AssertionError("sampled before the refusal")

    monkeypatch.setattr(verify, "random_automorphism", no_draw)
    for run in (run_all, lambda b: run_suite(suite, b)):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            run(bounds)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == message


def move_bound_message(words, max_len, name, count, length):
    moves = words * count * max(length, 5)
    return (f"{words} words of length <= {max_len} times {name} {count} "
            f"times max(theta_length {length}, 5) is {moves} Nielsen moves, "
            f"more than {verify.MAX_DRAWN_MOVES}; lower --max-len, "
            f"--{name.replace('_', '-')} or --theta-length")


@pytest.mark.parametrize("name", ["theta_samples", "gamma_samples"])
def test_a_run_refuses_a_billion_samples_before_any_draw(name, monkeypatch):
    # Bounds takes any nonnegative count, as a suite that draws none of
    # them may run; the run bound refuses it for the suite that draws it.
    bounds = Bounds(**{name: 10 ** 9})
    refused_draws(name, {"theta_samples": "lemma1",
                         "gamma_samples": "thm1"}[name], monkeypatch, bounds,
                  move_bound_message(18, 4, name, 10 ** 9, 5))


@pytest.mark.parametrize("name, suite", [("theta_samples", "lemma1"),
                                         ("gamma_samples", "thm1")])
def test_a_run_refuses_more_draws_than_the_cap(name, suite, monkeypatch):
    # A draw counts as at least 5 moves, so the run bound still refuses
    # more than 20,000 draws at any theta_length: 883 words times 1,000
    # samples, drawn at length 0.
    bounds = Bounds(max_order=2, max_word_len=8, theta_length=0,
                    **{name: 1000})
    refused_draws(name, suite, monkeypatch, bounds,
                  move_bound_message(883, 8, name, 1000, 0))


def test_the_draw_cap_admits_the_largest_sample_counts_at_the_defaults():
    # At the default 18 words and theta_length 5 that is 1,111 samples of
    # either kind, and for one word at length 0 it is 20,000.
    assert len(verify._words(Bounds(theta_samples=1111, gamma_samples=1111),
                             SUITES)) == 18
    for name in ("theta_samples", "gamma_samples"):
        with pytest.raises(ValueError, match="is 100080 Nielsen moves"):
            verify._words(Bounds(**{name: 1112}), SUITES)
    for name, suite in (("theta_samples", "lemma1"),
                        ("gamma_samples", "thm1")):
        one = Bounds(max_word_len=0, theta_length=0, **{name: 20000})
        assert len(verify._words(one, [suite])) == 1
        setattr(one, name, 20001)
        with pytest.raises(ValueError, match="is 100005 Nielsen moves"):
            verify._words(one, [suite])
    # A suite that draws no automorphisms is not refused for the others'.
    wide = Bounds(theta_samples=5000, gamma_samples=5000, theta_length=64)
    assert len(verify._words(wide, ["thm2", "remark"])) == 18


@pytest.mark.parametrize("name, suite", [("theta_samples", "lemma1"),
                                         ("gamma_samples", "thm1")])
def test_a_run_refuses_more_drawn_moves_than_the_cap(name, suite,
                                                     monkeypatch):
    # 18 words times 1,000 samples of 64 Nielsen moves, the longest draw
    # allowed: 1,152,000 moves would run for minutes and past 1 GB.
    bounds = Bounds(theta_length=verify.MAX_THETA_LENGTH, **{name: 1000})
    refused_draws(name, suite, monkeypatch, bounds,
                  move_bound_message(18, 4, name, 1000, 64))


def test_the_move_cap_admits_the_runs_in_use():
    # The defaults, 1,000 samples at the default theta_length (90,000
    # moves) and 60 samples of 64 moves (69,120) pass; 87 of 64 do not.
    for bounds in (Bounds(), Bounds(theta_samples=1000, gamma_samples=1000),
                   Bounds(theta_samples=60, gamma_samples=60,
                          theta_length=64)):
        assert len(verify._words(bounds, SUITES)) == 18
    with pytest.raises(ValueError, match="is 100224 Nielsen moves"):
        verify._words(Bounds(theta_samples=87, theta_length=64), ["lemma1"])
    # A suite that draws no automorphisms is not refused for the others'.
    assert verify._words(Bounds(theta_samples=87, gamma_samples=0,
                                theta_length=64), ["thm1"])


@pytest.mark.parametrize("length", [-1, verify.MAX_THETA_LENGTH + 1, 10 ** 9])
def test_bounds_refuse_a_theta_length_outside_the_cap(length):
    with pytest.raises(ValueError, match=(
            f"theta_length must be between 0 and {verify.MAX_THETA_LENGTH}, "
            f"got {length}")):
        Bounds(theta_length=length, theta_samples=0, gamma_samples=0)
    for edge in (0, verify.MAX_THETA_LENGTH):
        assert Bounds(theta_length=edge).theta_length == edge


@pytest.mark.parametrize("rank, budget", [(25, DEFAULT_BUDGET), (3, 7),
                                          (1, 1), (1, 0), (1, -5)])
def test_bounds_refuse_a_rank_over_the_budget(rank, budget):
    # 2^rank > budget: every group of order 2 or more would be skipped.
    with pytest.raises(ValueError, match=f"rank {rank} .* budget {budget}"):
        Bounds(rank=rank, budget=budget)


@pytest.mark.parametrize("rank, budget", [(24, DEFAULT_BUDGET), (3, 8),
                                          (2, 10), (1, 2)])
def test_bounds_allow_a_rank_within_the_budget(rank, budget):
    assert Bounds(rank=rank, budget=budget).rank == rank


def test_reports_deterministic_given_seed():
    a = summarize(run_all(SMALL))
    b = summarize(run_all(SMALL))
    assert reports.stable_digest(a) == reports.stable_digest(b)
    other = summarize(run_all(Bounds(max_order=8, max_word_len=3, rank=2,
                                     theta_samples=3, gamma_samples=3,
                                     seed=2)))
    # a different seed samples different thetas but still passes
    assert all(s["passed"] for s in other["suites"])


def test_repeated_runs_give_one_digest():
    bounds = Bounds(max_order=6, max_word_len=3, theta_samples=2,
                    gamma_samples=2)
    digests = {reports.stable_digest(summarize(run_all(bounds)))
               for _ in range(2)}
    assert len(digests) == 1


def test_derived_seed_stable():
    assert derived_seed(0, "a", 1) == derived_seed(0, "a", 1)
    assert derived_seed(0, "a", 1) != derived_seed(0, "a", 2)
    assert derived_seed(0, "a", 1) != derived_seed(1, "a", 1)


def test_budget_exhaustion_is_recorded_not_fatal():
    bounds = Bounds(max_order=8, max_word_len=2, theta_samples=1,
                    gamma_samples=1, budget=10)
    report = run_suite("lemma1", bounds)
    assert report.skipped
    assert report.passed  # skipped cases are not failures


# Digests of two runs that skip pairs, whose reasons enter the digest; cases
# and skips per suite, in order lemma1, thm1, thm2, remark.
SKIP_RUNS = [
    (Bounds(max_order=8, max_word_len=2, theta_samples=1, gamma_samples=1,
            budget=10),
     "62681832e9358f1269652db5f2aa1f20657e85278aeb2836a61602f1db2f427b",
     [(28, 52), (12, 52), (16, 52), (28, 52)]),
    (Bounds(max_order=12, max_word_len=2, theta_samples=1, gamma_samples=1,
            auto_cap=2),
     "3083ae63fd8ff943680d399a2ae795814219d86462f5cfb8ca72eaf421c3b1ce",
     [(16, 92), (100, 0), (8, 92), (16, 92)]),
]


@pytest.mark.parametrize("bounds,digest,counts", SKIP_RUNS,
                         ids=["budget", "auto-cap"])
def test_skipped_pairs_keep_their_digest(bounds, digest, counts):
    results = run_all(bounds)
    assert [(r.cases, len(r.skipped)) for r in results] == counts
    assert all(r.passed for r in results)
    assert reports.stable_digest(summarize(results)) == digest
    for suite, part in zip(SUITES, results):
        assert untimed(run_suite(suite, bounds)) == untimed(part)


def test_report_structure():
    doc = run_suite("thm2", SMALL).to_structured()
    assert doc["kind"] == "verification-report"
    assert doc["suite"] == "thm2"
    assert doc["passed"] is True
    assert doc["bounds"]["max_order"] == 8
    summary = summarize(run_all(SMALL))
    assert summary["passed"] is True
    assert [s["suite"] for s in summary["suites"]] == \
        ["lemma1", "thm1", "thm2", "remark"]


# --- each suite can fail ------------------------------------------------------

# One group and a few words: enough for every check to see a broken input.
FAULT_BOUNDS = Bounds(max_order=6, max_word_len=2, theta_samples=1,
                      gamma_samples=1, families=("S",))

# The reproduction fields of each failure record, by check.
FAILURE_FIELDS = {
    "image-invariance-under-theta": {"theta_images", "theta_word",
                                     "members_w", "members_theta_w"},
    "image-invariance-under-zeta": {"zeta_index", "zeta_images",
                                    "members_w"},
    "image-of-gamma-w-equals-image-of-w-inverse": {
        "theta_images", "gamma_word", "members_gamma_w",
        "members_w_inverse"},
    "gamma-image-equals-inverted-image": {"zeta_index", "gamma_images",
                                          "members_w"},
    "twisted-fiber-identity": {"zeta_index", "gamma_images",
                               "direct_counts", "predicted_counts"},
    "weak-verdict-gamma-independence": {"verdicts"},
}


def failures_named(suite, check):
    """The failure records of `check` when `suite` runs on FAULT_BOUNDS;
    asserts there is one and that each carries its reproduction fields."""
    report = run_suite(suite, FAULT_BOUNDS)
    assert not report.passed
    found = [f for f in report.failures if f["check"] == check]
    assert found, f"{suite} recorded no {check}: {report.failures[:1]}"
    for record in found:
        assert set(record) == {"check", "group", "word"} | FAILURE_FIELDS[check]
        assert record["group"] == "S3"
    return found


def as_identity_word(w, *args):
    """A corrupted sampled word: the identity, whose image is {e}."""
    return identity_word(w.rank)


def identity_flipped(original):
    """map_set with the identity's membership flipped; every G_w holds e."""
    def corrupted(m, members):
        mapped = original(m, members)
        return (not mapped[0],) + mapped[1:]
    return corrupted


def one_more_at_1(original):
    """naive_image with one more tuple counted at element 1."""
    def perturbed(g, w, **kwargs):
        img, fibers = original(g, w, **kwargs)
        counts = list(fibers.counts)
        counts[1] += 1
        return img, FiberDistribution(g, w, tuple(counts))
    return perturbed


def test_lemma1_fails_on_a_corrupted_theta_word(monkeypatch):
    monkeypatch.setattr(verify, "substitute", as_identity_word)
    for record in failures_named("lemma1", "image-invariance-under-theta"):
        assert record["theta_word"] == "e"
        assert record["members_theta_w"] == [0]
        assert record["members_w"] != [0]


def test_lemma1_fails_on_a_corrupted_map_set(monkeypatch):
    monkeypatch.setattr(verify, "map_set", identity_flipped(verify.map_set))
    failures_named("lemma1", "image-invariance-under-zeta")


def test_thm1_fails_on_a_corrupted_gamma_word(monkeypatch):
    monkeypatch.setattr(verify, "apply_anti", as_identity_word)
    for record in failures_named(
            "thm1", "image-of-gamma-w-equals-image-of-w-inverse"):
        assert record["gamma_word"] == "e"
        assert record["members_gamma_w"] == [0]
        assert record["members_w_inverse"] != [0]


def test_thm2_fails_on_a_corrupted_map_set(monkeypatch):
    monkeypatch.setattr(verify, "map_set", identity_flipped(verify.map_set))
    failures_named("thm2", "gamma-image-equals-inverted-image")


def test_remark_fails_on_a_perturbed_direct_count(monkeypatch):
    monkeypatch.setattr(verify, "naive_image",
                        one_more_at_1(verify.naive_image))
    found = failures_named("remark", "twisted-fiber-identity")
    for record in found:
        # Only gamma(1) is off, by the one added tuple.
        diff = [a - b for a, b in zip(record["direct_counts"],
                                      record["predicted_counts"])]
        gamma_of_1 = record["gamma_images"][1]
        assert diff == [int(x == gamma_of_1) for x in range(6)]
    # Every gamma of every word is a case that fails.
    assert len(found) == 6 * len(canonical_words(2, 2))


def test_remark_fails_on_fibers_that_are_not_aut_invariant(monkeypatch):
    original = verify.image

    def skewed(g, w, **kwargs):
        img, fibers = original(g, w, **kwargs)
        # One more tuple at an involution: inversion fixes it, but a
        # conjugation moves it, so the weak verdicts of some gammas differ.
        t = next(x for x in g.elements() if x and g.inverses[x] == x)
        counts = list(fibers.counts)
        counts[t] += 1
        return img, FiberDistribution(g, w, tuple(counts))

    monkeypatch.setattr(verify, "image", skewed)
    for record in failures_named("remark", "weak-verdict-gamma-independence"):
        assert set(record["verdicts"]) == {False, True}
    failures_named("remark", "twisted-fiber-identity")


# --- one scan and one Aut(G) pass per distinct input per run ----------------

def test_run_all_scans_and_checks_each_distinct_input_once(monkeypatch):
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("image", "map_set", "naive_image"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    run_all(Bounds())
    # One scan per (group, cyclic reduction) and one map_set per zeta or
    # gamma of each (group, G_w); each pass checked them per pair before,
    # 11,628 and 29,016 times. naive_image, the oracle, runs once per pair:
    # 36 groups x 17 words.
    assert calls == {"image": 5100, "map_set": 4566, "naive_image": 612}


# Each fault fails every zeta or gamma of every pair, 6 of them on D4, D6 and
# S3, and x1 and x1*x2 have one G_w on each group. (suite, patched name,
# fault, cases, digest): the cases and digest of each fault run before the
# suites shared their scans and Aut(G) passes.
PARITY_BOUNDS = Bounds(max_order=6, max_word_len=2, theta_samples=1,
                       gamma_samples=1, families=("S", "D"))
PARITY_RUNS = [
    ("lemma1", "map_set", identity_flipped, 84,
     "81f2aa95c901fb2e934130ea21d63a4c53931dc5ed37a00b66b4c420fecac0b1"),
    ("thm2", "map_set", identity_flipped, 72,
     "6f2241e8c94d57a4a2aea59b6da6fcf30036509f4f228b065a394f740235b52c"),
    ("remark", "naive_image", one_more_at_1, 84,
     "9faa9bd9195bbe39b4397b824444a4d213153ba64bd8302af1e30e27e3ff9d12"),
]


@pytest.mark.parametrize("suite, name, fault, cases, digest", PARITY_RUNS,
                         ids=[run[0] for run in PARITY_RUNS])
def test_each_pair_keeps_its_failure_records(monkeypatch, suite, name, fault,
                                             cases, digest):
    s3 = parse_group_spec("S3")
    assert (image(s3, parse_word("x1", 2)).members
            == image(s3, parse_word("x1*x2", 2)).members)
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    alone = run_suite(suite, PARITY_BOUNDS)
    part = run_all(PARITY_BOUNDS)[SUITES.index(suite)]
    for report in (alone, part):
        assert report.cases == cases
        assert len(report.failures) < verify.MAX_RECORDED_FAILURES
        assert Counter((f["group"], f["word"]) for f in report.failures) == {
            (g, w): 6 for g in ("D4", "D6", "S3")
            for w in ("e", "x1", "x1^2", "x1*x2")}
        assert reports.stable_digest(report.to_structured()) == digest


def test_scans_do_not_outlive_their_run(monkeypatch):
    scanned = []
    original = engine._fiber_counts

    def counted(g, w, budget):
        scanned.append((g.name, w))
        return original(g, w, budget)

    monkeypatch.setattr(engine, "_fiber_counts", counted)
    bounds = Bounds(max_order=6, max_word_len=2, theta_samples=1,
                    gamma_samples=1)
    run_all(bounds)
    first = len(scanned)
    run_all(bounds)
    assert first and len(scanned) == 2 * first
    w = parse_word("x1*x2", 2)
    assert ("S3", w) in scanned
    del scanned[:]
    engine.image(parse_group_spec("S3"), w)
    assert replay({"group": "S3", "word": "x1*x2", "arity": 2,
                   "chiral": False}) == (True, [])
    assert scanned == [("S3", w)] * 2


def test_a_wrong_oracle_on_one_word_fails_that_word_only(monkeypatch):
    # x1 and x1*x2 have equal fiber counts on each group here, so only the
    # oracle's counts tell their pairs apart.
    original = verify.naive_image
    perturbed = one_more_at_1(original)

    def wrong_on_x1_x2(g, w, **kwargs):
        return (perturbed if w == parse_word("x1*x2", 2) else original)(
            g, w, **kwargs)

    monkeypatch.setattr(verify, "naive_image", wrong_on_x1_x2)
    report = run_suite("remark", PARITY_BOUNDS)
    assert Counter((f["group"], f["word"]) for f in report.failures) == {
        (g, "x1*x2"): 6 for g in ("D4", "D6", "S3")}

import pytest

from chiralwords import catalog, reports, verify
from chiralwords.catalog import catalog_specs
from chiralwords.engine import DEFAULT_BUDGET, FiberDistribution, naive_image
from chiralwords.groups import build_family, parse_group_spec
from chiralwords.verify import (
    Bounds,
    canonical_words,
    derived_seed,
    run_all,
    run_suite,
    summarize,
)
from chiralwords.words import (
    identity_word,
    nielsen_generators,
    parse_word,
    substitute,
)

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
    from chiralwords.words import canonical_form, enumerate_words
    orbit_reps = {canonical_form(w).syllables for w in enumerate_words(2, 4)}
    assert {w.syllables for w in words} == orbit_reps


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
    part = small_run_all[SUITES.index(suite)]
    assert part.suite == suite
    assert reports.stable_digest(report.to_structured()) == \
        reports.stable_digest(part.to_structured())


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
    original = verify.naive_image

    def perturbed(g, w, **kwargs):
        img, fibers = original(g, w, **kwargs)
        counts = list(fibers.counts)
        counts[1] += 1
        return img, FiberDistribution(g, w, tuple(counts))

    monkeypatch.setattr(verify, "naive_image", perturbed)
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

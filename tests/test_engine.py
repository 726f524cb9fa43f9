import inspect
import itertools
import random

import pytest

from chiralwords.engine import (
    BudgetExceededError,
    _check_antis,
    evaluate,
    image,
    invert_set,
    is_chiral_pair,
    is_gamma_chiral_pair,
    is_weakly_chiral_pair,
    map_set,
    naive_image,
    pair_verdicts,
)
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    GroupError,
    GroupMap,
    anti_from_auto,
    build_family,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    identity_map,
    inversion_map,
    parse_group_spec,
)
from chiralwords.reports import strip_timing
from chiralwords.words import (
    FreeAntiAuto,
    apply_anti,
    identity_endo,
    invert,
    parse_word,
    random_automorphism,
    render_word,
)

from conftest import metacyclic_c7_c9, random_reduced_word

COMMUTATOR = parse_word("x1 x2 x1^-1 x2^-1", 2)


# --- evaluate ------------------------------------------------------------------

def test_evaluate_projection():
    g = build_family("S3")
    w = parse_word("x1", 2)
    for a in g.elements():
        assert evaluate(g, w, (a, 3)) == a


def test_evaluate_paper_example():
    g = build_family("S4")
    w = parse_word("x1 x3^2", 3)
    rng = random.Random(0)
    for _ in range(50):
        g1, g2, g3 = (rng.randrange(g.order) for _ in range(3))
        assert evaluate(g, w, (g1, g2, g3)) == \
            g.mul(g1, g.mul(g3, g3))


def test_evaluate_cyclic_square():
    g = build_family("C4")
    assert evaluate(g, parse_word("x1^2", 1), (3,)) == 2


def test_evaluate_negative_exponents():
    g = build_family("S4")
    w = parse_word("x1^-3 x2^2", 2)
    for a, b in itertools.product(g.elements(), repeat=2):
        expected = g.mul(g.power(g.inv(a), 3), g.mul(b, b))
        assert evaluate(g, w, (a, b)) == expected


def test_evaluate_arity_too_small():
    g = build_family("C4")
    with pytest.raises(ValueError):
        evaluate(g, parse_word("x2", 2), (1,))


# --- evaluate_twisted -------------------------------------------------------------

def evaluate_twisted(g, w, gamma, tup):
    """The twisted map w_gamma = gamma(w(...)), evaluated at one tuple."""
    _check_antis(g, [gamma])
    return gamma.images[evaluate(g, w, tup)]


def test_twisted_inversion():
    g = build_family("S3")
    gamma = anti_from_auto(identity_map(g))
    w = parse_word("x1", 1)
    for a in g.elements():
        assert evaluate_twisted(g, w, gamma, (a,)) == g.inv(a)


def test_twisted_fixes_identity_tuple():
    g = build_family("Q8")
    for gamma in enumerate_anti_automorphisms(g):
        assert evaluate_twisted(g, COMMUTATOR, gamma, (0, 0)) == 0


def test_twisted_s3_example():
    g = build_family("S3")
    gamma = anti_from_auto(identity_map(g))
    a = g.labels.index("(1 2)")
    b = g.labels.index("(1 3)")
    w = parse_word("x1 x2", 2)
    assert evaluate_twisted(g, w, gamma, (a, b)) == g.inv(g.mul(a, b))


# --- image and fibers -------------------------------------------------------------

def test_image_square_on_c4():
    g = build_family("C4")
    img, fibers = image(g, parse_word("x1^2", 1), want_fibers=True)
    assert img.member_indices == (0, 2)
    assert fibers.counts == (2, 0, 2, 0)


def test_image_of_x1_is_everything():
    for spec in ["C6", "S3", "Q8"]:
        g = parse_group_spec(spec)
        img, fibers = image(g, parse_word("x1", 1), want_fibers=True)
        assert img.member_indices == tuple(g.elements())
        assert fibers.counts == (1,) * g.order


def test_commutator_image_on_s3():
    g = build_family("S3")
    img, fibers = image(g, COMMUTATOR, want_fibers=True)
    assert img.size == 3  # the even permutations
    assert sum(fibers.counts) == 36
    orders = [g.labels[x] for x in img.member_indices]
    assert set(orders) == {"e", "(1 2 3)", "(1 3 2)"}


def test_identity_always_in_image(rng):
    for spec in ["C5", "S3", "D8", "A4"]:
        g = parse_group_spec(spec)
        for _ in range(10):
            w = random_reduced_word(rng, 2, 5)
            img = image(g, w)
            assert img.members[0]


def test_image_matches_naive(rng):
    groups = [parse_group_spec(s) for s in ["C4", "C6", "S3", "D8", "Q8"]]
    for _ in range(60):
        g = rng.choice(groups)
        w = random_reduced_word(rng, 2, 5)
        fast, fast_fibers = image(g, w, want_fibers=True)
        ref, ref_fibers = naive_image(g, w)
        assert fast.members == ref.members
        assert fast_fibers.counts == ref_fibers.counts


def test_image_identity_word_and_arity_padding():
    g = build_family("S3")
    img, fibers = image(g, parse_word("e", 1), want_fibers=True)
    assert img.member_indices == (0,)
    assert fibers.counts == (g.order,) + (0,) * (g.order - 1)
    # a coordinate the word does not read scales every fiber by |G|
    base = image(g, parse_word("x1^2", 1), want_fibers=True)[1]
    padded = image(g, parse_word("x1^2", 2), want_fibers=True)[1]
    assert padded.counts == tuple(c * g.order for c in base.counts)


# --- the word's rank is the map's arity -----------------------------------------

# Each scan entry point, with the last parameter that may be positional.
SCAN_ENTRY_POINTS = [(image, "w"), (naive_image, "w"), (pair_verdicts, "w"),
                     (is_chiral_pair, "w"), (is_gamma_chiral_pair, "w"),
                     (is_weakly_chiral_pair, "gammas")]


@pytest.mark.parametrize("fn, last", SCAN_ENTRY_POINTS,
                         ids=[fn.__name__ for fn, _ in SCAN_ENTRY_POINTS])
def test_scans_take_no_arity_and_keyword_only_options(fn, last):
    params = inspect.signature(fn).parameters
    assert "arity" not in params
    options = list(params.values())[list(params).index(last) + 1:]
    assert options and all(p.kind is inspect.Parameter.KEYWORD_ONLY
                           for p in options), fn.__name__


def test_a_positional_option_is_refused():
    # Read positionally, 2 would be the budget and refuse the scan.
    with pytest.raises(TypeError):
        pair_verdicts(build_family("S3"), COMMUTATOR, 2)


def test_budget_exceeded():
    g = build_family("S5")
    with pytest.raises(BudgetExceededError) as exc:
        image(g, parse_word("x1 x2", 2), budget=1000)
    # Skip reasons enter search records and verify digests.
    assert str(exc.value) == (
        "120^2 = 14400 tuples exceed budget 1000; "
        "lower the rank or group order, or raise --budget")


def test_budget_refuses_a_huge_arity_without_the_power():
    # 6^(10^9) has about 7.8e8 digits; the check must not build it.
    with pytest.raises(BudgetExceededError) as exc:
        image(build_family("S3"), parse_word("x1 x2", 10 ** 9))
    assert str(exc.value) == (
        "6^1000000000 tuples exceed budget 16777216; "
        "lower the rank or group order, or raise --budget")
    # On the trivial group every arity has one tuple.
    img = image(build_family("C1"), parse_word("x1 x2", 10 ** 9))
    assert img.member_indices == (0,)


def test_evaluate_inverse_word(rng):
    for spec in ["S3", "Q8"]:
        g = parse_group_spec(spec)
        w = random_reduced_word(rng, 2, 4)
        for tup in itertools.product(range(g.order), repeat=2):
            assert evaluate(g, invert(w), tup) == g.inv(evaluate(g, w, tup))


def test_image_of_inverse_is_inverted_set(rng):
    for spec in ["S3", "D8", "A4"]:
        g = parse_group_spec(spec)
        for _ in range(10):
            w = random_reduced_word(rng, 2, 4)
            assert image(g, invert(w)).members == \
                invert_set(g, image(g, w).members)


# --- set operations -----------------------------------------------------------------

def test_invert_set_involution(rng):
    g = build_family("D12")
    for _ in range(50):
        s = tuple(rng.random() < 0.5 for _ in g.elements())
        assert invert_set(g, invert_set(g, s)) == s
    singleton = tuple(x == 0 for x in g.elements())
    assert invert_set(g, singleton) == singleton


def test_map_set_basics(rng):
    g = build_family("S3")
    s = image(g, parse_word("x1^2", 1)).members
    assert map_set(identity_map(g), s) == s
    assert map_set(anti_from_auto(identity_map(g)), s) == invert_set(g, s)
    for zeta in enumerate_automorphisms(g):
        assert map_set(zeta, s) == s  # image invariance under Aut(G)


# --- chirality predicates -------------------------------------------------------------

def test_abelian_groups_never_chiral(rng):
    g = build_family("C12")
    for _ in range(20):
        w = random_reduced_word(rng, 2, 5)
        assert not is_chiral_pair(g, w).chiral


def test_power_words_never_chiral():
    for spec in ["S3", "S4", "Q8", "A4"]:
        g = parse_group_spec(spec)
        for k in range(1, 6):
            assert not is_chiral_pair(g, parse_word(f"x1^{k}", 1)).chiral


def test_chiral_report_witness_consistency(rng):
    g = build_family("S4")
    for _ in range(10):
        w = random_reduced_word(rng, 2, 4)
        report = is_chiral_pair(g, w)
        members = set(report.image.member_indices)
        if report.chiral:
            x = report.chiral_witness
            assert x in members and g.inv(x) not in members
        else:
            assert report.chiral_witness is None
            assert all(g.inv(x) in members for x in members)


def test_gamma_chirality_matches_chirality(rng):
    groups = [parse_group_spec(s) for s in ["C6", "S3", "D8", "Q8", "A4"]]
    for g in groups:
        gammas = enumerate_anti_automorphisms(g)
        for _ in range(5):
            w = random_reduced_word(rng, 2, 4)
            base = is_chiral_pair(g, w).chiral
            # word flavor, theta = identity: definitionally plain chirality
            r = is_gamma_chiral_pair(
                g, w, gamma_word=FreeAntiAuto(identity_endo(2)))
            assert r.chiral == base
            # word flavor, sampled theta
            theta = random_automorphism(2, 5, 11)
            assert is_gamma_chiral_pair(
                g, w, gamma_word=FreeAntiAuto(theta)).chiral == base
            # group flavor, every anti-automorphism
            for gamma in gammas:
                assert is_gamma_chiral_pair(
                    g, w, gamma_group=gamma).chiral == base


def test_gamma_flavor_validation():
    g = build_family("S3")
    w = parse_word("x1 x2", 2)
    with pytest.raises(ValueError):
        is_gamma_chiral_pair(g, w)
    with pytest.raises(ValueError):
        is_gamma_chiral_pair(g, w, gamma_word=FreeAntiAuto(identity_endo(2)),
                             gamma_group=anti_from_auto(identity_map(g)))


PINNED_GROUPS = {"C7:C9": metacyclic_c7_c9(), "S4": parse_group_spec("S4"),
                 "Q8": parse_group_spec("Q8")}
# Chiral on C7:C9; weakly chiral only on C7:C9; chiral nowhere.
PINNED_WORDS = ["x1^-12 x2 x1^3 x2^2", "x1^4 x2 x1^-1 x2^2",
                "x1 x2 x1^-1 x2^2"]


def reference_gamma_report(g, w, gamma_word=None, gamma_group=None):
    """The structured report `is_gamma_chiral_pair` must give, from
    `naive_image` and the forward scatter `map_set`."""
    img, _ = naive_image(g, w)
    evaluations = g.order ** img.arity
    if gamma_word is not None:
        tw = apply_anti(w, gamma_word)
        twisted, _ = naive_image(g, tw)
        other, flavor = twisted.members, "word-anti"
        evaluations += g.order ** twisted.arity
    else:
        other, flavor = map_set(gamma_group, img.members), "group-anti"
    differ = [x for x in g.elements() if img.members[x] != other[x]]
    return {
        "schema_version": 1, "kind": "chirality-report", "group": g.name,
        "order": g.order, "word": render_word(w), "arity": img.arity,
        "members": list(img.member_indices), "counts": None,
        "chiral": bool(differ), "weakly_chiral": None,
        "chiral_witness": differ[0] if differ else None,
        "weak_witness": None,
        "gamma_results": [{"gamma": flavor, "chiral": bool(differ)}],
        "all_gammas_agree": None, "evaluations": evaluations,
    }


@pytest.mark.parametrize("spec", PINNED_GROUPS)
@pytest.mark.parametrize("text", PINNED_WORDS)
def test_gamma_chiral_reports_match_a_naive_reference(spec, text):
    g, w = PINNED_GROUPS[spec], parse_word(text, 2)
    flavors = [{"gamma_group": gamma} for gamma in
               [inversion_map(g)] + list(enumerate_anti_automorphisms(g)[:12])]
    flavors += [{"gamma_word": FreeAntiAuto(theta)} for theta in
                [identity_endo(2)] + [random_automorphism(2, 5, seed)
                                      for seed in (3, 17)]]
    chiral = []
    for flavor in flavors:
        report = strip_timing(is_gamma_chiral_pair(g, w, **flavor)
                              .to_structured())
        assert report == reference_gamma_report(g, w, **flavor), flavor
        chiral.append(report["chiral"])
    assert chiral == [spec == "C7:C9" and text == PINNED_WORDS[0]] * 16


def test_weak_chirality_examples():
    c4 = build_family("C4")
    gamma = [anti_from_auto(identity_map(c4))]
    assert not is_weakly_chiral_pair(c4, parse_word("x1^2", 1), gamma).weakly_chiral
    for spec in ["C6", "S3", "Q8"]:
        g = parse_group_spec(spec)
        gm = [anti_from_auto(identity_map(g))]
        r = is_weakly_chiral_pair(g, parse_word("x1", 2), gm)
        assert not r.weakly_chiral
        assert set(r.counts) == {g.order}  # all fibers |G|^(d-1)


def test_predicates_report_every_gamma_they_are_given():
    g = parse_group_spec("S3")
    w = parse_word("x1^2 x2", 2)
    gammas = enumerate_anti_automorphisms(g)
    plain = is_chiral_pair(g, w)
    assert (plain.gamma_results, plain.all_gammas_agree) == ([], None)
    report = is_chiral_pair(g, w, gammas=gammas)
    assert [r["gamma_index"] for r in report.gamma_results] == [0, 1, 2, 3, 4, 5]
    assert report.all_gammas_agree and report.chiral == plain.chiral
    weak = is_weakly_chiral_pair(g, w, gammas)
    assert [r["weakly_chiral"] for r in weak.gamma_results] == [False] * 6
    assert weak.all_gammas_agree and weak.counts is not None


def test_predicates_refuse_a_gamma_that_is_no_anti_automorphism():
    g = parse_group_spec("S3")
    w = parse_word("x1 x2", 2)
    auto = [identity_map(g)]
    with pytest.raises(GroupError, match="anti-automorphism"):
        is_chiral_pair(g, w, gammas=auto)
    with pytest.raises(GroupError, match="anti-automorphism"):
        is_weakly_chiral_pair(g, w, auto)
    # Refused before the scan, which this budget would refuse.
    with pytest.raises(GroupError, match="gamma must be an anti-automorphism"):
        is_gamma_chiral_pair(g, w, gamma_group=auto[0], budget=1)
    with pytest.raises(ValueError, match="at least one gamma"):
        is_weakly_chiral_pair(g, w, [])


# budget=1 refuses every scan below, so a refusal with GroupError is made
# before the scan.
PREDICATES = {
    "chiral": lambda g, w, gamma: is_chiral_pair(g, w, budget=1,
                                                 gammas=[gamma]),
    "weak": lambda g, w, gamma: is_weakly_chiral_pair(g, w, [gamma],
                                                      budget=1),
    "gamma": lambda g, w, gamma: is_gamma_chiral_pair(g, w, gamma_group=gamma,
                                                      budget=1),
}


@pytest.mark.parametrize("predicate,other,word", [
    ("chiral", "C6", "x1 x2"), ("weak", "C6", "x1 x2"),
    ("gamma", "C4", "x1^2"),
    ("chiral", "S4", "x1 x2"), ("weak", "S4", "x1 x2"),
    ("gamma", "S4", "x1^2"),
])
def test_predicates_refuse_a_gamma_of_another_group(predicate, other, word):
    g = parse_group_spec("S3")
    gamma = inversion_map(parse_group_spec(other))
    with pytest.raises(GroupError, match="gamma belongs to a different group"):
        PREDICATES[predicate](g, parse_word(word, 2), gamma)
    with pytest.raises(GroupError, match="gamma belongs to a different group"):
        evaluate_twisted(g, parse_word(word, 2), gamma, (1, 2))


def test_a_gamma_of_an_equal_group_built_apart_is_accepted():
    g = parse_group_spec("S3")
    twin = build_family("S3")
    assert twin is not g and twin == g
    w = parse_word("x1 x2^2", 2)
    gamma = inversion_map(twin)
    assert is_chiral_pair(g, w, gammas=[gamma]).all_gammas_agree
    assert is_weakly_chiral_pair(g, w, [gamma]).all_gammas_agree
    assert is_gamma_chiral_pair(g, w, gamma_group=gamma).chiral is False


def test_weak_verdict_gamma_independent(rng):
    for spec in ["S3", "Q8"]:
        g = parse_group_spec(spec)
        gammas = enumerate_anti_automorphisms(g)
        for _ in range(8):
            w = random_reduced_word(rng, 2, 4)
            verdicts = {is_weakly_chiral_pair(
                g, w, [gamma]).weakly_chiral for gamma in gammas}
            assert len(verdicts) == 1


def test_fiber_sum_invariant(rng):
    for spec in ["C5", "S3", "D8"]:
        g = parse_group_spec(spec)
        for _ in range(10):
            w = random_reduced_word(rng, 2, 4)
            _, fibers = image(g, w, want_fibers=True)
            assert sum(fibers.counts) == g.order ** w.rank
            img = image(g, w)
            assert all((c > 0) == m
                       for c, m in zip(fibers.counts, img.members))


def test_report_structured_fields():
    g = build_family("S3")
    report = is_chiral_pair(g, COMMUTATOR)
    doc = report.to_structured()
    assert doc["schema_version"] == 1
    assert doc["group"] == "S3"
    assert doc["word"] == "x1*x2*x1^-1*x2^-1"
    assert doc["chiral"] is False
    assert doc["evaluations"] == 36


def test_gamma_verdicts_catch_a_bad_gamma():
    g = build_family("S3")
    v = pair_verdicts(g, parse_word("x1^2", 1))  # G_w = {e} + 3-cycles
    inversion = v.against([inversion_map(g)])[0]
    assert inversion.chiral == v.chiral
    assert inversion.weak_witness == v.weak_witness
    members = v.image.members
    assert map_set(inversion_map(g), members) == invert_set(g, members)
    # A bijection swapping a 3-cycle with a transposition is no
    # anti-automorphism; it is built unchecked so the verdicts must see it.
    swap = list(g.elements())
    a, b = g.labels.index("(1 2 3)"), g.labels.index("(1 2)")
    swap[a], swap[b] = b, a
    bad = GroupMap._derived(g, tuple(swap), ANTI_AUTOMORPHISM)
    verdict = v.against([bad])[0]
    assert verdict.chiral and verdict.chiral != v.chiral
    assert map_set(bad, members) != invert_set(g, members)
    assert verdict.weak_witness == min(a, b)

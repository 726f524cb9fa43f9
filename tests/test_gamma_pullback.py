"""Per-gamma verdicts read through the pull-back gather of gamma^-1, and
the Aut(G)-orbit check that certifies a finding's `gammas_agree`.

`PairVerdicts.against` compares pulled tuples, or, given all of AA(G)
and fibers constant on the Aut(G)-orbits, repeats inversion's verdicts;
either way it must equal a reference built the direct way, from `map_set`
and `weak_verdict_from_counts`. `_scan_pair(...).gammas_agree` must equal
the per-gamma rule (every gamma in AA(G) gives inversion's chiral and weak
verdicts and maps G_w onto (G_w)^-1) on the small catalog, and must fail
on constructed fibers that break Aut(G)-invariance.
"""

import pytest

from chiralwords import engine
from chiralwords.catalog import catalog_specs
from chiralwords.engine import (
    FiberDistribution,
    GammaVerdict,
    WordImage,
    invert_set,
    map_set,
    orbit_constant,
    pair_verdicts,
    weak_verdict_from_counts,
)
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AllGammas,
    GroupMap,
    automorphism_orbit_minima,
    build_family,
    gamma_data,
    identity_map,
    inversion_map,
    parse_group_spec,
    with_inverse,
)
from chiralwords.search import _scan_pair
from chiralwords.words import parse_word

WORDS = ["x1 x2 x1^-1 x2^-1", "x1^2 x2^3 x1 x2^-1", "x1^2 x2^2", "x1^3"]
BUDGET = 2 ** 24
AUTO_CAP = 64


def reference(v, gammas):
    """The per-gamma verdicts computed directly, without pull-backs."""
    g, members = v.image.group, v.image.members
    counts = v.fibers.counts
    return [GammaVerdict(chiral=map_set(gamma, members) != members,
                         weak_witness=weak_verdict_from_counts(
                             g, counts, inverse))
            for gamma, inverse in gammas]


def per_gamma_rule(v, gammas):
    """Whether every gamma reproduces both inversion verdicts and maps G_w
    onto (G_w)^-1, as Theorem 2 says."""
    g, members = v.image.group, v.image.members
    inverted = invert_set(g, members)
    return all(r.chiral == v.chiral
               and (r.weak_witness is not None) == v.weakly_chiral
               and map_set(gamma, members) == inverted
               for r, (gamma, _) in zip(reference(v, gammas), gammas))


def check(v, gammas):
    verdicts = v.against(gammas)
    assert verdicts == reference(v, gammas)
    return verdicts


def fake_image(monkeypatch, g, counts):
    """Make every scan of g return the given fiber counts."""
    w = parse_word("x1", 1)
    fake = (WordImage(g, w, 1, tuple(c > 0 for c in counts)),
            FiberDistribution(g, w, 1, tuple(counts)))
    monkeypatch.setattr(engine, "image", lambda *args, **kwargs: fake)
    return w


def faked(monkeypatch, g, counts):
    """pair_verdicts on g with the given fiber counts in place of a scan."""
    return pair_verdicts(g, fake_image(monkeypatch, g, counts))


def scan_faked(monkeypatch, spec, counts, auto_cap=AUTO_CAP):
    """The finding on spec's group with the given fiber counts."""
    g = build_family(spec)
    w = fake_image(monkeypatch, g, counts)
    return _scan_pair(spec, g, w, auto_cap, BUDGET)


@pytest.mark.parametrize("spec", catalog_specs(24))
def test_pullback_matches_direct_verdicts_on_the_catalog(spec):
    g = parse_group_spec(spec)
    gammas = gamma_data(g)
    odd = gammas + (with_inverse(identity_map(g)),)
    for text in WORDS:
        w = parse_word(text, 2)
        v = pair_verdicts(g, w, 2)
        check(v, gammas)
        check(v, odd)
        finding = _scan_pair(spec, g, w, AUTO_CAP, BUDGET)
        assert finding.gammas_agree is per_gamma_rule(v, gammas) is True


@pytest.mark.parametrize("spec", ["S4", "Q8xC2", "A5"])
def test_all_gammas_on_orbit_constant_fibers_need_no_pull(spec,
                                                          monkeypatch):
    # A real word's fibers are constant on the Aut(G)-orbits (Lemma 1), so
    # against all of AA(G) every verdict is inversion's, taken without
    # pulling anything back through any gamma.
    g = parse_group_spec(spec)
    gammas = gamma_data(g)
    assert isinstance(gammas, AllGammas)
    assert gammas.orbit_minima == automorphism_orbit_minima(g)

    def no_pull(seq):
        raise AssertionError("pulled back through a gamma")

    for gamma in gammas:
        monkeypatch.setattr(gamma, "pull", no_pull)
    for text in WORDS:
        v = pair_verdicts(g, parse_word(text, 2), 2)
        assert orbit_constant(v.fibers.counts, gammas.orbit_minima)
        assert check(v, gammas) == [
            GammaVerdict(v.chiral, v.weak_witness)] * len(gammas)


@pytest.mark.parametrize("spec", ["C1", "C2"])
def test_single_and_two_element_gathers_return_tuples(spec):
    g = build_family(spec)
    for gamma in gamma_data(g):
        assert gamma.pull(tuple(range(10, 10 + g.order))) == tuple(
            10 + gamma[1][x] for x in g.elements())


def test_positive_fibers_run_the_disagreeing_branches(monkeypatch):
    # C3 with fibers (1, 2, 0): chiral and weakly chiral against
    # inversion. AA(C3) is inversion, then the identity (C3 is abelian),
    # which fixes G_w and every fiber, so it disagrees with inversion.
    g = build_family("C3")
    v = faked(monkeypatch, g, (1, 2, 0))
    assert v.chiral and v.weakly_chiral
    gammas = gamma_data(g)
    assert [gamma.images for gamma, _ in gammas] == [(0, 2, 1), (0, 1, 2)]
    # All of AA(C3), but the fibers are not orbit-constant, so each gamma
    # is pulled back on its own.
    assert isinstance(gammas, AllGammas)
    assert not orbit_constant(v.fibers.counts, gammas.orbit_minima)
    inv, ident = check(v, gammas)
    assert inv == GammaVerdict(True, 1)
    assert ident == GammaVerdict(False, None)
    assert per_gamma_rule(v, gammas[:1]) and not per_gamma_rule(v, gammas)
    assert automorphism_orbit_minima(g) == (0, 1, 1)
    assert scan_faked(monkeypatch, "C3", (1, 2, 0)).gammas_agree is False


def test_gammas_agree_reads_the_weak_verdict(monkeypatch):
    # G_w = C3 is closed under inversion, but N(1) = 2 != 4 = N(1^-1). The
    # identity maps G_w onto its inverse and agrees on chirality, so only
    # the weak verdict tells it apart from inversion.
    g = build_family("C3")
    v = faked(monkeypatch, g, (3, 2, 4))
    assert not v.chiral and v.weak_witness == 1
    ident = [with_inverse(identity_map(g))]
    assert check(v, ident) == [GammaVerdict(False, None)]
    assert not per_gamma_rule(v, ident)
    inv = [with_inverse(inversion_map(g))]
    assert check(v, inv) == [GammaVerdict(False, 1)]
    assert per_gamma_rule(v, inv)
    assert scan_faked(monkeypatch, "C3", (3, 2, 4)).gammas_agree is False


def test_gammas_agree_needs_fibers_constant_on_automorphism_orbits(
        monkeypatch):
    # Aut(S3) = Inn(S3), so its orbits are the conjugacy classes. These
    # fibers differ on the transpositions, so no word has them (Lemma 1).
    # Every gamma still gives inversion's verdicts, as each one moves the
    # transpositions or swaps the 3-cycles, so only the orbit check sees
    # the broken invariance.
    g = build_family("S3")
    assert g.labels == ("e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)")
    assert automorphism_orbit_minima(g) == (0, 1, 1, 3, 3, 1)
    counts = (1, 2, 3, 12, 14, 4)
    v = faked(monkeypatch, g, counts)
    assert not v.chiral and v.weakly_chiral
    assert per_gamma_rule(v, gamma_data(g))
    assert scan_faked(monkeypatch, "S3", counts).gammas_agree is False


def test_gammas_agree_is_unknown_above_the_automorphism_cap():
    g = build_family("S4")
    w = parse_word(WORDS[0], 2)
    finding = _scan_pair("S4", g, w, 12, BUDGET)
    assert finding.gammas_agree is None
    assert finding.chiral is False and finding.skipped is None
    assert _scan_pair("S4", g, w, 24, BUDGET).gammas_agree is True


def test_weak_witness_is_taken_against_gamma_inverse(monkeypatch):
    # On C7, gamma(x) = 4x is an anti-automorphism with gamma^-1(x) = 2x.
    # N(1) = N(4) != N(2): the witness through gamma^-1 is 1, while one
    # taken through gamma would be 2.
    g = build_family("C7")
    gamma = GroupMap(g, tuple(4 * x % 7 for x in g.elements()),
                     ANTI_AUTOMORPHISM)
    v = faked(monkeypatch, g, (0, 5, 1, 0, 5, 0, 0))
    [verdict] = check(v, [with_inverse(gamma)])
    assert verdict.weak_witness == 1


def test_sets_are_pulled_through_gamma_inverse(monkeypatch):
    # An unchecked bijection of C7 cycling 1 -> 6 -> 5 -> 1 maps
    # G_w = {0, 1} onto {0, 6} = G_w^-1; its inverse maps G_w onto {0, 5}.
    g = build_family("C7")
    images = (0, 6, 2, 3, 4, 1, 5)
    beta = GroupMap._derived(g, images, ANTI_AUTOMORPHISM)
    v = faked(monkeypatch, g, (1, 1, 0, 0, 0, 0, 0))
    members = v.image.members
    inverted = invert_set(g, members)
    forth, back = with_inverse(beta), with_inverse(beta.inverse())
    assert [r.chiral for r in check(v, [forth, back])] == [True, True]
    assert forth.pull(members) == inverted
    assert back.pull(members) != inverted

"""Per-gamma verdicts read through the gather of gamma^-1, and the
Aut(G)-orbit check that certifies a finding's `gammas_agree`.

`PairVerdicts.against` compares gathered tuples, or, given all of AA(G)
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
    pair_verdicts,
    weak_verdict_from_counts,
)
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AllGammas,
    GroupMap,
    build_family,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    identity_map,
    inversion_map,
    parse_group_spec,
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
                             g, counts, tuple(map(gamma.images.index,
                                                  g.elements()))))
            for gamma in gammas]


def orbit_minima(g):
    """The least element of each Aut(G)-orbit, from the automorphisms."""
    return tuple(min(zeta.images[x] for zeta in enumerate_automorphisms(g))
                 for x in g.elements())


def per_gamma_rule(v, gammas):
    """Whether every gamma reproduces both inversion verdicts and maps G_w
    onto (G_w)^-1, as Theorem 2 says."""
    g, members = v.image.group, v.image.members
    inverted = invert_set(g, members)
    return all(r.chiral == v.chiral
               and (r.weak_witness is not None) == v.weakly_chiral
               and map_set(gamma, members) == inverted
               for r, gamma in zip(reference(v, gammas), gammas))


def check(v, gammas):
    verdicts = v.against(gammas)
    assert verdicts == reference(v, gammas)
    return verdicts


def fake_image(monkeypatch, g, counts):
    """Make every scan of g return the given fiber counts."""
    w = parse_word("x1", 1)
    fake = (WordImage(g, w, tuple(c > 0 for c in counts)),
            FiberDistribution(g, w, tuple(counts)))
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
    gammas = enumerate_anti_automorphisms(g)
    odd = gammas + (identity_map(g),)
    for text in WORDS:
        w = parse_word(text, 2)
        v = pair_verdicts(g, w)
        check(v, gammas)
        check(v, odd)
        finding = _scan_pair(spec, g, w, AUTO_CAP, BUDGET)
        assert finding.gammas_agree is per_gamma_rule(v, gammas) is True


@pytest.mark.parametrize("spec", ["S4", "Q8xC2", "A5"])
def test_all_gammas_on_orbit_constant_fibers_need_no_pull(spec,
                                                          monkeypatch):
    # A real word's fibers are constant on the Aut(G)-orbits (Lemma 1), so
    # against all of AA(G) every verdict is inversion's, taken without
    # reading any gamma's inverse image array.
    g = parse_group_spec(spec)
    gammas = enumerate_anti_automorphisms(g)
    assert isinstance(gammas, AllGammas)
    assert gammas.orbit_minima == orbit_minima(g)
    verdicts = {}
    for text in WORDS:
        v = pair_verdicts(g, parse_word(text, 2))
        assert weak_verdict_from_counts(g, v.fibers.counts,
                                        gammas.orbit_minima) is None
        verdicts[text] = v, reference(v, gammas)

    def no_pull(self):
        raise AssertionError("gathered through a gamma's inverse")

    # A data descriptor on the class outranks any array already cached on
    # an instance, so every read of an inverse array fails from here on.
    monkeypatch.setattr(GroupMap, "inverse_images", property(no_pull))
    for v, expected in verdicts.values():
        assert v.against(gammas) == expected == [
            GammaVerdict(v.chiral, v.weak_witness)] * len(gammas)


@pytest.mark.parametrize("spec", ["C1", "C2"])
def test_single_and_two_element_gathers_return_tuples(spec, monkeypatch):
    # On one or two elements the per-gamma path still gathers whole
    # tuples, so its verdicts are the direct ones.
    g = build_family(spec)
    gammas = enumerate_anti_automorphisms(g)
    for gamma in gammas:
        assert gamma.inverse_images == tuple(
            gamma.images.index(x) for x in g.elements())
    v = faked(monkeypatch, g, (1,) + (0,) * (g.order - 1))
    assert check(v, list(gammas)) == [GammaVerdict(False, None)] * len(gammas)


@pytest.mark.parametrize("spec", catalog_specs(24))
def test_enumerated_anti_automorphisms_carry_the_orbit_minima(spec):
    g = parse_group_spec(spec)
    gammas = enumerate_anti_automorphisms(g)
    assert isinstance(gammas, AllGammas)
    assert gammas.orbit_minima == orbit_minima(g)
    assert not isinstance(gammas + (), AllGammas)
    assert not isinstance(gammas[:1], AllGammas)


@pytest.mark.parametrize("spec", catalog_specs(32))
def test_inverse_images_invert_images_on_both_sides(spec):
    g = parse_group_spec(spec)
    maps = (enumerate_automorphisms(g) + enumerate_anti_automorphisms(g)
            + (identity_map(g), inversion_map(g)))
    for m in maps:
        inv = m.inverse_images
        assert len(inv) == g.order
        assert all(inv[m.images[x]] == x and m.images[inv[x]] == x
                   for x in g.elements())
        assert m.inverse().images is inv and m.inverse().kind == m.kind


def test_positive_fibers_run_the_disagreeing_branches(monkeypatch):
    # C3 with fibers (1, 2, 0): chiral and weakly chiral against
    # inversion. AA(C3) is inversion, then the identity (C3 is abelian),
    # which fixes G_w and every fiber, so it disagrees with inversion.
    g = build_family("C3")
    v = faked(monkeypatch, g, (1, 2, 0))
    assert v.chiral and v.weakly_chiral
    gammas = enumerate_anti_automorphisms(g)
    assert [gamma.images for gamma in gammas] == [(0, 2, 1), (0, 1, 2)]
    # All of AA(C3), but the fibers are not orbit-constant, so each gamma
    # is pulled back on its own.
    assert isinstance(gammas, AllGammas)
    assert weak_verdict_from_counts(g, v.fibers.counts,
                                    gammas.orbit_minima) is not None
    inv, ident = check(v, gammas)
    assert inv == GammaVerdict(True, 1)
    assert ident == GammaVerdict(False, None)
    assert per_gamma_rule(v, gammas[:1]) and not per_gamma_rule(v, gammas)
    assert enumerate_anti_automorphisms(g).orbit_minima == (0, 1, 1)
    assert scan_faked(monkeypatch, "C3", (1, 2, 0)).gammas_agree is False


def test_gammas_agree_reads_the_weak_verdict(monkeypatch):
    # G_w = C3 is closed under inversion, but N(1) = 2 != 4 = N(1^-1). The
    # identity maps G_w onto its inverse and agrees on chirality, so only
    # the weak verdict tells it apart from inversion.
    g = build_family("C3")
    v = faked(monkeypatch, g, (3, 2, 4))
    assert not v.chiral and v.weak_witness == 1
    ident = [identity_map(g)]
    assert check(v, ident) == [GammaVerdict(False, None)]
    assert not per_gamma_rule(v, ident)
    inv = [inversion_map(g)]
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
    assert enumerate_anti_automorphisms(g).orbit_minima == (0, 1, 1, 3, 3, 1)
    counts = (1, 2, 3, 12, 14, 4)
    v = faked(monkeypatch, g, counts)
    assert not v.chiral and v.weakly_chiral
    assert per_gamma_rule(v, enumerate_anti_automorphisms(g))
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
    [verdict] = check(v, [gamma])
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
    forth, back = beta, beta.inverse()
    assert [r.chiral for r in check(v, [forth, back])] == [True, True]
    assert map_set(forth, members) == inverted
    assert map_set(back, members) != inverted

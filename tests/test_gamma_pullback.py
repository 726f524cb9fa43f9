"""Per-gamma verdicts read through the pull-back gather of gamma^-1.

`PairVerdicts.against` and `PairVerdicts.gammas_agree` compare pulled
tuples; here they must equal a reference built the direct way, from
`map_set`, `invert_set` and `weak_verdict_from_counts`, on the whole small
catalog and on constructed fibers that drive every branch.
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
    GroupMap,
    build_family,
    gamma_data,
    identity_map,
    inversion_map,
    parse_group_spec,
    with_inverse,
)
from chiralwords.words import parse_word

WORDS = ["x1 x2 x1^-1 x2^-1", "x1^2 x2^3 x1 x2^-1", "x1^2 x2^2", "x1^3"]


def reference(v, gammas):
    """The per-gamma verdicts computed directly, without pull-backs."""
    g, members = v.image.group, v.image.members
    counts = v.fibers.counts
    inverted = invert_set(g, members)
    return [GammaVerdict(chiral=map_set(gamma, members) != members,
                         weak_witness=weak_verdict_from_counts(
                             g, counts, inverse),
                         maps_to_inverse=map_set(gamma, members) == inverted)
            for gamma, inverse in gammas]


def check(v, gammas):
    verdicts = v.against(gammas)
    assert verdicts == reference(v, gammas)
    assert v.gammas_agree(gammas) == all(v.agrees_with(r) for r in verdicts)
    return verdicts


def faked(monkeypatch, g, counts):
    """pair_verdicts on g with the given fiber counts in place of a scan."""
    w = parse_word("x1", 1)
    fake = (WordImage(g, w, 1, tuple(c > 0 for c in counts)),
            FiberDistribution(g, w, 1, tuple(counts)))
    monkeypatch.setattr(engine, "image", lambda *args, **kwargs: fake)
    return pair_verdicts(g, w)


@pytest.mark.parametrize("spec", catalog_specs(24))
def test_pullback_matches_direct_verdicts_on_the_catalog(spec):
    g = parse_group_spec(spec)
    gammas = gamma_data(g)
    odd = gammas + (with_inverse(identity_map(g)),)
    for text in WORDS:
        v = pair_verdicts(g, parse_word(text, 2), 2)
        assert all(v.agrees_with(r) for r in check(v, gammas))
        assert v.gammas_agree(gammas)
        check(v, odd)


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
    inv, ident = check(v, gammas)
    assert inv == GammaVerdict(True, 1, True) and v.agrees_with(inv)
    assert ident == GammaVerdict(False, None, False)
    assert not v.gammas_agree(gammas)
    assert v.gammas_agree(gammas[:1])


def test_gammas_agree_reads_the_weak_verdict(monkeypatch):
    # G_w = C3 is closed under inversion, but N(1) = 2 != 4 = N(1^-1). The
    # identity maps G_w onto its inverse and agrees on chirality, so only
    # the weak verdict tells it apart from inversion.
    g = build_family("C3")
    v = faked(monkeypatch, g, (3, 2, 4))
    assert not v.chiral and v.weak_witness == 1
    gammas = [with_inverse(identity_map(g))]
    [ident] = check(v, gammas)
    assert ident == GammaVerdict(False, None, True)
    assert not v.gammas_agree(gammas)
    [inv] = check(v, [with_inverse(inversion_map(g))])
    assert inv == GammaVerdict(False, 1, True)
    assert v.gammas_agree([with_inverse(inversion_map(g))])


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
    [verdict] = check(v, [with_inverse(beta)])
    assert verdict.chiral and verdict.maps_to_inverse
    [back] = check(v, [with_inverse(beta.inverse())])
    assert back.chiral and not back.maps_to_inverse


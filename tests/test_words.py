import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chiralwords.words import (
    MAX_EXPANSION,
    FreeAntiAuto,
    Word,
    WordSyntaxError,
    apply_anti,
    canonical_form,
    identity_endo,
    identity_word,
    invert,
    parse_word,
    random_automorphism,
    reduce_syllables,
    render_word,
    substitute,
)

from conftest import (
    brute_force_reduced_words,
    compose,
    concat,
    enumerate_words,
    inverse_endo,
    nielsen_generators,
    random_reduced_word,
)


def inversion_anti(rank: int) -> FreeAntiAuto:
    """The anti-automorphism w -> w^-1."""
    return FreeAntiAuto(identity_endo(rank))


def syllable_lists(rank=3):
    return st.lists(
        st.tuples(st.integers(1, rank), st.integers(-4, 4)), max_size=12)


def words(rank=3):
    return syllable_lists(rank).map(lambda s: reduce_syllables(s, rank))


# --- parsing and rendering -------------------------------------------------

def test_parse_basic():
    assert parse_word("x1 x3^2", 3).syllables == ((1, 1), (3, 2))
    assert parse_word("x1 x1^-1", 2).is_identity
    assert parse_word("x1^2 x2^-1 x2^-1 x1", 2).syllables == \
        ((1, 2), (2, -2), (1, 1))


def test_parse_star_separator_and_e():
    assert parse_word("x1*x3^2", 3) == parse_word("x1 x3^2", 3)
    assert parse_word("e", 5).is_identity
    assert parse_word("  e ", 2).is_identity


@pytest.mark.parametrize("text,rank", [
    ("y1", 2), ("x", 2), ("x0", 2), ("x3", 2), ("x1^0", 2), ("x1^", 2),
    ("x1 q", 2),
])
def test_parse_rejects(text, rank):
    with pytest.raises(WordSyntaxError):
        parse_word(text, rank)


def test_parse_error_reports_position():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("x1 x0", 2)
    assert exc.value.position == 4


@pytest.mark.parametrize("text,position", [
    ("x\u00b2", 1), ("x1^\u00b2", 3), ("x1^-\u0663", 3), ("x1 x\uff12", 4)],
    ids=["superscript-index", "superscript-exponent", "arabic-indic-exponent",
         "fullwidth-index"])
def test_parse_accepts_only_ascii_digits(text, position):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text, 2)
    assert exc.value.position == position


def test_render_parse_roundtrip(rng):
    for _ in range(200):
        w = random_reduced_word(rng, 3, 8)
        assert parse_word(render_word(w), 3) == w
    assert render_word(identity_word(2)) == "e"
    assert render_word(parse_word("x1 x3^2", 3)) == "x1*x3^2"


# Word-text characters, and non-ASCII digits that str.isdigit accepts.
WORD_CHARS = "x0123456789^-()* \u00b2\u0663\uff13"
WORD_TOKENS = ["x", "x1", "x2", "x4", "^", "^-", "^2", "^-3", "*", " ", "e",
               "(", ")", "0", "\u00b2"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.text(WORD_CHARS, max_size=16),
                 st.lists(st.sampled_from(WORD_TOKENS), max_size=8)
                 .map("".join)),
       st.integers(1, 4))
def test_word_text_gives_a_word_or_a_value_error(text, rank):
    try:
        w = parse_word(text, rank)
    except ValueError:  # WordSyntaxError and its kin
        return
    assert isinstance(w, Word) and w.rank == rank


# --- reduction -------------------------------------------------------------

def test_reduce_examples():
    assert reduce_syllables([(1, 1), (2, 1), (2, -1), (1, -1)], 2).is_identity
    assert reduce_syllables([(1, 2), (1, 3)], 2).syllables == ((1, 5),)
    assert reduce_syllables([(2, 1), (1, 1), (1, -1), (2, 1)], 2).syllables == \
        ((2, 2),)


@given(syllable_lists())
def test_reduce_idempotent(raw):
    w = reduce_syllables(raw, 3)
    assert reduce_syllables(w.syllables, 3) == w


@given(syllable_lists())
def test_reduce_normal_form(raw):
    w = reduce_syllables(raw, 3)
    for (g1, e1), (g2, _) in zip(w.syllables, w.syllables[1:]):
        assert g1 != g2
        assert e1 != 0


def test_word_invariants_enforced():
    with pytest.raises(ValueError):
        Word(2, ((1, 0),))
    with pytest.raises(ValueError):
        Word(2, ((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        Word(2, ((3, 1),))


def test_cached_support_rank_keeps_equality_and_hashing():
    w = parse_word("x1 x3^-2 x1", 3)
    assert w.support_rank == 3  # caches the value on w
    fresh = parse_word("x1 x3^-2 x1", 3)
    assert w == fresh and fresh == w
    assert hash(w) == hash(fresh)
    table = {fresh: "fresh"}
    table[w] = "read"
    assert table == {fresh: "read"}
    assert w != parse_word("x1 x2^-2 x1", 3)


# --- invert and concat -------------------------------------------------------

def test_invert_examples():
    assert invert(Word(3, ((1, 1), (3, 2)))).syllables == ((3, -2), (1, -1))
    assert invert(identity_word(2)).is_identity
    assert invert(Word(2, ((1, 2), (2, -2), (1, 1)))).syllables == \
        ((1, -1), (2, 2), (1, -2))


@given(words())
def test_invert_involution(w):
    assert invert(invert(w)) == w


@given(words())
def test_concat_with_inverse_is_identity(w):
    assert concat(w, invert(w)).is_identity
    assert concat(invert(w), w).is_identity


def test_concat_examples():
    assert concat(Word(2, ((1, 1),)), Word(2, ((1, -1),))).is_identity
    assert concat(Word(2, ((1, 2),)), Word(2, ((2, 1),))).syllables == \
        ((1, 2), (2, 1))
    assert concat(Word(2, ((1, 1), (2, 1))),
                  Word(2, ((2, -1), (1, 1)))).syllables == ((1, 2),)


def test_concat_rank_mismatch():
    with pytest.raises(ValueError):
        concat(identity_word(2), identity_word(3))


@given(words(), words(), words())
def test_concat_associative(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


# --- substitution and endomorphisms -----------------------------------------

def transvection(rank=2):
    images = [Word(rank, ((1, 1), (2, 1)))] + \
        [Word(rank, ((i, 1),)) for i in range(2, rank + 1)]
    return images


def test_substitute_examples():
    e = identity_endo(2)
    tv = [g for g in nielsen_generators(2)
          if g.images[0].syllables == ((1, 1), (2, 1))][0]
    assert substitute(Word(2, ((1, 1),)), tv).syllables == ((1, 1), (2, 1))
    assert substitute(Word(2, ((1, 1), (2, 1))), e).syllables == \
        ((1, 1), (2, 1))
    # x1^2 under x1 -> x1x2: expand and reduce by hand gives x1x2x1x2
    assert substitute(Word(2, ((1, 2),)), tv).syllables == \
        ((1, 1), (2, 1), (1, 1), (2, 1))


def test_substitute_rank_mismatch():
    with pytest.raises(ValueError):
        substitute(identity_word(3), identity_endo(2))


def test_substitute_is_monoid_action(rng):
    gens = nielsen_generators(2)
    for _ in range(100):
        e1 = rng.choice(gens)
        e2 = rng.choice(gens)
        w = random_reduced_word(rng, 2, 6)
        assert substitute(w, compose(e1, e2)) == \
            substitute(substitute(w, e2), e1)


def test_nielsen_generator_sets():
    d1 = nielsen_generators(1)
    assert len(d1) == 1
    assert d1[0].images[0].syllables == ((1, -1),)
    d2 = nielsen_generators(2)
    assert len(d2) == 3
    d3 = nielsen_generators(3)
    assert len(d3) == 4  # two swaps, one inversion, one transvection


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_nielsen_inverse_recipes(rank):
    for e in nielsen_generators(rank):
        inv = inverse_endo(e)
        for i in range(1, rank + 1):
            x = Word(rank, ((i, 1),))
            assert substitute(substitute(x, e), inv) == x
            assert substitute(substitute(x, inv), e) == x


def test_random_automorphism_determinism_and_roundtrip(rng):
    assert random_automorphism(2, 0, 1).images == identity_endo(2).images
    a = random_automorphism(2, 5, 7)
    b = random_automorphism(2, 5, 7)
    assert a.images == b.images
    for seed in range(5):
        theta = random_automorphism(2, 8, seed)
        inv = inverse_endo(theta)
        for _ in range(20):
            w = random_reduced_word(rng, 2, 6)
            assert substitute(substitute(w, theta), inv) == w


# --- anti-automorphisms ------------------------------------------------------

def test_apply_anti_special_case():
    gamma = inversion_anti(3)
    w = parse_word("x1 x3^2", 3)
    assert apply_anti(w, gamma) == parse_word("x3^-2 x1^-1", 3)
    assert apply_anti(identity_word(3), gamma).is_identity


def test_anti_composed_with_anti_is_automorphism(rng):
    # gamma2(gamma1(w)) = theta2(theta1(w)): two antis compose to an auto
    g1 = FreeAntiAuto(random_automorphism(2, 4, 3))
    g2 = FreeAntiAuto(random_automorphism(2, 4, 4))
    composite = compose(g2.theta, g1.theta)
    for _ in range(50):
        w = random_reduced_word(rng, 2, 5)
        assert apply_anti(apply_anti(w, g1), g2) == substitute(w, composite)


@given(words(rank=2), words(rank=2), st.integers(0, 5))
def test_anti_homomorphism_law(a, b, seed):
    gamma = FreeAntiAuto(random_automorphism(2, 5, seed))
    assert apply_anti(concat(a, b), gamma) == \
        concat(apply_anti(b, gamma), apply_anti(a, gamma))


# --- enumeration -------------------------------------------------------------

def test_enumerate_words_small():
    got = [render_word(w) for w in enumerate_words(2, 1)]
    assert got == ["e", "x1", "x1^-1", "x2", "x2^-1"]


def test_enumerate_words_against_oracle():
    for rank in (1, 2, 3):
        for max_len in range(5):
            stream = list(enumerate_words(rank, max_len))
            assert len(stream) == len({w.syllables for w in stream})  # dedup
            assert {w.syllables for w in stream} == \
                brute_force_reduced_words(rank, max_len)


def test_enumerate_words_count_formula():
    for rank in (1, 2, 3):
        for max_len in range(5):
            expected = 1 + sum(
                2 * rank * (2 * rank - 1) ** (k - 1)
                for k in range(1, max_len + 1))
            assert sum(1 for _ in enumerate_words(rank, max_len)) == expected


def test_enumerate_words_length_lex_order():
    stream = list(enumerate_words(2, 3))
    lengths = [w.length for w in stream]
    assert lengths == sorted(lengths)


# --- canonical form -----------------------------------------------------------

def test_canonical_form_examples():
    assert canonical_form(parse_word("x2^-1", 2)) == parse_word("x1", 2)
    assert canonical_form(parse_word("x1 x2", 2)) == \
        canonical_form(parse_word("x2 x1", 2))


def test_canonical_form_idempotent(rng):
    for _ in range(100):
        w = random_reduced_word(rng, 2, 6)
        assert canonical_form(canonical_form(w)) == canonical_form(w)


def test_canonical_form_orbit_oracle(rng):
    # All 8 signed permutations for d=2, each with optional word inversion,
    # must map to the same canonical form.
    def signed_perm_image(w, perm, signs):
        letters = [(perm[g - 1], s * signs[g - 1]) for g, s in w.letters()]
        return reduce_syllables([(g, s) for g, s in letters], 2)

    for _ in range(30):
        w = random_reduced_word(rng, 2, 5)
        canon = canonical_form(w)
        for perm in itertools.permutations((1, 2)):
            for signs in itertools.product((1, -1), repeat=2):
                v = signed_perm_image(w, perm, signs)
                assert canonical_form(v) == canon
                assert canonical_form(invert(v)) == canon


# --- expansion bound --------------------------------------------------------

def test_huge_exponents_raise_before_expanding():
    w = parse_word(f"x1^{MAX_EXPANSION} x2", 2)
    tv = [g for g in nielsen_generators(2)
          if g.images[0].syllables == ((1, 1), (2, 1))][0]
    for expand in (w.letters, lambda: canonical_form(w),
                   lambda: substitute(w, identity_endo(2))):
        with pytest.raises(ValueError, match=f"length {MAX_EXPANSION + 1}"):
            expand()
    at_bound = parse_word(f"x1^-{MAX_EXPANSION}", 1)
    assert sum(1 for _ in at_bound.letters()) == MAX_EXPANSION
    assert substitute(at_bound, identity_endo(1)) == at_bound
    # x1 -> x1 x2 doubles the syllables, so half the bound plus one fails.
    half = parse_word(f"x1^{MAX_EXPANSION // 2 + 1}", 2)
    with pytest.raises(ValueError, match="more than the bound"):
        substitute(half, tv)

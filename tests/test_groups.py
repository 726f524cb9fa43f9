import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chiralwords.cli import main
from chiralwords.groups import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    CapExceededError,
    FiniteGroup,
    GroupError,
    GroupMap,
    GroupSpecError,
    _greedy_generators,
    anti_from_auto,
    build_family,
    direct_product,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    find_identity,
    from_cayley_document,
    from_permutation_generators,
    identity_map,
    is_isomorphic,
    parse_group_spec,
    validate_group,
)

from conftest import auto_from_anti


def inner_automorphism(g: FiniteGroup, a: int) -> GroupMap:
    """Conjugation x -> a*x*a^-1."""
    ai = g.inv(a)
    images = tuple(g.mul(g.mul(a, x), ai) for x in g.elements())
    return GroupMap(g, images, AUTOMORPHISM)


# Smallest non-associative loop: Latin square with identity and two-sided
# inverses but (1*1)*2 != 1*(1*2).
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def naive_automorphisms(g: FiniteGroup):
    """Order-profile-filtered scan over all identity-fixing permutations."""
    orders = g.element_orders
    n = g.order
    found = []
    for perm in itertools.permutations(range(1, n)):
        images = (0,) + perm
        if any(orders[images[a]] != orders[a] for a in range(n)):
            continue
        if all(images[g.mul(a, b)] == g.mul(images[a], images[b])
               for a in range(n) for b in range(n)):
            found.append(images)
    return found


# --- families ----------------------------------------------------------------

def test_cyclic():
    c4 = build_family("C4")
    assert c4.order == 4
    assert c4.table[1][3] == 0
    assert c4.element_orders == (1, 4, 2, 4)


def test_dihedral_order_convention():
    d6 = build_family("D6")
    assert d6.order == 6
    assert not d6.is_abelian
    assert is_isomorphic(d6, build_family("S3"))


def test_quaternion_orders():
    q8 = build_family("Q8")
    orders = sorted(q8.element_orders)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_symmetric_and_alternating():
    s4 = build_family("S4")
    assert s4.order == 24
    a4 = build_family("A4")
    assert a4.order == 12
    assert sorted(a4.element_orders).count(3) == 8


@pytest.mark.parametrize("spec", ["D5", "D2", "S6", "S1", "A2", "A6", "C0",
                                  "Z4", "Q16"])
def test_family_rejects(spec):
    with pytest.raises(GroupSpecError):
        build_family(spec)


def test_families_validate():
    for spec in ["C1", "C7", "D8", "Q8", "S3", "S4", "A4"]:
        g = build_family(spec)
        assert validate_group(g.table) == [], spec


# --- direct product -----------------------------------------------------------

def test_klein_four():
    v = direct_product(build_family("C2"), build_family("C2"))
    assert v.order == 4
    assert all(o == 2 for o in v.element_orders[1:])


def test_product_identity_and_iso():
    g = build_family("S3")
    assert is_isomorphic(direct_product(build_family("C1"), g), g)
    assert is_isomorphic(
        direct_product(build_family("C2"), build_family("C3")),
        build_family("C6"))


def test_automorphisms_under_the_enumeration_bound_are_all_found():
    # |Aut(C2^4)| = |GL(4,2)| = 20,160, below MAX_AUTOMORPHISMS.
    autos = enumerate_automorphisms(parse_group_spec("C2xC2xC2xC2"))
    assert len(autos) == 20160


def test_product_order_cap():
    c30 = build_family("C30")
    with pytest.raises(CapExceededError):
        direct_product(c30, c30)


# --- file documents -----------------------------------------------------------

def test_cayley_document_valid():
    doc = {"name": "C3", "order": 3,
           "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    g = from_cayley_document(doc)
    assert g.order == 3
    assert g.element_orders == (1, 3, 3)


def test_cayley_document_broken_associativity():
    doc = {"order": 5, "table": NONASSOC_LOOP}
    with pytest.raises(GroupError, match="associativity fails at"):
        from_cayley_document(doc)


def test_cayley_document_relocates_identity():
    # Z3 written with its identity at index 2
    elems = [1, 2, 0]
    pos = {v: i for i, v in enumerate(elems)}
    table = [[pos[(a + b) % 3] for b in elems] for a in elems]
    g = from_cayley_document({"order": 3, "table": table,
                              "labels": ["one", "two", "zero"]})
    assert g.table[0][1] == 1 and g.table[0][2] == 2
    assert g.labels[0] == "zero"
    assert is_isomorphic(g, build_family("C3"))


# --- permutation generators ----------------------------------------------------

def test_perm_generators_cyclic():
    g = from_permutation_generators([[1, 2, 0]])
    assert is_isomorphic(g, build_family("C3"))


def test_perm_generators_two_transpositions():
    g = from_permutation_generators([[1, 0, 2], [0, 2, 1]])
    assert g.order == 6
    assert is_isomorphic(g, build_family("S3"))


def test_perm_generators_empty_and_errors():
    assert from_permutation_generators([]).order == 1
    with pytest.raises(GroupError):
        from_permutation_generators([[0, 0, 1]])
    # S6 has order 720, above the order cap of 512.
    with pytest.raises(CapExceededError, match="closure exceeds order cap 512"):
        from_permutation_generators([[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])


# --- validation -----------------------------------------------------------------

def test_validate_accepts_groups():
    assert validate_group(build_family("C5").table) == []
    assert validate_group([[0]]) == []


def test_validate_rejects_corruption():
    table = [list(row) for row in build_family("C8").table]
    rng = random.Random(8)
    for _ in range(50):
        a, b = rng.randrange(8), rng.randrange(8)
        old = table[a][b]
        table[a][b] = rng.choice([v for v in range(8) if v != old])
        assert validate_group(table)
        table[a][b] = old


def test_validate_reports_law():
    violations = validate_group(NONASSOC_LOOP)
    assert violations
    assert any("associativity" in v for v in violations)


# A loop of order 5 in which 2, 3 and 4 have one-sided inverses only:
# 2*3 = 0 but 3*2 = 1, for one.
ONE_SIDED_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def scanned_inverse_violations(table):
    """The inverse check as a scan of every pair, kept as the oracle."""
    n, e = len(table), find_identity(table)
    return [f"element {a} has no two-sided inverse" for a in range(n)
            if not any(table[a][b] == e and table[b][a] == e
                       for b in range(n))]


def relabelled(table, perm):
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


def times_cyclic(table, m):
    """table x C_m, with (a, i) at index a*m + i."""
    n = len(table)
    return [[table[a][b] * m + (i + j) % m for b in range(n) for j in range(m)]
            for a in range(n) for i in range(m)]


INVERSE_CASES = {
    "loop": ONE_SIDED_LOOP,
    "relabelled": relabelled(ONE_SIDED_LOOP, [3, 0, 4, 1, 2]),
    # 12 elements without a two-sided inverse, so the cap of 10 is reached.
    "loop-x-C4": times_cyclic(ONE_SIDED_LOOP, 4),
    # No Latin square: row 1 holds no identity, and 2*1 = 0 is no inverse
    # of 2 (1*2 = 1), but 2*2 = 0 is a two-sided one.
    "no-permutation": [[0, 1, 2], [1, 1, 1], [2, 0, 0]],
}


@pytest.mark.parametrize("table", INVERSE_CASES.values(),
                         ids=INVERSE_CASES.keys())
def test_inverse_violations_match_a_scan_of_every_pair(table):
    expected = scanned_inverse_violations(table)
    violations = validate_group(table)
    assert expected
    assert [v for v in violations if "inverse" in v] == expected[:10]
    if len(expected) >= 10:
        assert violations == expected[:10]


# --- automorphisms ----------------------------------------------------------------

@pytest.mark.parametrize("spec,count", [
    ("C4", 2), ("S3", 6), ("C2xC2", 6), ("C5", 4), ("Q8", 24),
])
def test_automorphism_counts(spec, count):
    assert len(enumerate_automorphisms(parse_group_spec(spec))) == count


@pytest.mark.parametrize("spec", ["C1", "C4", "C6", "S3", "C2xC2", "D6"])
def test_automorphisms_match_naive_oracle(spec):
    g = parse_group_spec(spec)
    got = sorted(a.images for a in enumerate_automorphisms(g))
    assert got == sorted(naive_automorphisms(g))


def test_automorphism_cap():
    with pytest.raises(CapExceededError):
        enumerate_automorphisms(build_family("S4"), cap=16)


@pytest.mark.parametrize("enumerate_maps", [enumerate_automorphisms,
                                            enumerate_anti_automorphisms])
def test_every_call_form_shares_one_cache_entry(enumerate_maps):
    g = build_family("S4")
    enumerate_maps.cache_clear()
    first = enumerate_maps(g)
    assert enumerate_maps(g, 64) is first
    assert enumerate_maps(g, cap=64) is first
    # The cap only admits or refuses g: every cap that admits it shares
    # g's entry, and a refusal comes before the lookup.
    assert enumerate_maps(g, 100) is first
    with pytest.raises(CapExceededError,
                       match=r"\|G\| = 24 exceeds automorphism cap 23"):
        enumerate_maps(g, 23)
    info = enumerate_maps.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_inner_automorphisms():
    s3 = build_family("S3")
    assert inner_automorphism(s3, 0).images == identity_map(s3).images
    c6 = build_family("C6")
    for a in c6.elements():
        assert inner_automorphism(c6, a).images == identity_map(c6).images
    # conjugation permutes the set of transpositions
    orders = s3.element_orders
    transpositions = {x for x in s3.elements() if orders[x] == 2}
    for a in s3.elements():
        conj = inner_automorphism(s3, a)
        assert {conj.images[x] for x in transpositions} == transpositions


def test_inner_automorphisms_are_enumerated():
    for spec in ["S3", "Q8", "A4"]:
        g = parse_group_spec(spec)
        enumerated = {a.images for a in enumerate_automorphisms(g)}
        for a in g.elements():
            assert inner_automorphism(g, a).images in enumerated


# --- anti-automorphism correspondence ----------------------------------------------

def test_anti_from_identity_is_inversion():
    g = build_family("S3")
    gamma = anti_from_auto(identity_map(g))
    assert gamma.kind == ANTI_AUTOMORPHISM
    assert gamma.images == g.inverses


def test_inversion_is_automorphism_on_abelian():
    g = build_family("C12")
    gamma = anti_from_auto(identity_map(g))
    # on an abelian group the same images also satisfy the automorphism law
    GroupMap(g, gamma.images, AUTOMORPHISM)


@pytest.mark.parametrize("spec", ["C4", "S3", "Q8", "C2xC2"])
def test_anti_auto_round_trip(spec):
    g = parse_group_spec(spec)
    for zeta in enumerate_automorphisms(g):
        gamma = anti_from_auto(zeta)
        assert auto_from_anti(gamma).images == zeta.images
    for gamma in enumerate_anti_automorphisms(g):
        assert anti_from_auto(auto_from_anti(gamma)).images == gamma.images


def test_anti_counts_match_auto_counts():
    for spec in ["C4", "S3", "Q8"]:
        g = parse_group_spec(spec)
        assert len(enumerate_anti_automorphisms(g)) == \
            len(enumerate_automorphisms(g))


def test_composition_of_antis_is_automorphism():
    g = build_family("S3")
    antis = enumerate_anti_automorphisms(g)
    for g1 in antis[:4]:
        for g2 in antis[:4]:
            composed = tuple(g1.images[g2.images[x]] for x in g.elements())
            GroupMap(g, composed, AUTOMORPHISM)  # constructor verifies the law


def test_group_map_rejects_wrong_kind():
    g = build_family("S3")
    with pytest.raises(GroupError):
        GroupMap(g, g.inverses, AUTOMORPHISM)  # inversion is anti on S3
    with pytest.raises(GroupError):
        auto_from_anti(identity_map(g))


# --- utilities ----------------------------------------------------------------------

def test_utilities():
    assert build_family("C12").is_abelian
    assert not build_family("S4").is_abelian
    assert is_isomorphic(build_family("D6"), build_family("S3"))
    assert not is_isomorphic(build_family("C4"), parse_group_spec("C2xC2"))
    assert not is_isomorphic(build_family("Q8"), build_family("D8"))


def test_parse_group_spec():
    assert parse_group_spec("C2xC4").order == 8
    assert parse_group_spec("Q8xC2").order == 16
    with pytest.raises(GroupSpecError):
        parse_group_spec("E8")


def test_parse_group_spec_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text('{"name": "myC3", "order": 3, '
                    '"table": [[0,1,2],[1,2,0],[2,0,1]]}')
    g = parse_group_spec(f"@{path}")
    assert g.name == "myC3"
    assert g.order == 3
    perm_path = tmp_path / "s3.json"
    perm_path.write_text('{"perm-gens": [[1,0,2],[0,2,1]]}')
    assert parse_group_spec(f"@{perm_path}").order == 6


@pytest.mark.parametrize("rel", ["odd.", ".hidden", "a.b.c", "s3.json",
                                 "./s3.json", "sub//s3.json", "s3.json/"])
def test_file_paths_read_as_pathlib_reads_them(tmp_path, rel):
    """A `perm-gens` group is named by the path's stem, and errors show the
    path, both as `pathlib.Path` gives them; the package does not import
    pathlib, which is slow to import."""
    (tmp_path / "sub").mkdir()
    for name in ("odd.", ".hidden", "a.b.c", "s3.json", "sub/s3.json"):
        (tmp_path / name).write_text('{"perm-gens": [[1,0,2],[0,2,1]]}')
    spelled = f"{tmp_path}/{rel}"
    assert parse_group_spec(f"@{spelled}").name == Path(spelled).stem
    missing = f"/{tmp_path}//./{rel}.missing"
    with pytest.raises(GroupError) as exc:
        parse_group_spec(f"@{missing}")
    assert str(exc.value).startswith(
        f"cannot read group file {Path(missing)}: ")
    assert str(exc.value).endswith(f"{str(Path(missing))!r}")


def test_built_in_specs_are_memoized_and_files_reread(tmp_path):
    assert parse_group_spec("S4") is parse_group_spec(" S4 ")
    path = tmp_path / "g.json"
    path.write_text('{"order": 2, "table": [[0,1],[1,0]]}')
    first = parse_group_spec(f"@{path}")
    path.write_text('{"order": 2, "table": [[0,1],[1,1]]}')
    with pytest.raises(GroupError, match="not a permutation"):
        parse_group_spec(f"@{path}")
    path.write_text('{"order": 3, "table": [[0,1,2],[1,2,0],[2,0,1]]}')
    assert parse_group_spec(f"@{path}").order == 3 != first.order


def full_group_check(table) -> bool:
    """Reference: a Latin square with a two-sided identity and inverses,
    associative over all n^3 triples."""
    n = len(table)
    elements = list(range(n))
    if any(sorted(row) != elements for row in table):
        return False
    if any(sorted(table[a][b] for a in elements) != elements
           for b in elements):
        return False
    identities = [e for e in elements
                  if all(table[e][x] == x == table[x][e] for x in elements)]
    if not identities:
        return False
    e = identities[0]
    if not all(any(table[a][b] == e == table[b][a] for b in elements)
               for a in elements):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in elements for b in elements for c in elements)


def corrupted_tables(spec, rng, count):
    """Seeded variants of spec's table: relabellings (still groups), single
    changed entries, and intercalate swaps, which keep the table a Latin
    square with its identity but usually break associativity."""
    g = build_family(spec)
    n = g.order
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[g.table[a][b]]
        kind = rng.choice(["relabel", "entry", "intercalate"])
        if kind == "entry":
            a, b = rng.randrange(n), rng.randrange(n)
            table[a][b] = rng.choice([v for v in range(n) if v != table[a][b]])
        elif kind == "intercalate":
            e = perm[0]
            quads = [(a, b, c, d)
                     for a, b in itertools.combinations(range(n), 2)
                     for c, d in itertools.combinations(range(n), 2)
                     if e not in (a, b, c, d)
                     and table[a][c] == table[b][d]
                     and table[a][d] == table[b][c]]
            a, b, c, d = rng.choice(quads)
            table[a][c], table[a][d] = table[a][d], table[a][c]
            table[b][c], table[b][d] = table[b][d], table[b][c]
        yield table


@pytest.mark.parametrize("spec", ["C8", "S3", "Q8"])
def test_light_associativity_test_matches_full_check(spec):
    rng = random.Random(f"light:{spec}")
    outcomes = set()
    for table in corrupted_tables(spec, rng, 60):
        violations = validate_group(table)
        assert (not violations) == full_group_check(table)
        only_associativity = bool(violations) and all(
            v.startswith("associativity fails at") for v in violations)
        outcomes.add((not violations, only_associativity))
    # Groups, tables failing the basic checks, and Latin squares with an
    # identity and inverses that only associativity rejects all occur.
    assert outcomes == {(True, False), (False, False), (False, True)}


def reference_violations(table):
    """validate_group's associativity messages by the plain triple loop over
    (a, b, c in its generators), at most 10, for a table that passes every
    other check."""
    gens = _greedy_generators(table, range(len(table)), find_identity(table))
    return [f"associativity fails at ({a},{b},{c})"
            for a in range(len(table)) for b in range(len(table))
            for c in gens
            if table[table[a][b]][c] != table[a][table[b][c]]][:10]


@pytest.mark.parametrize("spec", ["C8", "S3", "Q8"])
def test_associativity_violations_are_named_as_by_the_loop(spec):
    rng = random.Random(f"named:{spec}")
    failing = [NONASSOC_LOOP]
    for table in corrupted_tables(spec, rng, 60):
        violations = validate_group(table)
        if violations and violations[0].startswith("associativity"):
            failing.append(table)
    assert len(failing) > 5
    for table in failing:
        assert validate_group(table) == reference_violations(table)


def reference_entry_violation(table):
    """The first bad entry's message, by the plain loop over every entry."""
    n = len(table)
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                return f"entry table[{a}][{b}] = {v!r} is not an integer"
            if not 0 <= v < n:
                return f"entry table[{a}][{b}] = {v!r} out of range 0..{n - 1}"
    return None


@pytest.mark.parametrize("spec", ["C8", "S3", "Q8"])
def test_bad_entries_are_named_as_by_the_loop(spec):
    rng = random.Random(f"entries:{spec}")
    g = build_family(spec)
    n = g.order
    for bad in (True, False, 1.0, 2.5, "1", -1, n, 10 ** 30):
        for _ in range(4):
            table = [list(row) for row in g.table]
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(n)][rng.randrange(n)] = bad
            expected = reference_entry_violation(table)
            assert expected is not None
            assert validate_group(table) == [expected], bad


@pytest.mark.parametrize("doc, field", [
    ({"perm-gens": 5}, "perm-gens"),
    ({"perm-gens": [[1, "a"]]}, "perm-gens"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "labels": 5}, "labels"),
    ({"order": 2, "table": [[0, True], [1, 0]]}, "table"),
    ({"order": True, "table": [[0]]}, "order"),
    ({"order": "2", "table": [[0, 1], [1, 0]]}, "order"),
    ({"order": 1, "table": [[0]], "name": {"a": 1}}, "name"),
    ({"perm-gens": [[1, 0]], "name": 7}, "name"),
])
def test_group_file_fields_of_the_wrong_type_exit_2(capsys, tmp_path, doc,
                                                    field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["group", "show", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_long_and_non_ascii_spec_numbers_are_spec_errors():
    with pytest.raises(GroupSpecError, match="5000 digits"):
        parse_group_spec("C" + "1" * 5000)
    with pytest.raises(GroupSpecError, match="unknown group family"):
        parse_group_spec("C\uff13")  # a fullwidth 3


SPEC_ALPHABET = "CDSAQx0123456789 @"
# Random text from the spec alphabet is rarely a group; products of
# family-like tokens from the same alphabet are more often.
SPEC_TEXT = st.one_of(
    st.text(SPEC_ALPHABET, max_size=12),
    st.lists(st.from_regex(r" ?[CDSAQ][0-9]{1,2} ?", fullmatch=True),
             min_size=1, max_size=3).map("x".join))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SPEC_TEXT)
def test_group_specs_give_a_group_or_a_group_error(spec):
    try:
        g = parse_group_spec(spec)
    except GroupError:
        return
    groups = [g]
    while groups:
        h = groups.pop()
        if h.factors is not None:
            a, b = h.factors
            assert a.order * b.order == h.order, spec
            groups += [a, b]


# Group files: Cayley documents (fields of every JSON type, non-square and
# non-group tables, relabelled valid tables with an entry, the order or the
# labels perhaps spoiled) and `perm-gens` documents on at most 4 points.
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 600) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)
SMALL_GROUPS = [build_family(s) for s in ("C1", "C2", "C3", "C4", "D4", "S3")]


@st.composite
def relabelled_cayley(draw):
    g = draw(st.sampled_from(SMALL_GROUPS))
    n = g.order
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in g.elements():
        for b in g.elements():
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    if draw(st.booleans()):  # spoil one entry
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[row][col] = draw(st.integers(-1, n) | JSON_VALUE)
    doc = {"order": draw(st.sampled_from([n, n, n + 1, 0])), "table": table}
    labels = draw(st.none() | st.lists(st.text("ab", max_size=2),
                                       min_size=n, max_size=n) | JSON_VALUE)
    if labels is not None:
        doc["labels"] = labels
    return doc


def square_or_not(draw_rows):
    return st.lists(draw_rows, max_size=4).map(
        lambda t: {"order": len(t), "table": t})


CAYLEY_DOC = st.one_of(
    relabelled_cayley(),
    square_or_not(st.lists(st.integers(-1, 4), max_size=4)),
    st.fixed_dictionaries({"order": JSON_VALUE, "table": JSON_VALUE}))
PERM = st.integers(0, 4).flatmap(lambda k: st.permutations(range(k)))
PERM_DOC = st.fixed_dictionaries({"perm-gens": st.lists(
    PERM | st.lists(st.integers(-1, 4), max_size=4), max_size=3)
    | JSON_VALUE})
GROUP_DOC = st.tuples(st.one_of(CAYLEY_DOC, PERM_DOC),
                      st.none() | st.text(max_size=3) | JSON_VALUE).map(
    lambda pair: pair[0] if pair[1] is None else dict(pair[0], name=pair[1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(GROUP_DOC)
def test_group_show_of_any_group_file_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["group", "show", f"@{path}"])
    assert code in (0, 2), doc
    if code == 2:
        assert err.getvalue().startswith("error: "), doc
    else:
        assert out.getvalue() and not err.getvalue()

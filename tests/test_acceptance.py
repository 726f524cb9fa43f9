"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Bounds and tolerances are pinned here; all checks are exact.
"""

import random
import time

from chiralwords import reports
from chiralwords.catalog import catalog_groups, catalog_specs
from chiralwords.engine import (
    image,
    is_chiral_pair,
    is_weakly_chiral_pair,
    naive_image,
)
from chiralwords.groups import (
    FiniteGroup,
    anti_from_auto,
    build_family,
    enumerate_automorphisms,
    identity_map,
    parse_group_spec,
    validate_group,
)
from chiralwords.search import replay, search_chiral
from chiralwords.verify import (
    Bounds,
    canonical_words,
    run_all,
    run_suite,
    summarize,
)
from chiralwords.words import (
    FreeAntiAuto,
    apply_anti,
    invert,
    parse_word,
    random_automorphism,
    reduce_syllables,
    substitute,
)

from conftest import (
    auto_from_anti,
    brute_force_reduced_words,
    concat,
    enumerate_words,
    metacyclic_c7_c9,
    random_reduced_word,
)

GRID = Bounds(max_order=16, max_word_len=4, rank=2,
              theta_samples=5, gamma_samples=10, seed=0)

REQUIRED_SPECS = (
    [f"C{n}" for n in range(1, 17)]
    + ["C2xC2", "C2xC4", "C2xC2xC2"]
    + [f"D{n}" for n in range(4, 17, 2)]
    + ["Q8", "S3", "A4"]
)


def report_line(number: int, name: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_lemma_suite():
    assert set(REQUIRED_SPECS) <= set(catalog_specs(16))
    report = run_suite("lemma1", GRID)
    ok = report.passed and report.cases > 0 and not report.skipped
    report_line(1, "lemma suite (order<=16, len<=4, all zeta, 5 thetas)", ok)


def test_criterion_02_theorem1_suite():
    report = run_suite("thm1", GRID)
    ok = report.passed and report.cases > 0 and not report.skipped
    report_line(2, "theorem 1 suite (10 gamma samples in AA(F_2))", ok)


def test_criterion_03_theorem2_suite():
    report = run_suite("thm2", GRID)
    ok = report.passed and report.cases > 0 and not report.skipped
    report_line(3, "theorem 2 suite (every gamma in AA(G))", ok)


def test_criterion_04_remark_suite():
    report = run_suite("remark", GRID)
    ok = report.passed and report.cases > 0 and not report.skipped
    report_line(4, "weak-chirality remark suite", ok)


def test_criterion_05_oracle_equivalence():
    rng = random.Random(42)
    groups = [g for _, g in catalog_groups(24)]
    ok = True
    for case in range(200):
        g = rng.choice(groups)
        w = random_reduced_word(rng, 2, 6)
        ref_img, ref_fibers = naive_image(g, w)
        fast_img, fast_fibers = image(g, w, want_fibers=True)
        if (fast_img.members != ref_img.members
                or fast_fibers.counts != ref_fibers.counts):
            ok = False
    report_line(5, "image/fibers == naive oracle on 200 cases", ok)


def test_criterion_06_abelian_achirality():
    words = canonical_words(2, 5)
    ok = True
    for spec, g in catalog_groups(32):
        if not g.is_abelian:
            continue
        inversion = [anti_from_auto(identity_map(g))]
        for w in words:
            if is_chiral_pair(g, w).chiral:
                ok = False
            if is_weakly_chiral_pair(g, w, inversion).weakly_chiral:
                ok = False
    report_line(6, "abelian groups (order<=32) never chiral nor weakly chiral", ok)


def test_criterion_07_word_core_properties():
    rng = random.Random(7)
    ok = True
    for _ in range(1000):
        raw = [(rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(10)]
        w = reduce_syllables(raw, 3)
        ok &= reduce_syllables(w.syllables, 3) == w          # idempotence
        ok &= invert(invert(w)) == w                         # involution
        ok &= concat(w, invert(w)).is_identity               # cancellation
    for i in range(1000):
        a = random_reduced_word(rng, 2, 5)
        b = random_reduced_word(rng, 2, 5)
        gamma = FreeAntiAuto(random_automorphism(2, 4, i))
        ok &= apply_anti(concat(a, b), gamma) == \
            concat(apply_anti(b, gamma), apply_anti(a, gamma))
    for i in range(1000):
        theta = random_automorphism(2, 6, 10_000 + i)
        w = random_reduced_word(rng, 2, 6)
        ok &= substitute(substitute(w, theta), theta.inverse()) == w
    for rank in (1, 2, 3):
        for max_len in range(7):
            stream = {w.syllables for w in enumerate_words(rank, max_len)}
            formula = 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1)
                              for k in range(1, max_len + 1))
            ok &= len(stream) == formula
            ok &= stream == brute_force_reduced_words(rank, max_len)
    report_line(7, "word-core algebraic properties (1000+ cases each)", ok)


def _naive_automorphism_count(g: FiniteGroup) -> int:
    orders = g.element_orders
    n = g.order
    candidates = [[b for b in range(n) if orders[b] == orders[a]]
                  for a in range(n)]
    count = 0

    def rec(a: int, images: list, used: set) -> None:
        nonlocal count
        if a == n:
            if all(images[g.mul(x, y)] == g.mul(images[x], images[y])
                   for x in range(n) for y in range(n)):
                count += 1
            return
        for c in candidates[a]:
            if c not in used:
                rec(a + 1, images + [c], used | {c})

    rec(1, [0], {0})
    return count


def test_criterion_08_group_core_correctness():
    ok = True
    for spec in REQUIRED_SPECS + ["S4", "A5", "C2xC6", "C3xC3"]:
        g = parse_group_spec(spec)
        ok &= not validate_group(g.table)
    table = [list(row) for row in build_family("C8").table]
    rng = random.Random(88)
    for _ in range(50):
        a, b = rng.randrange(8), rng.randrange(8)
        old = table[a][b]
        table[a][b] = rng.choice([v for v in range(8) if v != old])
        ok &= bool(validate_group(table))
        table[a][b] = old
    for spec, expected in [("C4", 2), ("C2xC2", 6), ("S3", 6)]:
        g = parse_group_spec(spec)
        ok &= len(enumerate_automorphisms(g)) == expected
        ok &= _naive_automorphism_count(g) == expected
    for spec, g in catalog_groups(16):
        for zeta in enumerate_automorphisms(g):
            ok &= auto_from_anti(anti_from_auto(zeta)).images == zeta.images
    report_line(8, "group-core validation, Aut counts, anti/auto round trip", ok)


def test_criterion_09_determinism():
    small = dict(max_order=12, max_word_len=3, theta_samples=3,
                 gamma_samples=3, seed=5)
    verify_digests = set()
    search_outputs = set()
    for _ in range(2):
        summary = summarize(run_all(Bounds(**small)))
        verify_digests.add(reports.stable_digest(summary))
        lines = "\n".join(
            reports.dumps_line(f.to_record())
            for f in search_chiral(2, 4, 12, full=True))
        search_outputs.add(lines)
    ok = len(verify_digests) == 1 and len(search_outputs) == 1
    report_line(9, "verify/search stable digests identical across two runs", ok)


def is_chiral_witness(g, w, x):
    """x is in G_w and x^-1 is not."""
    members = image(g, w).members
    return members[x] and not members[g.inv(x)]


def test_criterion_10_search_replay():
    start = time.perf_counter()
    findings = list(search_chiral(rank=2, max_len=6, max_order=24, full=True))
    ok = bool(findings)
    for f in findings:
        replay_ok, _ = replay(f.to_record())
        ok &= replay_ok
        if f.chiral:
            g = parse_group_spec(f.group_spec)
            ok &= is_chiral_witness(g, parse_word(f.word_text, f.arity),
                                    f.chiral_witness)
    # The catalog has no chiral pair, so the witness check also runs on a
    # pinned one: x1^-12 x2 x1^3 x2^2 on C7:C9.
    g = metacyclic_c7_c9()
    w = parse_word("x1^-12 x2 x1^3 x2^2", 2)
    witness = is_chiral_pair(g, w).chiral_witness
    ok &= witness is not None and is_chiral_witness(g, w, witness)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30 * 60
    report_line(10, f"sweep + replay of {len(findings)} findings "
                    f"in {elapsed:.0f}s (< 30 min)", ok)

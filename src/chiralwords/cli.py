"""Command-line interface: catalog inspection, images, chirality, suites.

Exit codes: 0 success/pass or a reader that closed stdout early, 1
verification or replay failure, 2 usage error (flags and gammas are checked
before any scan), 3 evaluation budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import reports
from .catalog import catalog_groups
from .engine import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    image,
    is_chiral_pair,
    is_weakly_chiral_pair,
)
from .groups import (
    DEFAULT_AUTO_CAP,
    GroupError,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    inversion_map,
    parse_group_spec,
)
from .search import (MAX_RECORD_BYTES, MalformedRecordError, replay,
                     search_chiral)
from .verify import Bounds, run_all, run_suite, summarize
from .words import Word, WordSyntaxError, parse_word, render_word

MAX_INFERRED_RANK = 64

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named common flags; a command takes only those it reads."""
    if "--format" in flags:
        parser.add_argument("--format", choices=["human", "structured"],
                            default="human", help="output rendering")
    if "--budget" in flags:
        parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="max tuple evaluations per image")
    if "--auto-cap" in flags:
        parser.add_argument("--auto-cap", type=int, default=DEFAULT_AUTO_CAP,
                            help="max group order for automorphism "
                                 "enumeration")


def _parse_word_arg(text: str, rank: Optional[int]) -> Word:
    """Without --rank, the rank is the largest generator the word uses."""
    if rank is not None:
        return parse_word(text, rank)
    probe = parse_word(text, sys.maxsize)
    if probe.support_rank > MAX_INFERRED_RANK:
        raise ValueError(
            f"word uses x{probe.support_rank}, but without --rank a word may "
            f"use only x1..x{MAX_INFERRED_RANK}; pass --rank to set the rank")
    return Word(max(probe.support_rank, 1), probe.syllables)


def _emit(args, structured: dict, human_lines: List[str]) -> None:
    if args.format == "structured":
        print(reports.dumps(structured))
    else:
        for line in human_lines:
            print(line)


def cmd_group(args) -> int:
    if args.action == "list":
        catalog = catalog_groups(args.max_order, args.families)
        _emit(args, {
            "schema_version": 1, "kind": "catalog",
            "groups": [{"spec": s, "order": g.order} for s, g in catalog],
        }, [f"{s:14s} order {g.order}" for s, g in catalog])
        return EXIT_OK
    g = parse_group_spec(args.spec)
    if args.action == "show":
        lines = [f"{g.name}: order {g.order}",
                 "labels: " + " ".join(g.labels)]
        for row in g.table:
            lines.append(" ".join(f"{v:3d}" for v in row))
        _emit(args, {
            "schema_version": 1, "kind": "group",
            "name": g.name, "order": g.order,
            "labels": list(g.labels),
            "table": [list(row) for row in g.table],
            "inverses": list(g.inverses),
        }, lines)
        return EXIT_OK
    # autos
    autos = enumerate_automorphisms(g, args.auto_cap)
    antis = enumerate_anti_automorphisms(g, args.auto_cap)
    lines = [f"{g.name}: {len(autos)} automorphisms, "
             f"{len(antis)} anti-automorphisms"]
    for i, a in enumerate(autos):
        lines.append(f"  auto {i}: {list(a.images)}")
    for i, a in enumerate(antis):
        lines.append(f"  anti {i}: {list(a.images)}")
    _emit(args, {
        "schema_version": 1, "kind": "automorphisms",
        "group": g.name, "order": g.order,
        "automorphisms": [list(a.images) for a in autos],
        "anti_automorphisms": [list(a.images) for a in antis],
    }, lines)
    return EXIT_OK


def cmd_image(args) -> int:
    g = parse_group_spec(args.group)
    w = _parse_word_arg(args.word, args.rank)
    img, fibers = image(g, w, want_fibers=True, budget=args.budget)
    members = img.member_indices
    lines = [f"G = {g.name} (order {g.order}), w = {render_word(w)}, "
             f"arity {img.arity}",
             f"|G_w| = {img.size}",
             "members: " + " ".join(g.labels[x] for x in members)]
    structured = {
        "schema_version": 1, "kind": "image",
        "group": g.name, "order": g.order,
        "word": render_word(w), "arity": img.arity,
        "members": list(members),
        "member_labels": [g.labels[x] for x in members],
    }
    if args.fibers:
        lines.append("fibers: " + " ".join(map(str, fibers.counts)))
        structured["counts"] = list(fibers.counts)
    _emit(args, structured, lines)
    return EXIT_OK


def _select_gammas(g, gamma_arg: Optional[str], auto_cap: int):
    """The anti-automorphisms to check: None -> all of AA(G);
    'inv' -> inversion; 'k' -> the k-th of AA(G), zeta_k o inversion."""
    if gamma_arg is None:
        return enumerate_anti_automorphisms(g, auto_cap)
    if gamma_arg == "inv":
        return [inversion_map(g)]
    try:
        index = int(gamma_arg)
    except ValueError:
        raise GroupError(f"--gamma must be 'inv' or an index, got {gamma_arg!r}")
    antis = enumerate_anti_automorphisms(g, auto_cap)
    if not 0 <= index < len(antis):
        raise GroupError(f"--gamma index {index} out of range 0..{len(antis) - 1}")
    return [antis[index]]


def cmd_chiral(args) -> int:
    g = parse_group_spec(args.group)
    w = _parse_word_arg(args.word, args.rank)
    gammas = _select_gammas(g, args.gamma, args.auto_cap)
    report = is_chiral_pair(g, w, budget=args.budget, gammas=gammas)
    verdict = "chiral" if report.chiral else "not chiral"
    lines = [f"{g.name}, w = {render_word(w)}: {verdict}"]
    if report.chiral_witness is not None:
        x = report.chiral_witness
        lines.append(f"witness: {g.labels[x]} in G_w, "
                     f"{g.labels[g.inv(x)]} not in G_w")
    lines.append(f"all gammas agree: {report.all_gammas_agree}")
    _emit(args, report.to_structured(), lines)
    return EXIT_OK


def cmd_weak_chiral(args) -> int:
    g = parse_group_spec(args.group)
    w = _parse_word_arg(args.word, args.rank)
    gammas = _select_gammas(g, args.gamma, args.auto_cap)
    report = is_weakly_chiral_pair(g, w, gammas, budget=args.budget)
    verdict = "weakly chiral" if report.weakly_chiral else "not weakly chiral"
    lines = [f"{g.name}, w = {render_word(w)}: {verdict}",
             f"all gammas agree: {report.all_gammas_agree}"]
    if report.weak_witness is not None:
        lines.insert(1, f"witness element: {g.labels[report.weak_witness]}")
    _emit(args, report.to_structured(), lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    bounds = Bounds(
        max_order=args.max_order, max_word_len=args.max_len,
        rank=args.rank, theta_samples=args.theta_samples,
        gamma_samples=args.gamma_samples, theta_length=args.theta_length,
        seed=args.seed, auto_cap=args.auto_cap, budget=args.budget,
        families=tuple(args.families) if args.families else None)
    if args.suite == "all":
        results = run_all(bounds)
    else:
        results = [run_suite(args.suite, bounds)]
    summary = summarize(results)
    summary["stable_digest"] = reports.stable_digest(summary)
    lines = []
    for r in results:
        status = "PASS" if r.passed else f"FAIL ({len(r.failures)} failures)"
        lines.append(f"{r.suite}: {status} "
                     f"[{r.cases} cases, {len(r.skipped)} skipped, "
                     f"{r.wall_time_s:.2f}s]")
    lines.append(f"stable digest: {summary['stable_digest']}")
    if args.out:
        text = reports.dumps(summary)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.out and args.format == "structured":
        print(text)
    else:
        _emit(args, summary, lines)
    return EXIT_OK if summary["passed"] else EXIT_FAIL


def cmd_search(args) -> int:
    # A refused family or length raises here, before --out is opened.
    findings = search_chiral(args.rank, args.max_len, args.max_order,
                             families=args.families, auto_cap=args.auto_cap,
                             budget=args.budget, full=args.full)
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        count = 0
        for finding in findings:
            sink.write(reports.dumps_line(finding.to_record()) + "\n")
            count += 1
    finally:
        if args.out:
            sink.close()
    if args.out:
        print(f"wrote {count} findings to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args) -> int:
    failures = 0
    with open(args.infile, "rb") as fh:
        # A line is read through at most MAX_RECORD_BYTES bytes and its
        # newline, so a longer one is refused before it is held whole.
        for lineno, line in enumerate(
                iter(lambda: fh.readline(MAX_RECORD_BYTES + 1), b""), 1):
            if len(line) > MAX_RECORD_BYTES and not line.endswith(b"\n"):
                raise MalformedRecordError(
                    f"line {lineno}: longer than {MAX_RECORD_BYTES} bytes")
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            # ValueError: also bad UTF-8 and an integer of too many digits;
            # RecursionError: arrays or objects nested too deep.
            except (ValueError, RecursionError) as exc:
                raise MalformedRecordError(
                    f"line {lineno}: invalid JSON: {exc}") from None
            ok, mismatches = replay(record, auto_cap=args.auto_cap,
                                    budget=args.budget)
            if ok:
                print(f"line {lineno}: pass")
            else:
                failures += 1
                print(f"line {lineno}: MISMATCH: " + "; ".join(mismatches))
    return EXIT_OK if failures == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralwords",
        description="Word-map images, chirality checks, and theorem "
                    "verification on small finite groups. Dihedral specs "
                    "D<n> use group ORDER n (D6 is S3).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="inspect the group catalog")
    gsub = p.add_subparsers(dest="action", required=True)
    gl = gsub.add_parser("list", help="list catalog groups")
    _add_common(gl, "--format")
    gl.add_argument("--max-order", type=int, default=32)
    gl.add_argument("--families", nargs="+")
    gl.set_defaults(func=cmd_group, action="list")
    for action, help_text, flags in [
            ("show", "print a Cayley table", ["--format"]),
            ("autos", "enumerate (anti-)automorphisms",
             ["--format", "--auto-cap"])]:
        ga = gsub.add_parser(action, help=help_text)
        _add_common(ga, *flags)
        ga.add_argument("spec", help="group spec, e.g. C4, D8, Q8, S3, "
                                     "C2xC4, or @file.json")
        ga.set_defaults(func=cmd_group, action=action)

    for name, help_text, func in [
            ("image", "compute a word-map image", cmd_image),
            ("chiral", "decide chirality of (G, w)", cmd_chiral),
            ("weak-chiral", "decide weak chirality of (G, w)",
             cmd_weak_chiral)]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True)
        p.add_argument("--word", required=True)
        p.add_argument("--rank", type=int)
        if func is cmd_image:
            _add_common(p, "--format", "--budget")
            p.add_argument("--fibers", action="store_true")
        else:
            _add_common(p, "--format", "--budget", "--auto-cap")
            p.add_argument("--gamma", help="'inv', an automorphism index, "
                                           "or omitted to check all gammas")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the verification suites")
    _add_common(p, "--format", "--budget", "--auto-cap")
    p.add_argument("suite", choices=["lemma1", "thm1", "thm2", "remark", "all"])
    p.add_argument("--max-order", type=int, default=Bounds.max_order)
    p.add_argument("--max-len", type=int, default=Bounds.max_word_len)
    p.add_argument("--rank", type=int, default=Bounds.rank)
    p.add_argument("--theta-samples", type=int, default=Bounds.theta_samples)
    p.add_argument("--gamma-samples", type=int, default=Bounds.gamma_samples)
    p.add_argument("--theta-length", type=int, default=Bounds.theta_length)
    p.add_argument("--seed", type=int, default=Bounds.seed)
    p.add_argument("--families", nargs="+")
    p.add_argument("--out", help="write the structured summary to a file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="sweep for chiral pairs")
    _add_common(p, "--budget", "--auto-cap")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--families", nargs="+")
    p.add_argument("--out", help="findings file (default: stdout)")
    p.add_argument("--full", action="store_true",
                   help="emit every scanned pair, not just positives")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("replay", help="re-verify a findings file")
    _add_common(p, "--budget", "--auto-cap")
    p.add_argument("infile", help="line-delimited findings file")
    p.set_defaults(func=cmd_replay)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused after it.

    Reuse is safe because parse_args returns a fresh Namespace and every
    default is immutable.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader wants no more output; the flush at exit goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GroupError, WordSyntaxError, MalformedRecordError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

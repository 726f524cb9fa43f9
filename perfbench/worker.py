"""One iteration of a perfbench workload, in a fresh interpreter.

run.py starts this file once per iteration so that the `lru_cache`s in
`chiralwords.groups` start cold, as they do for a command-line user:

    python3 perfbench/worker.py --workload verify --seed 3 --workdir DIR \
        [--traced] [--smoke] [--setup-only]

It needs `src` on PYTHONPATH. Set-up (imports and input generation) runs
first; the timed phase follows at once; output checks run after the timed
phase. The last line of stdout is one JSON object with the set-up and
timed-phase seconds and the per-operation latencies, scaled to the reference
host (hostspeed.py), with the raw set-up and wall times beside them, peak
RSS, check results and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
from pathlib import Path
from typing import Dict, List

from hostspeed import PROBE_EVERY_S, REFERENCE_S, HostSpeed, steady_probe
from spans import Tracer, clock

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


def derived_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


def timed_iter(items, record):
    """Yield items, recording the time the consumer spent on each one."""
    for item in items:
        start = clock()
        yield item
        record(clock() - start)


# --- verify: run_all at the CLI defaults ----------------------------------

def verify_setup(args) -> dict:
    from chiralwords.verify import Bounds
    if args.smoke:
        bounds = Bounds(max_order=6, max_word_len=3, theta_samples=2,
                        gamma_samples=2, seed=args.seed)
    else:
        bounds = Bounds(seed=args.seed)
    return {"bounds": bounds}


def verify_run(state: dict, record) -> dict:
    from chiralwords import reports, verify
    # Each operation is one suite's pass over one catalog group, timed as
    # the gap between successive groups handed to the suite's grid.
    hook = hasattr(verify, "catalog_groups")
    if hook:
        original = verify.catalog_groups
        verify.catalog_groups = lambda *a, **k: timed_iter(original(*a, **k), record)
    try:
        results = verify.run_all(state["bounds"])
    finally:
        if hook:
            verify.catalog_groups = original
    summary = verify.summarize(results)
    digest = reports.stable_digest(summary)
    if not hook:
        for r in results:
            record(r.wall_time_s)
    return {"results": results, "digest": digest, "passed": summary["passed"]}


def verify_check(state: dict, out: dict) -> dict:
    results = out.pop("results")
    cases = sum(r.cases for r in results)
    failures = sum(len(r.failures) for r in results)
    skipped = sum(len(r.skipped) for r in results)
    problems = []
    if not out["passed"] or failures:
        problems.append(f"verification failed: {failures} failure records")
    if skipped:
        problems.append(f"{skipped} skipped cases")
    layer = {f"verify.{r.suite}_s": r.wall_time_s for r in results}
    layer["verify.cases"] = cases
    layer["verify.skipped"] = skipped
    return {"attempted": cases, "failed": failures + skipped,
            "problems": problems, "digest": out["digest"], "layer": layer}


# --- sweep: search_chiral to JSONL, then replay in a shuffled order -------

def sweep_setup(args) -> dict:
    if args.smoke:
        params = dict(rank=2, max_len=4, max_order=8, full=True)
    else:
        params = dict(rank=2, max_len=6, max_order=24, full=True)
    path = Path(args.workdir) / f"findings-{args.iteration}.jsonl"
    return {"params": params, "path": path, "seed": args.seed,
            "expected": EXPECTED["sweep-smoke" if args.smoke else "sweep"]}


def sweep_run(state: dict, record) -> dict:
    from chiralwords import reports
    from chiralwords.search import MalformedRecordError, replay, search_chiral
    pairs = skipped = 0
    last = clock()
    with open(state["path"], "w") as sink:
        for finding in search_chiral(**state["params"]):
            sink.write(reports.dumps_line(finding.to_record()) + "\n")
            skipped += finding.skipped is not None
            pairs += 1
            record(clock() - last)
            last = clock()
    lines = state["path"].read_text().splitlines()
    derived_rng(state["seed"], "replay-order").shuffle(lines)
    passed = mismatches = malformed = 0
    for line in lines:
        t = clock()
        try:
            ok, found = replay(json.loads(line))
        except MalformedRecordError:
            ok, found = False, []
            malformed += 1
        record(clock() - t)
        passed += ok
        mismatches += len(found)
    return {"pairs": pairs, "skipped": skipped, "passed": passed,
            "mismatches": mismatches, "malformed": malformed,
            "records": len(lines)}


def sweep_check(state: dict, out: dict) -> dict:
    data = state["path"].read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    expected = state["expected"]
    pairs = out["pairs"]
    problems = []
    if digest != expected["sha256"]:
        problems.append(f"JSONL digest {digest} != expected {expected['sha256']}")
    if pairs != expected["records"] or out["records"] != expected["records"]:
        problems.append(f"{pairs} pairs, {out['records']} records; "
                        f"expected {expected['records']}")
    if out["passed"] != out["records"] or out["mismatches"]:
        problems.append(f"replay {out['passed']}/{out['records']} passed, "
                        f"{out['mismatches']} mismatches, "
                        f"{out['malformed']} malformed")
    failed = out["skipped"] + (out["records"] - out["passed"])
    layer = {"search.pairs": pairs, "search.skipped": out["skipped"],
             "search.replay.records": out["records"],
             "search.replay.mismatches": out["mismatches"]}
    return {"attempted": pairs + out["records"], "failed": failed,
            "problems": problems, "digest": digest, "layer": layer}


# --- queries: an interactive CLI session ----------------------------------

# Non-abelian catalog groups of order 16..60, each with the arities d >= 2
# it is queried at, weighted towards d = 2 and keeping |G|^d <= 2.5e5.
QUERY_GROUPS = (("Q8xC2", (2, 3, 4)), ("S4", (2, 2, 3)), ("D24", (2, 2, 3)),
                ("S3xS3", (2, 2, 3)), ("S4xC2", (2, 2, 3)), ("A5", (2, 2, 3)))
# Groups of order 64..128 loaded from Cayley files; queried only through
# `image` or `--gamma inv`, which stay under the default --auto-cap.
FILE_GROUPS = ("Q8xC8", "S3xS3xC2", "S4xC4", "D128")
SMOKE_GROUPS = (("S3", (2,)), ("Q8", (2,)), ("D8", (2,)))
SMOKE_FILE_GROUPS = ("D16",)
COMMANDS = ("image", "chiral", "weak-chiral")
PER_GROUP_COMMAND = 15     # 6 groups x 3 commands x 15 = 270 catalog queries
PER_FILE = 8               # 4 files x 8 = 32 file queries
NAIVE_CHECKS = 12          # queries recomputed from naive_image per iteration
NAIVE_MAX_TUPLES = 20000


def random_word(rng: random.Random, rank: int, length: int) -> str:
    """A reduced word of `length` letters over x1..x_rank.

    x_rank first appears at the middle letter. The scan recomputes, per
    tuple, the syllables from the first one that reads the last coordinate,
    so fixing that position keeps a query's cost set by its slot, not by
    the seed.
    """
    first = length // 2
    letters: List[tuple] = []
    while len(letters) < length:
        if len(letters) == first:
            gen = rank
        else:
            gen = rng.randint(1, rank - 1 if len(letters) < first else rank)
        letter = (gen, rng.choice((1, -1)))
        if letters and letters[-1] == (gen, -letter[1]):
            letter = (gen, -letter[1])
        letters.append(letter)
    syllables: List[List[int]] = []
    for gen, sign in letters:
        if syllables and syllables[-1][0] == gen:
            syllables[-1][1] += sign
        else:
            syllables.append([gen, sign])
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in syllables)


def write_cayley_file(spec: str, path: Path, rng: random.Random) -> int:
    """Write spec's Cayley table with elements relabelled in a seeded order;
    return the group order."""
    from chiralwords.groups import parse_group_spec
    g = parse_group_spec(spec)
    perm = list(range(g.order))
    rng.shuffle(perm)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    path.write_text(json.dumps({"name": spec, "order": g.order, "table": table}))
    return g.order


def query_argv(command: str, spec: str, word: str, gamma_inv: bool) -> List[str]:
    argv = [command, "--group", spec, "--word", word, "--format", "structured"]
    if command == "image":
        argv.append("--fibers")
    elif gamma_inv:
        argv += ["--gamma", "inv"]
    return argv


def queries_setup(args) -> dict:
    from chiralwords.groups import (DEFAULT_AUTO_CAP,
                                    enumerate_anti_automorphisms,
                                    parse_group_spec)
    groups = SMOKE_GROUPS if args.smoke else QUERY_GROUPS
    files = SMOKE_FILE_GROUPS if args.smoke else FILE_GROUPS
    per_slot = 2 if args.smoke else PER_GROUP_COMMAND
    per_file = 2 if args.smoke else PER_FILE
    rng = derived_rng(args.seed, "queries")
    # Slots fix the group, command, arity and length of every query, so the
    # work of a session does not depend on the seed; the seed picks the
    # letters of each word, the file relabellings and the query order.
    session = []
    for spec, arities in groups:
        # Warm the automorphism caches the way a long-lived session would.
        g = parse_group_spec(spec)
        enumerate_anti_automorphisms(g, DEFAULT_AUTO_CAP)
        for command in COMMANDS:
            for k in range(per_slot):
                rank = arities[k % len(arities)]
                length = 3 + (k // 3 * 2 + k) % 6
                word = random_word(rng, rank, length)
                session.append({"spec": spec, "order": g.order, "rank": rank,
                                "command": command, "word": word,
                                "gamma_inv": False,
                                "argv": query_argv(command, spec, word, False)})
    for i, spec in enumerate(files):
        path = Path(args.workdir) / f"group-{args.iteration}-{i}.json"
        order = write_cayley_file(spec, path, rng)
        file_spec = "@" + str(path)
        for k in range(per_file):
            command = COMMANDS[k % 3]
            word = random_word(rng, 2, 3 + k % 6)
            session.append({"spec": file_spec, "order": order, "rank": 2,
                            "command": command, "word": word, "gamma_inv": True,
                            "argv": query_argv(command, file_spec, word, True)})
    rng.shuffle(session)
    return {"session": session, "seed": args.seed}


def queries_run(state: dict, record) -> dict:
    from chiralwords import cli
    outputs = []
    for query in state["session"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(query["argv"])
            except SystemExit as exc:
                code = exc.code
        record(clock() - start)
        outputs.append((code, stdout.getvalue(), stderr.getvalue()))
    return {"outputs": outputs}


def naive_problems(query: dict, out: dict) -> List[str]:
    """Compare one structured CLI answer with a recomputation by naive_image."""
    from chiralwords.engine import naive_image
    from chiralwords.groups import (DEFAULT_AUTO_CAP, anti_from_auto,
                                    enumerate_anti_automorphisms,
                                    identity_map, parse_group_spec)
    from chiralwords.words import parse_word
    g = parse_group_spec(query["spec"])
    img, fibers = naive_image(g, parse_word(query["word"], query["rank"]))
    members = list(img.member_indices)
    counts = list(fibers.counts)
    if query["gamma_inv"]:
        gammas = [anti_from_auto(identity_map(g))]
    else:
        gammas = list(enumerate_anti_automorphisms(g, DEFAULT_AUTO_CAP))
    problems = []
    if out["members"] != members:
        problems.append("members differ")
    if query["command"] == "image":
        if out["counts"] != counts:
            problems.append("counts differ")
    elif query["command"] == "chiral":
        chiral = any(img.members[x] and not img.members[g.inv(x)]
                     for x in g.elements())
        verdicts = [any(img.members[gamma.images[x]] != img.members[x]
                        for x in g.elements()) for gamma in gammas]
        if out["chiral"] != chiral:
            problems.append("chiral verdict differs")
        if [r["chiral"] for r in out["gamma_results"]] != verdicts:
            problems.append("per-gamma chiral verdicts differ")
    else:
        verdicts = []
        for gamma in gammas:
            twisted = [0] * g.order
            for x, c in enumerate(counts):
                twisted[gamma.images[x]] += c
            verdicts.append(twisted != counts)
        if out["counts"] != counts:
            problems.append("counts differ")
        if out["weakly_chiral"] != verdicts[0]:
            problems.append("weak verdict differs")
        if [r["weakly_chiral"] for r in out["gamma_results"]] != verdicts:
            problems.append("per-gamma weak verdicts differ")
    return [f"{' '.join(query['argv'])}: {p}" for p in problems]


def queries_check(state: dict, out: dict) -> dict:
    session, outputs = state["session"], out.pop("outputs")
    problems: List[str] = []
    failed = set()
    parsed: Dict[int, dict] = {}
    for i, (query, (code, stdout, stderr)) in enumerate(zip(session, outputs)):
        if code != 0:
            failed.add(i)
            problems.append(f"{' '.join(query['argv'])}: exit {code}: {stderr.strip()}")
            continue
        try:
            parsed[i] = json.loads(stdout)
        except ValueError:
            failed.add(i)
            problems.append(f"{' '.join(query['argv'])}: output is not JSON")
    candidates = [i for i, q in enumerate(session) if i in parsed and
                  q["order"] ** q["rank"] <= NAIVE_MAX_TUPLES]
    rng = derived_rng(state["seed"], "naive-subset")
    for i in rng.sample(candidates, min(NAIVE_CHECKS, len(candidates))):
        found = naive_problems(session[i], parsed[i])
        if found:
            failed.add(i)
            problems.extend(found)
    from chiralwords.reports import stable_digest
    digest = stable_digest([parsed.get(i) for i in range(len(session))])
    return {"attempted": len(session), "failed": len(failed),
            "problems": problems, "digest": digest, "layer": {}}


WORKLOADS = {
    "verify": (verify_setup, verify_run, verify_check),
    "sweep": (sweep_setup, sweep_run, sweep_check),
    "queries": (queries_setup, queries_run, queries_check),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print its time")
    args = parser.parse_args()
    setup, run, check = WORKLOADS[args.workload]

    # Set-up is the program's part of start-up: importing chiralwords and
    # building the inputs. Interpreter start-up is the same for every
    # version of the program and is left out.
    setup_probe = steady_probe()
    setup_start = clock()
    import chiralwords.cli  # noqa: F401  (loads every layer module)
    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    state = setup(args)
    raw_setup = clock() - setup_start
    setup_s = raw_setup * 2 * REFERENCE_S / (setup_probe + steady_probe())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup}))
        return 0
    # Traced iterations give raw per-layer times, so they probe only at
    # the start and the end of the timed phase.
    speed = HostSpeed(float("inf") if args.traced else PROBE_EVERY_S)
    start = clock()
    out = run(state, speed.record)
    raw_wall = clock() - start - speed.probe_s
    raw_ops = sum(t for t, _ in speed.ops)
    latencies, scale = speed.finish()
    wall = sum(latencies) + (raw_wall - raw_ops) * scale
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layer = {}
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics()
    verdict = check(state, out)
    layer.update(verdict.pop("layer"))
    pairs = out.get("pairs", 0)
    result = {
        "raw_setup_s": raw_setup,
        "setup_s": setup_s,
        "wall_s": wall,
        "raw_wall_s": raw_wall, "scale": scale,
        "peak_rss_mb": peak_rss_kb / 1024, "latencies": latencies,
        "pair_latencies": latencies[:pairs] if pairs else [],
        "replay_latencies": latencies[pairs:] if pairs else [],
        "layer": layer, **verdict,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

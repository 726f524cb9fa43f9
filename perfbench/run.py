"""The chiralwords benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {verify,sweep,queries} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from anywhere; it measures the checkout it sits in. Each iteration is
a fresh interpreter (worker.py) started one at a time, so nothing runs in
parallel and every iteration starts with cold caches. Iterations repeat
while the next one is expected to end within half an iteration of
--seconds. With --trace 0 the benchmark prints the end-to-end metrics named
in BENCHMARK.json: medians over the iterations, and latency percentiles over
all operations of all iterations, all scaled to a reference host speed by
the probes of hostspeed.py.
With --trace 1 it alternates untraced and traced iterations and prints the
per-layer metrics, taken from the traced ones, plus the tracing overhead.
--smoke uses tiny inputs so that the benchmark's own test runs in seconds.

The next-to-last stdout line records the environment (Python, CPUs, commit,
load average and the host probe before and after) and the details of
the checks; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import steady_probe
from spans import DETERMINISTIC, METRICS as TRACER_METRICS, clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify", "sweep", "queries")
HARD_LIMIT_S = 170.0       # every run ends well inside 180 s
SETUP_RUNS = 7             # extra set-up-only workers in a --trace 0 run
THREADS_ENV = "CHIRALWORDS_THREADS"


class WorkerError(RuntimeError):
    """An iteration crashed or printed no result."""


def environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chiralwords").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": nproc, "commit": commit, "src_sha256": src.hexdigest()}


def run_worker(args, workdir: Path, iteration: int, traced: bool,
               deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--iteration", str(iteration)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    spawn = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"iteration {iteration} passed the time limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"iteration {iteration} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = clock() - spawn
    result["traced"] = traced
    return result


def iterate(args, workdir: Path) -> Tuple[List[dict], List[float]]:
    """Run iterations until the next would end more than half an iteration
    after --seconds, so that a run lasts about --seconds on average.

    Without tracing, SETUP_RUNS set-up-only workers run first, so that
    setup_s is a median of many set-ups even when iterations are long; their
    set-up times are returned beside the iterations. With tracing, untraced
    and traced iterations alternate, starting with an untraced one, and at
    least one of each runs.
    """
    start = clock()
    deadline = start + HARD_LIMIT_S
    setups = [run_worker(args, workdir, k, False, deadline,
                         setup_only=True)["setup_s"]
              for k in range(0 if args.trace else SETUP_RUNS)]
    done: List[dict] = []
    while True:
        untraced = [r for r in done if not r["traced"]]
        traced = [r for r in done if r["traced"]]
        next_traced = bool(args.trace) and len(traced) < len(untraced)
        if done:
            enough = untraced and (traced or not args.trace)
            same_kind = traced if next_traced else untraced
            estimate = (same_kind or done)[-1]["elapsed_s"]
            if enough and clock() - start + estimate / 2 > args.seconds:
                return done, setups
        done.append(run_worker(args, workdir, len(done), next_traced, deadline))


def percentile(samples: List[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(runs: List[dict], setups: List[float]) -> Dict[str, float]:
    """Each workload runs a fixed number of operations per iteration, so
    operations per second is len(latencies) / wall_s and is not reported as
    a separate metric."""
    pooled = [x for r in runs for x in r["latencies"]]
    return {
        "setup_s": statistics.median([r["setup_s"] for r in runs] + setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "op_p50_ms": percentile(pooled, 50) * 1e3,
        "op_p95_ms": percentile(pooled, 95) * 1e3,
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer figures: medians over traced iterations, plus the sweep's
    search/replay split and the tracing overhead from untraced ones."""
    out: Dict[str, float] = {}
    for name, first in traced[0]["layer"].items():
        if is_count(name, first):
            out[name] = first
        else:
            out[name] = statistics.median(r["layer"][name] for r in traced)
    pairs = [x for r in untraced for x in r["pair_latencies"]]
    records = [x for r in untraced for x in r["replay_latencies"]]
    if pairs and records:
        out["search.pairs_per_s"] = statistics.median(
            len(r["pair_latencies"]) / sum(r["pair_latencies"]) for r in untraced)
        out["search.pair_p50_ms"] = percentile(pairs, 50) * 1e3
        out["search.pair_p99_ms"] = percentile(pairs, 99) * 1e3
        out["search.replay.records_per_s"] = statistics.median(
            len(r["replay_latencies"]) / sum(r["replay_latencies"]) for r in untraced)
        out["search.replay.p50_ms"] = percentile(records, 50) * 1e3
        out["search.replay.p99_ms"] = percentile(records, 99) * 1e3
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1)
    return out


def is_count(name: str, value) -> bool:
    """Counts repeat exactly across traced iterations of one seed."""
    return isinstance(value, int) or name in DETERMINISTIC


def check_runs(runs: List[dict]) -> List[str]:
    """Problems found inside iterations, plus disagreement between them."""
    problems = [p for r in runs for p in r["problems"]]
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        problems.append(f"output digests differ between iterations: {sorted(digests)}")
    traced = [r for r in runs if r["traced"]]
    for name, first in (traced[0]["layer"].items() if traced else ()):
        values = {r["layer"].get(name) for r in traced}
        if is_count(name, first) and len(values) > 1:
            problems.append(f"{name} differs between traced iterations: {values}")
    return problems


def select(spec: List[dict], values: Dict[str, float],
           absent: List[str]) -> Dict[str, dict]:
    """Metrics named in BENCHMARK.json. A per-layer counter of another
    workload reads 0; a tracer metric whose entry point is gone is absent."""
    out = {}
    for metric in spec:
        name = metric["name"]
        value: Optional[float] = values.get(name)
        if value is None:
            if name in TRACER_METRICS:
                absent.append(name)
                continue
            value = 0
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args()
    if not (ROOT / "src" / "chiralwords" / "__init__.py").is_file():
        print(f"error: no chiralwords sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["calibration_before_s"] = steady_probe()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runs, setups = iterate(args, workdir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    env["calibration_after_s"] = steady_probe()
    env["loadavg_after"] = os.getloadavg()

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    problems = check_runs(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    absent: List[str] = []
    if args.trace:
        metrics = select(spec["per_layer"], per_layer(untraced, traced), absent)
    else:
        metrics = select(spec["end_to_end"], end_to_end(untraced, setups), absent)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "iterations": len(untraced), "traced_iterations": len(traced),
        "operations": sum(len(r["latencies"]) for r in untraced),
        "ops_per_s": statistics.median(len(r["latencies"]) / r["wall_s"]
                                       for r in untraced),
        "failed_frac": failed / attempted if attempted else None,
        "iteration_wall_s": [r["wall_s"] for r in runs],
        "iteration_raw_wall_s": [r["raw_wall_s"] for r in runs],
        "iteration_raw_setup_s": [r["raw_setup_s"] for r in runs],
        "setup_only_s": setups,
        "iteration_scale": [r["scale"] for r in runs],
        "digest": runs[0]["digest"], "absent_metrics": absent,
        "problems": problems[:20], "environment": env,
    }))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

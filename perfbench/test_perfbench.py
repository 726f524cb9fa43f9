"""Smoke test of the benchmark: tiny inputs, assertions on outputs and counts.

    python3 -m pytest perfbench/test_perfbench.py -q

It never asserts on timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED_COUNTS = ("engine.tuples", "groups.map_checks", "verify.cases",
                   "words.random_auto.calls")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    details = json.loads(proc.stdout.splitlines()[-2])
    assert details["failed_frac"] == 0
    assert details["environment"]["calibration_before_s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    names = {m["name"] for m in SPEC["per_layer"]}
    for out in (first, second):
        assert out["correct"] is True and out["failed"] == 0
        assert set(out["metrics"]) == names
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    m = first["metrics"]
    assert m["groups.map_checks"]["value"] > 0
    assert m["search.replay.mismatches"]["value"] == 0
    assert m["verify.skipped"]["value"] == 0
    if workload == "verify":
        assert m["verify.cases"]["value"] > 0
        assert m["words.random_auto.calls"]["value"] > 0
    if workload == "sweep":
        assert m["search.pairs"]["value"] == m["search.replay.records"]["value"] == 52
    if workload == "queries":
        assert m["groups.validate.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_entry_point_is_reported_absent(monkeypatch):
    import run
    from chiralwords import engine, groups
    from spans import Tracer
    monkeypatch.delattr(engine, "weak_verdict_from_counts")
    tracer = Tracer()
    tracer.install()
    try:
        groups.enumerate_anti_automorphisms(groups.parse_group_spec("S3"))
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    assert "engine.weak_verdict.calls" not in values
    assert values["groups.parse_spec.calls"] == 1
    absent = []
    metrics = run.select(SPEC["per_layer"], values, absent)
    assert {"engine.weak_verdict.calls", "engine.weak_verdict.self_s"} <= set(absent)
    assert "engine.weak_verdict.calls" not in metrics
    assert metrics["verify.cases"]["value"] == 0


def test_host_speed_scales_each_operation_by_its_neighbouring_probes():
    from hostspeed import REFERENCE_S, HostSpeed
    speed = HostSpeed(every_s=0.0)
    for seconds in (1.0, 2.0, 3.0):
        speed.record(seconds)
    assert len(speed.probes) == 4
    scaled, scale = speed.finish()
    p = speed.probes
    assert len(p) == 5 and len(scaled) == 3 and scale > 0
    for i, seconds in enumerate((1.0, 2.0, 3.0)):
        assert scaled[i] == pytest.approx(seconds * 2 * REFERENCE_S / (p[i] + p[i + 1]))

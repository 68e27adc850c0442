"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import worker
from tracer import STAGE_NAMES, Tracer
from workloads import WORKLOADS, check, make_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("metric fail_frac 0.0 fraction") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy", "git_commit", "seed"):
        assert key in env


def test_smoke_trace_parts_add_up():
    proc = run_bench(ROOT, "seed-sweep", 1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["relay.uplink_s"] > 0 and metrics["units.execute_s"] > 0
    assert metrics["linalg.svd_calls"] > 0 and metrics["relay.projectors"] > 0
    assert 0 < metrics["slope_ok_frac"] <= 1
    assert metrics["cli.self_s"] > 0
    parts = sum(metrics[stage] for stage in STAGE_NAMES) + metrics["cli.self_s"]
    assert parts == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_corrupted_d_sum_counts_as_failure(monkeypatch):
    main = worker.load_main()
    import ssalign.cli as cli

    honest = cli.verify_end_to_end

    def off_by_one(*args, **kwargs):
        report = honest(*args, **kwargs)
        return dataclasses.replace(report, counted_d_sum=report.counted_d_sum + 1)

    monkeypatch.setattr(cli, "verify_end_to_end", off_by_one)
    record = worker.run_pass(main, make_ops("ext-heavy", 0, smoke=True))
    assert len(record["failures"]) == 2
    assert all("oracle" in why for why in record["failures"])


def test_gate_rejects_wrong_outputs():
    worker.load_main()
    curve, lemmas = make_ops("oracle", 0, smoke=True)[0], make_ops("oracle", 0, smoke=True)[-1]
    assert not check(curve, 0, "ratio_num\n")["ok"]
    assert not check(lemmas, 0, json.dumps({"results": [{}], "total_failures": 1}))["ok"]
    verify = make_ops("seed-sweep", 0, smoke=True)[0]
    assert not check(verify, 3, json.dumps({"error": "SupplyExhausted"}))["ok"]
    row = {"seed": verify["seed"], "pass": True, "d_sum": verify["d_sum"], "slope": 0.5}
    assert check(verify, 1, json.dumps({"runs": [row]}))["ok"]
    assert not check(verify, 0, json.dumps({"runs": [row]}))["ok"]
    assert not check(verify, 1, json.dumps({"runs": [{**row, "pass": False}]}))["ok"]
    build = make_ops("ext-heavy", 0, smoke=True)[0]
    doc = {"config": build["config"], "report": {"pass": True, "d_sum_exact": build["d_sum"]}}
    assert check(build, 0, json.dumps(doc))["ok"]
    assert not check(build, 1, json.dumps(doc))["ok"]
    assert not check(build, 0, "not json")["ok"]


def test_gate_miss_fails_the_run(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    hashes = tmp_path / "perfbench" / "curves.sha256.json"
    doc = json.loads(hashes.read_text())
    doc["sha256"] = {key: "0" * 64 for key in doc["sha256"]}
    hashes.write_text(json.dumps(doc))
    proc = run_bench(tmp_path, "oracle", 0)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 14


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "ext-heavy", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_times_stages_and_restores_functions():
    main = worker.load_main()
    import numpy as np
    import ssalign.cli as cli
    import ssalign.relay as relay

    originals = (cli.plan_alignment, relay.build_uplink_projectors, np.linalg.svd)
    ops = make_ops("ext-heavy", 0, smoke=True)
    with Tracer() as tracer:
        record = worker.run_pass(main, ops)
    assert (cli.plan_alignment, relay.build_uplink_projectors, np.linalg.svd) == originals
    assert not record["failures"] and not tracer.missing
    snap = tracer.snapshot()
    assert snap["calls"]["units.plan_s"] == len(ops)
    assert snap["calls"]["relay.uplink_s"] == len(ops)
    assert sum(snap["seconds"].values()) < sum(record["ops"])
    assert snap["svd_calls"] > 0 and snap["projector_bytes"] > 0


def test_speed_probe_rescales_by_the_nearby_kernel_time():
    probe = worker.SpeedProbe()
    probe.samples = [(0.0, 0.030), (0.5, 0.010), (1.8, 0.050), (10.0, 0.005)]
    # The mean of the samples within PROBE_WINDOW_S of the span.
    assert probe.factor(0.2, 0.4) == pytest.approx(worker.PROBE_NOMINAL_S / 0.020)
    assert probe.factor(0.7, 1.0) == pytest.approx(worker.PROBE_NOMINAL_S / 0.030)
    assert probe.factor(10.0, 10.1) == pytest.approx(worker.PROBE_NOMINAL_S / 0.005)
    # No sample within the window: the nearest one is used.
    assert probe.factor(5.0, 5.1) == pytest.approx(worker.PROBE_NOMINAL_S / 0.050)
    record = {"ops": [0.1, 0.3], "gated": [0.2, 0.4], "spans": [(0.2, 0.4), (10.0, 10.1)]}
    worker.normalise(record, probe)
    assert record["ops_norm"] == pytest.approx([0.05, 0.6])
    assert record["wall_norm"] == pytest.approx(0.1 + 0.8)


def test_speed_probe_samples_inside_an_operation_and_leaves_out_its_time():
    def busy_main(argv):
        total = 0
        for i in range(10_000_000):
            total += i
        print("{}")
        return 0

    probe = worker.SpeedProbe()
    with probe:
        start = time.perf_counter()
        seconds, _ = worker.run_op(busy_main, {"kind": "lemmas", "argv": []}, probe)
        elapsed = time.perf_counter() - start
    assert len(probe.samples) >= 2
    assert all(start < t < start + elapsed for t, _ in probe.samples)
    assert seconds == pytest.approx(elapsed - probe.seconds, abs=2e-3)

"""ssalign benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ext-heavy --seed 0 --seconds 35 --trace 0

Every operation is one in-process call of the public CLI entry point
``ssalign.cli.main(argv)`` (``build``, ``verify --snr-sweep``, ``curve`` or
``lemmas``) made by a single caller in a closed loop, and every output passes
a correctness gate (see ``workloads.py``).  The workloads, their reasons and
the metric names, units and bounds are in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of importing ``ssalign`` and
  finishing one warm-up operation;
* ``wall_s``: median time of one pass over the workload's fixed operation
  list, gate included;
* ``op_p50_s``: median time of one operation over every pass;
* ``peak_rss_mb``: peak resident memory of the fresh process that ran the
  passes.

The three times are normalised to host speed: each is multiplied by
``PROBE_NOMINAL_S`` over the mean time of a fixed reference kernel run
around it (``SpeedProbe`` in ``worker.py``), so they read as seconds on a
host where that kernel takes ``PROBE_NOMINAL_S``.  A
shared host's speed swings by a quarter or more for seconds to minutes at a
time, which raw times cannot tell apart from a change in the program.  The
raw medians are printed too.

``--trace 1`` reports the per-layer metrics from a traced process (see
``tracer.py``): stage times per pass, SVD counts, relay array sizes and the
seed-sweep slope quality at the CLI's 40/50/60 dB window.  Workloads without
that work report 0 for it.

The text lines before the result also give the environment, ``fail_frac``,
``op_p90_s`` where a pass has at least 100 operations, and, traced, each
stage's share of the operation time, over all operations and over those
nearest the median.  The last line is the JSON result.
Exit codes: 0 every output correct; 1 a gate miss (the result says
``"correct": false``); 2 no result, because the checkout has no
``src/ssalign`` or a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from worker import PROBE_NOMINAL_S  # noqa: E402

SETUP_REPEATS = 7
# A shared two-core host makes multi-threaded BLAS on these small matrices
# slower and noisier than one thread, so every worker runs single-threaded.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker(args: list[str], timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env={**os.environ, **WORKER_ENV},
            stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(doc: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    ops = [t for p in doc["passes"] for t in p["ops_norm"]]
    raw_ops = [t for p in doc["passes"] for t in p["ops"]]
    raw_wall = median([p["wall"] for p in doc["passes"]])
    values = {
        "setup_s": median([s["setup_norm_s"] for s in setups]),
        "wall_s": median([p["wall_norm"] for p in doc["passes"]]),
        "op_p50_s": median(ops),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh processes "
        f"(raw {median([s['setup_s'] for s in setups])!r} s)",
        f"wall_s: median of {len(doc['passes'])} passes of {doc['ops_per_pass']} operations "
        f"(raw {raw_wall!r} s)",
        f"op_p50_s: median of {len(ops)} operations (raw {median(raw_ops)!r} s)",
        f"times normalised to a reference kernel time of {PROBE_NOMINAL_S} s; "
        f"its median in the measuring process was {doc['probe_s']!r} s",
    ]
    if doc["ops_per_pass"] >= 100:
        notes.append(f"metric op_p90_s {percentile(ops, 90)!r} s (n={len(ops)})")
    else:
        notes.append(f"metric op_p90_s n/a s (a pass has {doc['ops_per_pass']} < 100 operations)")
    notes.extend(slope_lines(doc))
    return values, notes


def slope_values(doc: dict) -> tuple[float, float, int]:
    first = doc["passes"][0]
    checked = len(first["slope_ok"])
    if not checked:
        return 0.0, 0.0, 0
    return sum(first["slope_ok"]) / checked, median(first["slope_err"]), checked


def slope_lines(doc: dict) -> list[str]:
    ok_frac, err_p50, checked = slope_values(doc)
    if not checked:
        return ["metric slope_ok_frac n/a fraction (no slope checks in this workload)",
                "metric slope_err_p50 n/a fraction (no slope checks in this workload)"]
    return [f"metric slope_ok_frac {ok_frac!r} fraction "
            f"({round(ok_frac * checked)}/{checked} seeds within 5% at 40/50/60 dB)",
            f"metric slope_err_p50 {err_p50!r} fraction (median |slope - d_sum| / d_sum)"]


def per_layer(doc: dict) -> tuple[dict, list[str]]:
    """Per-layer values from the traced pass with the median operation time.

    Taking every stage from one pass keeps the parts additive: the stages
    plus ``cli.self_s`` equal that pass's operation time ``trace.op_s``.
    ``trace.overhead_s`` is ``trace.op_s`` minus the operation time of the
    untraced pass run just before it, so slow drift of the host cancels.
    """
    rounds = sorted(zip(doc["passes"], doc["traced"]), key=lambda r: sum(r[1]["ops"]))
    plain, middle = rounds[(len(rounds) - 1) // 2]
    traced = [t for _, t in rounds]
    trace = middle["trace"]
    stages = list(trace["seconds"])
    untraced_op_s = sum(plain["ops"])
    values = dict(trace["seconds"])
    values["trace.op_s"] = sum(middle["ops"])
    values["cli.self_s"] = values["trace.op_s"] - sum(trace["seconds"].values())
    values["trace.overhead_s"] = values["trace.op_s"] - untraced_op_s
    values["dof.evals"] = trace["calls"]["dof.eval_s"]
    values["linalg.svd_calls"] = trace["svd_calls"]
    values["linalg.svd_gflop"] = trace["svd_flop"] / 1e9
    values["linalg.svd_max_dim"] = trace["svd_max_dim"]
    values["relay.projectors"] = trace["projectors"]
    values["relay.projector_mb"] = trace["projector_bytes"] / 1e6
    values["slope_ok_frac"], values["slope_err_p50"], _ = slope_values(doc)

    parts = sum(values[s] for s in stages) + values["cli.self_s"]
    notes = [f"per-layer values come from the median of {len(traced)} traced passes, "
             f"each run right after an untraced pass"]
    notes.extend(shares(traced, stages))
    notes.append(f"check: stages + cli.self_s = {parts:.6f} s; untraced operation time = "
                 f"{untraced_op_s:.6f} s; difference {parts - untraced_op_s:+.6f} s; "
                 f"trace.overhead_s = {values['trace.overhead_s']:+.6f} s")
    notes.append("relay.projector_mb and linalg.svd_gflop are computed from array shapes")
    if doc["missing_stages"]:
        notes.append(f"warning: functions not found, their stages read 0: {doc['missing_stages']}")
    return values, notes


def shares(traced: list[dict], stages: list[str]) -> list[str]:
    """Each stage's share of all traced operation time and of the median operation.

    The median operation's shares come from the fifth of the operations (at
    least one) whose times lie closest to the median, so they describe
    ``op_p50_s``.
    """
    ops = [(t, s) for p in traced for t, s in zip(p["ops"], p["op_stages"])]
    mid = median([t for t, _ in ops])
    band = sorted(ops, key=lambda op: abs(op[0] - mid))[:max(1, len(ops) // 5)]
    lines = []
    for label, group in (("all operations", ops), (f"median band, n={len(band)}", band)):
        total = sum(t for t, _ in group)
        part = {name: sum(s.get(name, 0.0) for _, s in group) / total for name in stages}
        part["cli.self_s"] = 1.0 - sum(part.values())
        part["relay.uplink_s+relay.downlink_s"] = part["relay.uplink_s"] + part["relay.downlink_s"]
        lines.extend(f"share {name} {value:.4f} of traced time ({label})"
                     for name, value in part.items())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ssalign benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input set, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ssalign" / "__init__.py").is_file():
        print(f"no src/ssalign under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    started = time.monotonic()
    workload_args = ["--workload", args.workload]
    try:
        setups = []
        if not args.trace:
            for _ in range(1 if args.smoke else SETUP_REPEATS):
                setups.append(worker(["setup", *workload_args], RUN_LIMIT_S - (time.monotonic() - started)))
        doc = worker(
            ["measure", *workload_args, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--smoke"] if args.smoke else []),
            RUN_LIMIT_S - (time.monotonic() - started),
        )
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    failures = [f for s in setups for f in s["failures"]] + doc["failures"]
    attempted = doc["attempted"] + len(setups)
    failed = doc["failed"] + sum(len(s["failures"]) for s in setups)
    env = {**doc["env"], "git_commit": git_commit(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        values, notes = per_layer(doc)
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(doc, setups)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"metric fail_frac {failed / attempted!r} fraction ({failed}/{attempted} operations)")
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

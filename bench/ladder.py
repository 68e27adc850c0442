"""The benchmark ladder: traced builds of fixed configs, one process per rung.

    python bench/ladder.py --out BENCH.json
    python bench/ladder.py --out smoke.json --rungs 3,5,3 --seeds 0

Each rung ``M,N,K`` (``M,N,K,improved`` for the improved scheme) runs in a
fresh interpreter, so its peak resident memory (``ru_maxrss``) is its own.
For every seed the rung runs ``construct`` then ``verify_end_to_end`` under
``perfbench/tracer.py``'s :class:`Tracer`, which times each stage and counts
SVDs; the wall time spans both calls, the tracer's wrappers included.  The
pair of calls repeats until ``BUILD_SECONDS`` of them have run, at least
once, and the seed's wall and stage times are the medians over its
repeats, so a small rung is not read from one run of a few milliseconds.
A rung reports, over its seeds, the median of those wall and stage times,
the median SVD count of one build and the largest SVD dimension, whether
every build counted the closed-form ``d_sum``, and the smallest desired
coefficient.

The oracle row runs in a process of its own: ``default_battery(400, 0)``
under the tracer, and the benchmark's oracle curves (``perfbench/workloads.py``'s
``CURVES``), which the tracer cannot see, timed twice: the loop that consumes
``dof.curve`` (``curves_s``), and the ``curve`` command through
``cli.main(argv)`` in-process with its stdout captured, as the benchmark
runs it (``curves_cli_s``, the CSV text included).  Every child runs with
one BLAS thread.

The output also records the commit, whether ``src/`` differs from it, a
sha256 of ``src/ssalign/*.py`` and their line count, so a result can be
matched to the tree that made it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

# The configs inside today's extension cap, smallest first.
RUNGS = ("3,5,3", "3,5,4", "7,20,4", "5,9,5,improved", "3,10,6", "4,9,5", "12,23,5")
SEEDS = (0, 1, 2)
# Seconds of builds each seed repeats for; a build slower than this runs once.
BUILD_SECONDS = 0.5
BATTERY_TRIALS = 400
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_rung(spec: str) -> tuple[int, int, int, bool]:
    """``(M, N, K, improved)`` of a rung written ``M,N,K`` or ``M,N,K,improved``."""
    parts = spec.split(",")
    if len(parts) not in (3, 4) or not all(p.isdigit() for p in parts[:3]) \
            or parts[3:] not in ([], ["improved"]):
        raise argparse.ArgumentTypeError(f"rung {spec!r} is not M,N,K or M,N,K,improved")
    m, n, k = map(int, parts[:3])
    return m, n, k, len(parts) == 4


def _rung_arg(spec: str) -> str:
    parse_rung(spec)
    return spec


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer():
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import ssalign  # noqa: F401  (the tracer wraps functions of loaded modules)
    from tracer import Tracer

    return Tracer()


def run_rung(spec: str, seeds: list[int]) -> dict:
    """One rung's per-seed records and their summary; runs in the child process."""
    m, n, k, improved = parse_rung(spec)
    tracer = _tracer()
    from ssalign import dof, relay
    from ssalign.errors import ConstructionError
    from ssalign.pipeline import construct

    closed = (dof.achievable_improved if improved else dof.achievable_basic)(m, n, k).d_sum
    runs = []
    for seed in seeds:
        walls, seconds = [], []
        while sum(walls) < BUILD_SECONDS or not walls:
            built = report = None  # so that one build at a time is alive
            tracer.reset()
            with tracer:
                if tracer.missing:
                    raise RuntimeError(f"tracer could not find {tracer.missing}")
                start = time.perf_counter()
                try:
                    built = construct(m, n, k, seed, improved)
                    # Looked up at call time, so that the tracer's wrapper runs.
                    report = relay.verify_end_to_end(built.channels, built.units,
                                                     built.processor)
                except ConstructionError as exc:
                    error = f"{type(exc).__name__} at stage {exc.stage}: {exc}"
                walls.append(time.perf_counter() - start)
            counts = tracer.snapshot()
            seconds.append(counts["seconds"])
        stages = {name: statistics.median(run[name] for run in seconds)
                  for name in seconds[0] if any(run[name] for run in seconds)}
        run = {"seed": seed, "repeats": len(walls), "wall_s": statistics.median(walls),
               "stages_s": stages, "svd_calls": counts["svd_calls"],
               "svd_max_dim": counts["svd_max_dim"]}
        if report is None:
            run.update({"pass": False, "error": error})
        else:
            counted = report.counted_d_sum
            run.update({"pass": report.passed and counted == closed,
                        "d_sum": f"{counted.numerator}/{counted.denominator}",
                        "smallest_desired": min(rec.desired for rec in report.streams),
                        "extension": built.plan.extension,
                        "n_active": built.channels.active_relay})
        runs.append(run)
    built_runs = [run for run in runs if "d_sum" in run]
    stages = dict.fromkeys(name for run in runs for name in run["stages_s"])
    return {
        "rung": spec, "m": m, "n": n, "k": k, "improved": improved,
        "closed_form_d_sum": f"{closed.numerator}/{closed.denominator}",
        "extension": built_runs[0]["extension"] if built_runs else None,
        "n_active": built_runs[0]["n_active"] if built_runs else None,
        "pass": all(run["pass"] for run in runs),
        "d_sum": sorted({run["d_sum"] for run in built_runs}),
        "smallest_desired": min((run["smallest_desired"] for run in built_runs), default=None),
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "stages_s": {name: statistics.median(run["stages_s"].get(name, 0.0) for run in runs)
                     for name in stages},
        "svd_calls": statistics.median(run["svd_calls"] for run in runs),
        "svd_max_dim": max(run["svd_max_dim"] for run in runs),
        "peak_rss_mb": _peak_rss_mb(),
        "seeds": runs,
    }


def run_oracle() -> dict:
    """The lemma battery, traced, and the oracle curves; runs in the child process."""
    tracer = _tracer()
    from ssalign import cli, dof
    from ssalign.lemmas import default_battery
    from workloads import CURVES

    with tracer:
        start = time.perf_counter()
        results = default_battery(BATTERY_TRIALS, 0)
        battery = time.perf_counter() - start
    curves = {}
    cli_s = 0.0
    for k, mode, ratios in CURVES:
        grid = cli._parse_ratios(ratios, argparse.ArgumentParser())
        start = time.perf_counter()
        for _ in dof.curve(None if k == "inf" else int(k), mode, grid):
            pass
        curves[f"{k} {mode} {ratios}"] = time.perf_counter() - start
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli.main(["curve", "--k", k, "--mode", mode, "--ratios", ratios])
            cli_s += time.perf_counter() - start
    return {
        "battery_trials": BATTERY_TRIALS,
        "battery_s": battery,
        "battery_pass": all(result.failures == 0 for result in results),
        "battery_svd_calls": tracer.snapshot()["svd_calls"],
        "curves_s": sum(curves.values()),
        "curve_s": curves,
        "curves_cli_s": cli_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _child(args: list[str]) -> dict:
    env = {**os.environ, **BLAS_ENV}
    done = subprocess.run([sys.executable, __file__, *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_record() -> dict:
    files = sorted((SRC / "ssalign").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": _git("rev-parse", "HEAD"),
            "src_dirty": _git("status", "--porcelain", "--", "src") != "",
            "src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--rungs", nargs="+", default=list(RUNGS), type=_rung_arg,
                        help="rungs as M,N,K or M,N,K,improved (default: the ladder)")
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                        default=list(SEEDS), help="comma-separated seeds (default 0,1,2)")
    parser.add_argument("--worker", choices=["rung", "oracle"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker == "rung":
        print(json.dumps(run_rung(args.rungs[0], args.seeds)))
        return 0
    if args.worker == "oracle":
        print(json.dumps(run_oracle()))
        return 0
    if not args.out:
        parser.error("--out is required")
    seeds = ",".join(map(str, args.seeds))
    rungs = []
    for spec in args.rungs:
        rung = _child(["--worker", "rung", "--rungs", spec, "--seeds", seeds])
        print(f"{spec}: pass {rung['pass']}, d_sum {rung['d_sum']}, "
              f"wall {rung['wall_s']:.3f} s, peak {rung['peak_rss_mb']:.1f} MB", file=sys.stderr)
        rungs.append(rung)
    oracle = _child(["--worker", "oracle"])
    print(f"oracle: battery {oracle['battery_s']:.3f} s, curves {oracle['curves_s']:.3f} s, "
          f"through the CLI {oracle['curves_cli_s']:.3f} s", file=sys.stderr)
    import numpy

    doc = {**source_record(),
           "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "machine": platform.machine(), "nproc": os.cpu_count(), **BLAS_ENV},
           "seeds": args.seeds, "rungs": rungs, "oracle": oracle}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(rung["pass"] for rung in rungs) and oracle["battery_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

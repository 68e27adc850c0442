"""Record the benchmark's baseline: ten seeds per workload, then a traced run.

    python3 perfbench/record.py --seeds 10 --out perfbench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed and reports,
for each end-to-end metric, the median, the quartiles and their distance as
a share of the median (the run-to-run spread the bound must cover).  Then
one ``run.py --trace 1`` per workload gives the per-layer breakdown and each
stage's share of the operation time.  Exits 1 if any run fails its gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return lines


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.seeds))
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            lines = bench(workload, seed, spec["run_seconds"], 0)
            runs.append({"result": json.loads(lines[-1]),
                         "notes": [ln for ln in lines[:-1] if not ln.startswith("env ")]})
            env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
            print(workload, seed, {k: v["value"] for k, v in runs[-1]["result"]["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            end_to_end[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                                     **summary([r["result"]["metrics"][m["name"]]["value"]
                                                for r in runs])}
            s = end_to_end[m["name"]]
            print(f"  {m['name']:12s} median {s['median']:.6g} {m['unit']}  spread {s['spread']:.4f}"
                  f"  bound {m['bound']}  third {m['bound'] / 3:.4f}", flush=True)
        traced = bench(workload, seeds[0], spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "notes_first_seed": runs[0]["notes"],
            "per_layer_first_seed": {k: v["value"] for k, v in
                                     json.loads(traced[-1])["metrics"].items()},
            "trace_notes_first_seed": [ln for ln in traced[:-1]
                                       if not ln.startswith(("env ", "metric "))],
        }
        record["environment"] = {k: v for k, v in env.items() if k not in ("seed", "workload")}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(w["failed"] == 0 for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())

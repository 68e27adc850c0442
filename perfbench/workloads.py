"""Workload input sets and the correctness gate for every operation.

An operation is one in-process call of ``ssalign.cli.main(argv)``.  Each
workload turns its seed into a fixed list of operations; a pass runs the
whole list once.  The expected answer of every operation is fixed when the
list is made, before any operation runs:

* ``build`` and ``verify`` rows must report ``pass`` and a counted ``d_sum``
  equal to the closed form in ``ssalign.dof`` (the independent oracle);
* ``curve`` CSV text must hash to the sha256 recorded in
  ``curves.sha256.json``;
* ``lemmas`` must report ``total_failures == 0``.

A slope outside 5% of ``d_sum`` in ``verify --snr-sweep`` is the known
defect of the CLI's fixed 40/50/60 dB window.  It is measured, not counted
as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CURVE_HASHES = HERE / "curves.sha256.json"

WORKLOADS = ("ext-heavy", "seed-sweep", "oracle")

# (M, N, K, improved, seed offset).  Extension 6 and 10 give N_active 120
# and 90.  (7, 20, 4) runs twice, on two seeds, so that the median operation
# is a (7, 20, 4) build rather than the gap between the two configs' times.
EXT_HEAVY = ((7, 20, 4, False, 0), (5, 9, 5, True, 0), (7, 20, 4, False, 1))
EXT_HEAVY_SMOKE = ((3, 5, 3, False, 0), (7, 14, 4, True, 0))

# (7, 14, 4, improved) deactivates relay antennas; (2, 12, 6) and (3, 5, 4)
# are kept although their slope misses at 40/50/60 dB on every seed tried.
SEED_SWEEP = ((3, 5, 3, False), (3, 8, 4, False), (3, 12, 4, False), (2, 10, 5, False),
              (7, 14, 4, True), (2, 12, 6, False), (3, 5, 4, False))
SEEDS_PER_CONFIG = 20
SEED_SWEEP_SMOKE = ((3, 5, 3, False), (7, 14, 4, True))
SEEDS_PER_CONFIG_SMOKE = 2

# (k, mode, ratio grid).  The grids make every curve call cost about the
# same, so the median operation is a typical curve call rather than the edge
# between the cheap modes (outer, K = inf) and the dear ones.
CURVES = tuple((k, mode, "farey:150" if mode == "outer" else "farey:120")
               for k in ("3", "4", "5", "6") for mode in ("outer", "basic", "improved")) \
    + (("inf", "basic", "farey:160"), ("inf", "improved", "farey:160"))
CURVE_RATIOS_SMOKE = "farey:8"
LEMMA_TRIALS = 400
LEMMA_TRIALS_SMOKE = 3

SLOPE_REL_TOL = 0.05


def _config_args(m: int, n: int, k: int, improved: bool) -> list[str]:
    return ["--m", str(m), "--n", str(n), "--k", str(k)] + (["--improved"] if improved else [])


def _oracle_d_sum(m: int, n: int, k: int, improved: bool) -> str:
    from ssalign.dof import achievable_basic, achievable_improved

    d = (achievable_improved if improved else achievable_basic)(m, n, k).d_sum
    return f"{d.numerator}/{d.denominator}"


def build_op(m: int, n: int, k: int, improved: bool, seed: int) -> dict:
    return {
        "kind": "build",
        "argv": ["build", *_config_args(m, n, k, improved), "--seed", str(seed)],
        "config": {"m": m, "n": n, "k": k, "seed": seed, "improved": improved},
        "d_sum": _oracle_d_sum(m, n, k, improved),
    }


def verify_op(m: int, n: int, k: int, improved: bool, seed: int) -> dict:
    return {
        "kind": "verify",
        "argv": ["verify", *_config_args(m, n, k, improved),
                 "--seeds", "1", "--seed", str(seed), "--snr-sweep"],
        "seed": seed,
        "d_sum": _oracle_d_sum(m, n, k, improved),
    }


def curve_op(k: str, mode: str, ratios: str, hashes: dict) -> dict:
    argv = ["curve", "--k", k, "--mode", mode, "--ratios", ratios]
    return {"kind": "curve", "argv": argv, "sha256": hashes.get(" ".join(argv))}


def lemmas_op(trials: int, seed: int) -> dict:
    return {"kind": "lemmas", "argv": ["lemmas", "--trials", str(trials), "--seed", str(seed)]}


def load_curve_hashes() -> dict:
    return json.loads(CURVE_HASHES.read_text())["sha256"]


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The fixed operation list of one pass of ``workload`` for ``seed``."""
    seed %= 2**32  # the CLI takes unsigned 64-bit seeds; keep derived ones in range
    if workload == "ext-heavy":
        return [build_op(m, n, k, improved, seed + offset)
                for m, n, k, improved, offset in (EXT_HEAVY_SMOKE if smoke else EXT_HEAVY)]
    if workload == "seed-sweep":
        configs, per = (SEED_SWEEP_SMOKE, SEEDS_PER_CONFIG_SMOKE) if smoke \
            else (SEED_SWEEP, SEEDS_PER_CONFIG)
        first = seed * per
        return [verify_op(*cfg, s) for cfg in configs for s in range(first, first + per)]
    if workload == "oracle":
        hashes = load_curve_hashes()
        ops = [curve_op(k, mode, CURVE_RATIOS_SMOKE if smoke else ratios, hashes)
               for k, mode, ratios in CURVES]
        ops.append(lemmas_op(LEMMA_TRIALS_SMOKE if smoke else LEMMA_TRIALS, seed))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_op(workload: str) -> dict:
    """One small operation that exercises the workload's code path."""
    if workload == "ext-heavy":
        return build_op(3, 5, 3, False, 0)
    if workload == "seed-sweep":
        return verify_op(3, 5, 3, False, 0)
    if workload == "oracle":
        return curve_op("3", "basic", CURVE_RATIOS_SMOKE, load_curve_hashes())
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def check(op: dict, rc, out: str) -> dict:
    """Gate one operation's exit code and output.

    Returns ``{"ok": bool, "why": str | None}``; a passing ``verify`` also
    carries ``slope_ok`` and the slope's relative error against ``d_sum``.
    """
    kind = op["kind"]
    if kind == "curve":
        if rc != 0:
            return _miss(f"exit code {rc}")
        if op["sha256"] is None:
            return _miss("no recorded sha256 for this curve")
        digest = hashlib.sha256(out.encode()).hexdigest()
        return _ok() if digest == op["sha256"] else _miss(f"sha256 {digest} differs")
    # verify exits 1 when only the slope misses; the rows say why.
    if rc not in ((0, 1) if kind == "verify" else (0,)):
        return _miss(f"exit code {rc}: {out[:200]!r}")
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return _miss(f"output is not JSON: {exc}")
    if kind == "lemmas":
        failures = doc.get("total_failures")
        if failures != 0 or not doc.get("results"):
            return _miss(f"total_failures={failures}")
        return _ok()
    if kind == "build":
        report = doc.get("report", {})
        if doc.get("config") != op["config"]:
            return _miss(f"config echo {doc.get('config')} != {op['config']}")
        if report.get("pass") is not True:
            return _miss("report.pass is not true")
        if report.get("d_sum_exact") != op["d_sum"]:
            return _miss(f"d_sum {report.get('d_sum_exact')} != oracle {op['d_sum']}")
        return _ok()
    if kind == "verify":
        runs = doc.get("runs") or [{}]
        row = runs[0]
        if len(runs) != 1 or row.get("seed") != op["seed"]:
            return _miss(f"expected one row for seed {op['seed']}")
        if row.get("pass") is not True:
            return _miss("row pass is not true")
        if row.get("d_sum") != op["d_sum"]:
            return _miss(f"d_sum {row.get('d_sum')} != oracle {op['d_sum']}")
        slope = row.get("slope")
        if not isinstance(slope, (int, float)) or not math.isfinite(slope):
            return _miss(f"slope {slope!r} is not a finite number")
        target = float(Fraction(op["d_sum"]))
        slope_ok = abs(slope - target) <= SLOPE_REL_TOL * target
        if (rc == 0) != slope_ok:
            return _miss(f"exit code {rc} disagrees with slope {slope} against {op['d_sum']}")
        return {"ok": True, "why": None, "slope_ok": slope_ok,
                "slope_err": abs(slope - target) / target}
    raise ValueError(f"unknown operation kind {kind!r}")


def _ok() -> dict:
    return {"ok": True, "why": None}


def _miss(why: str) -> dict:
    return {"ok": False, "why": why}

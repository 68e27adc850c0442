"""Command-line front end.

Subcommands
-----------
curve   Emit exact-rational DoF curves as CSV (per-user for finite K,
        total-normalized for ``--k inf``).
build   Sample channels, plan and execute a beamforming construction, verify
        decodability, and dump everything as JSON.
verify  Repeat ``build`` over a seed sweep and summarize pass counts.
lemmas  Run the Monte Carlo rank-identity battery.

The CLI only parses arguments and formats output; the library does the work.
JSON documents are written compact, on a single line, so that the C encoder
of the ``json`` module writes them; ``python -m json.tool`` pretty-prints one.
Output goes to stdout, or to the ``--out`` file once the command is done.

The ``build`` document has the keys ``config``, ``plan``, ``channels`` (the
:func:`~ssalign.channel.channel_to_json` document), ``units`` and ``report``.
Each unit has ``pattern_order``, ``group``, ``column_block`` and
``beamformers``: one ``[re, im]`` column of ``M * extension`` entries per
ordered pair, keyed ``"a,b"`` in sorted pair order.  The relay-side images
``H_a u`` are not stored, because they follow exactly from the document:
rebuild ``ch = channel_from_json(doc["channels"])``, then for each sender
``a`` in sorted order take the run of columns whose key ``"a,b"`` has sender
field ``a`` (split the key on ``","``) and compute
``slot_product(ch.uplink[a], columns)`` (both in
:mod:`ssalign.channel`); stacked side by side these equal the library's
``Unit.equivalent_uplink`` bit for bit.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unreadable or invalid ``--config`` and an unwritable ``--out``), 3 construction
failure (with a diagnostic JSON document as output).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, dof
from .channel import channel_to_json, complex_to_pairs
from .errors import ConstructionError
from .lemmas import default_battery, run_battery
from .pipeline import construct
from .relay import estimate_dof_slope, verify_end_to_end
from .units import plan_alignment  # noqa: F401  (perfbench's tests read cli.plan_alignment)

CSV_HEADER = "ratio_num,ratio_den,ratio,value_num,value_den,value,mode,capacity_tight"

DEFAULT_SNR_SWEEP_DB = (40.0, 50.0, 60.0)

# Seeds key Philox generators, which take unsigned 64-bit integers.
SEED_LIMIT = 2**64


def _int_arg(text: str, low: int, high: float, expected: str) -> int:
    """``int(text)`` if it lies in ``[low, high)``, else a usage error naming ``expected``."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not low <= value < high:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_arg(text, 1, float("inf"), "a positive integer")


def _user_count(text: str) -> int:
    return _int_arg(text, 3, float("inf"), "a user count >= 3")


def _user_count_or_inf(text: str) -> int | str:
    if text == "inf":
        return text
    return _int_arg(text, 3, float("inf"), "a user count >= 3 or 'inf'")


def _seed(text: str) -> int:
    return _int_arg(text, 0, SEED_LIMIT, "a seed in [0, 2**64)")


def _farey(q: int) -> list[Fraction]:
    """Reduced fractions of (0, 1] with denominator <= ``q``, in increasing order.

    Next-term recurrence of the Farey sequence (Hardy & Wright, *An
    Introduction to the Theory of Numbers*, section 3.1): after ``a/b`` and
    ``c/d`` comes ``(k c - a)/(k d - b)`` with ``k = (q + b) // d``.  Every
    term is already in lowest terms, and the first term past ``1/1`` is
    ``(q + 1)/q``.
    """
    grid = []
    a, b, c, d = 0, 1, 1, q
    while c <= d:
        grid.append(Fraction(c, d))
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return grid


def _parse_ratios(spec: str, parser: argparse.ArgumentParser) -> list[Fraction]:
    spec = spec.strip()
    if spec.startswith("farey:"):
        try:
            top = int(spec.split(":", 1)[1])
        except ValueError:
            parser.error(f"bad ratio grid spec {spec!r}")
        if top < 1:
            parser.error("farey grid denominator bound must be positive")
        return _farey(top)
    try:
        ratios = sorted({Fraction(part) for part in spec.split(",") if part.strip()})
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad ratio list {spec!r}")
    if not ratios or any(r <= 0 for r in ratios):
        parser.error("ratios must be positive rationals")
    return ratios


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator, "value": float(x)}


def cmd_curve(args, parser) -> tuple[str, int]:
    ratios = _parse_ratios(args.ratios, parser)
    if args.k == "inf":
        if args.mode == "outer":
            parser.error("--mode outer is not defined for --k inf")
        mode_tag = f"asymptotic-{args.mode}"
    else:
        mode_tag = args.mode
        evaluate = {"outer": dof.outer_bound_per_user, "basic": dof.achievable_basic,
                    "improved": dof.achievable_improved}[args.mode]

    lines = [CSV_HEADER]
    for ratio in ratios:
        m, n = ratio.numerator, ratio.denominator
        if args.k == "inf":
            value = dof.asymptotic_dof(ratio, improved=args.mode == "improved")
            tight = False
        else:
            res = evaluate(m, n, args.k)
            value, tight = res.d_user / n, res.capacity_tight
        if args.half_duplex:
            value = value / 2
        lines.append(
            f"{ratio.numerator},{ratio.denominator},{float(ratio)!r},"
            f"{value.numerator},{value.denominator},{float(value)!r},"
            f"{mode_tag},{str(tight).lower()}"
        )
    return "\n".join(lines) + "\n", 0


def _plan_json(plan) -> dict:
    return {
        "m": plan.m,
        "n": plan.n,
        "k": plan.k,
        "improved": plan.improved,
        "extension": plan.extension,
        "active_relay": plan.active_relay,
        "dims_used": plan.dims_used,
        "predicted_d_user": _frac_json(plan.predicted_d_user),
        "allocations": [
            {
                "group": list(a.group),
                "pattern_order": a.pattern_order,  # 0 means random directions
                "count": a.count,
            }
            for a in plan.allocations
        ],
    }


def _unit_json(unit) -> dict:
    keys = [f"{a},{b}" for a, b in unit.pairs]
    return {
        "pattern_order": unit.pattern_order,
        "group": list(unit.group),
        "column_block": unit.column_block,
        "beamformers": dict(zip(keys, complex_to_pairs(unit.beamformers.T))),
    }


def _report_json(report) -> dict:
    d_sum = report.counted_d_sum
    return {
        "pass": report.passed,
        "d_sum": int(d_sum) if d_sum.denominator == 1 else float(d_sum),
        "d_sum_exact": _frac_str(d_sum),
        "streams": [
            {
                "unit": rec.unit,
                "pair": list(rec.pair),
                "desired": rec.desired,
                "partner": rec.partner,
                "leakage": rec.leakage,
            }
            for rec in report.streams
        ],
    }


def _json_text(doc: dict) -> str:
    # Without indent, json.dumps runs the C encoder; with it, pure Python.
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _construct_and_verify(args, seed: int):
    """``(built, report, None)``, or ``(None, None, exit-3 output)`` on a ConstructionError."""
    try:
        built = construct(args.m, args.n, args.k, seed, args.improved)
    except ConstructionError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc), "seed": seed}
        return None, None, (_json_text(doc), 3)
    return built, verify_end_to_end(built.channels, built.units, built.processor), None


def cmd_build(args, parser) -> tuple[str, int]:
    built, report, failure = _construct_and_verify(args, args.seed)
    if failure:
        return failure
    doc = {
        "config": {"m": args.m, "n": args.n, "k": args.k, "seed": args.seed,
                   "improved": args.improved},
        "plan": _plan_json(built.plan),
        "channels": channel_to_json(built.channels),
        "units": [_unit_json(u) for u in built.units],
        "report": _report_json(report),
    }
    return _json_text(doc), 0 if report.passed else 1


def cmd_verify(args, parser) -> tuple[str, int]:
    expected = (dof.achievable_improved if args.improved else dof.achievable_basic)(
        args.m, args.n, args.k
    )
    expected_sum = expected.d_sum
    rows = []
    passes = 0
    for offset in range(args.seeds):
        seed = args.seed + offset
        built, report, failure = _construct_and_verify(args, seed)
        if failure:
            return failure
        ok = report.passed and report.counted_d_sum == expected_sum
        row = {
            "seed": seed,
            "pass": report.passed,
            "d_sum": _frac_str(report.counted_d_sum),
            "d_sum_matches": report.counted_d_sum == expected_sum,
        }
        if args.snr_sweep:
            slope = estimate_dof_slope(built.channels, built.units, built.processor,
                                       DEFAULT_SNR_SWEEP_DB)
            target = float(report.counted_d_sum)
            slope_ok = target > 0 and abs(slope - target) <= 0.05 * target
            row["slope"] = slope
            row["slope_ok"] = slope_ok
            ok = ok and slope_ok
        row["ok"] = ok
        passes += ok
        rows.append(row)
    summary = {
        "config": {"m": args.m, "n": args.n, "k": args.k, "improved": args.improved},
        "expected_d_user": _frac_json(expected.d_user),
        "expected_d_sum": _frac_json(expected_sum),
        "seeds": args.seeds,
        "passes": passes,
        "all_pass": passes == args.seeds,
        "runs": rows,
    }
    return _json_text(summary), 0 if passes == args.seeds else 1


def _lemma_json(result) -> dict:
    return {
        "lemma": result.lemma_id.value,
        "params": result.params,
        "trials": result.trials,
        "failures": result.failures,
        "expected": result.expected_value,
        "observed": {str(k): v for k, v in sorted(result.observed.items())},
        "failure_trials": result.failure_trials,
    }


def cmd_lemmas(args, parser) -> tuple[str, int]:
    if args.config:
        try:
            with open(args.config) as fh:
                spec = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read --config {args.config}: {exc.strerror or exc}")
        except ValueError as exc:
            parser.error(f"--config {args.config} is not JSON: {exc}")
        try:
            results = run_battery(spec, args.trials, args.seed)
        except ValueError as exc:
            parser.error(f"bad --config {args.config}: {exc}")
    else:
        results = default_battery(args.trials, args.seed)
    total_failures = sum(r.failures for r in results)
    doc = {"results": [_lemma_json(r) for r in results], "total_failures": total_failures}
    return _json_text(doc), 0 if total_failures == 0 else 1


def _emit(text: str, out_path: str | None, parser: argparse.ArgumentParser) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write --out {out_path}: {exc.strerror or exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssalign",
        description="Signal-space alignment construction, verification, and DoF curves "
                    "for MIMO multiway relaying with pairwise data exchange.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="emit exact DoF curves as CSV")
    curve.add_argument("--k", type=_user_count_or_inf, required=True,
                       help="user count (integer >= 3) or 'inf' for the many-user limit")
    curve.add_argument("--mode", choices=["outer", "basic", "improved"], default="basic")
    curve.add_argument("--ratios", default="farey:48",
                       help="comma list of rationals (e.g. '2/3,7/16'), emitted sorted "
                            "without duplicates, or 'farey:<q>' for all reduced fractions "
                            "in (0, 1] with denominator <= q, emitted in increasing order "
                            "(default farey:48)")
    curve.add_argument("--half-duplex", action="store_true",
                       help="halve emitted values for half-duplex operation")
    curve.add_argument("--out", help="write CSV here instead of stdout")

    build = sub.add_parser("build", help="construct and verify one realization")
    build.add_argument("--m", type=_positive_int, required=True, help="antennas per user")
    build.add_argument("--n", type=_positive_int, required=True, help="relay antennas")
    build.add_argument("--k", type=_user_count, required=True, help="user count (>= 3)")
    build.add_argument("--seed", type=_seed, default=0)
    build.add_argument("--improved", action="store_true",
                       help="allow relay-antenna deactivation")
    build.add_argument("--out", help="write JSON here instead of stdout")

    verify = sub.add_parser("verify", help="sweep seeds and summarize verification")
    verify.add_argument("--m", type=_positive_int, required=True)
    verify.add_argument("--n", type=_positive_int, required=True)
    verify.add_argument("--k", type=_user_count, required=True)
    verify.add_argument("--seeds", type=_positive_int, required=True,
                        help="number of consecutive seeds to run")
    verify.add_argument("--seed", type=_seed, default=0, help="first seed of the sweep")
    verify.add_argument("--improved", action="store_true")
    verify.add_argument("--snr-sweep", action="store_true",
                        help="also check the high-SNR rate slope per seed")
    verify.add_argument("--out", help="write JSON here instead of stdout")

    lemmas = sub.add_parser("lemmas", help="Monte Carlo rank-identity battery")
    lemmas.add_argument("--trials", type=_positive_int, default=100)
    lemmas.add_argument("--seed", type=_seed, default=0)
    lemmas.add_argument("--config", help="JSON file overriding the built-in grids")
    lemmas.add_argument("--out", help="write JSON here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed + args.seeds > SEED_LIMIT:
        parser.error(f"seeds {args.seed}..{args.seed + args.seeds - 1} leave [0, 2**64)")
    command = {"curve": cmd_curve, "build": cmd_build, "verify": cmd_verify,
               "lemmas": cmd_lemmas}[args.command]
    text, code = command(args, parser)
    _emit(text, args.out, parser)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
curve   Emit exact-rational DoF curves as CSV (per-user for finite K,
        total-normalized for ``--k inf``): one line per row that
        :func:`ssalign.dof.curve` yields.
build   Sample channels, plan and execute a beamforming construction, verify
        decodability, and dump everything as JSON.
verify  Repeat ``build`` over a seed sweep and summarize pass counts.
lemmas  Run the Monte Carlo rank-identity battery.

The CLI only parses arguments and formats output; the library does the work.
JSON documents are written compact, on a single line, so that the C encoder
of the ``json`` module writes them; ``python -m json.tool`` pretty-prints one.
Output goes to stdout, or to the ``--out`` file once the command is done.

``curve`` runs on the pure-Python :mod:`ssalign.dof` alone and never imports
numpy.  ``build``, ``verify`` and ``lemmas`` load numpy and the whole numeric
stack before they run, as does reading any numeric name as an attribute of
this module (``cli.verify_end_to_end``): one such name loads them all.

The ``build`` document has the keys ``config``, ``plan``, ``channels`` (the
:func:`~ssalign.channel.channel_to_json` document), ``units`` and ``report``.
Every complex array in it is one object, ``{"shape": [...], "base64": ...}``,
holding the base64 text of the array's C-order little-endian ``complex128``
bytes; :func:`~ssalign.channel.array_from_json` reads one back bit for bit.
Each unit has ``pattern_order``, ``group``, ``column_block``, ``pairs`` and
``beamformers``: ``pairs[i] = [a, b]`` is the ordered pair of column ``i`` of
the ``(M * extension) x streams`` matrix ``beamformers``, in sorted pair
order.  The relay-side images ``H_a u`` are not stored, because they follow
exactly from the document: rebuild ``ch = channel_from_json(doc["channels"])``
and ``B = array_from_json(unit["beamformers"], 2)``, then for each sender
``a`` in sorted order take the columns ``i`` with ``pairs[i][0] == a`` and
compute ``slot_product(ch.uplink[a], B[:, cols])`` (all in
:mod:`ssalign.channel`); stacked side by side these equal the library's
``Unit.equivalent_uplink`` bit for bit.

A ``verify`` row has ``seed``, ``pass``, ``d_sum``, ``d_sum_matches`` and
``ok``; ``--snr-sweep`` adds ``slope`` (of the sum rate against log2 SNR),
``slope_window_db`` (the ``[low, high]`` dB it was read over) and ``slope_ok``
(within 5% of ``d_sum``), which ``ok`` then requires.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unreadable or invalid ``--config`` and an unwritable ``--out``), 3 construction
failure.  Exit 3 writes ``{"error", "message", "seed", "stage"}``, ``stage``
being the construction stage that failed (``plan``, ``execute``, ``uplink``,
``downlink`` or ``forward``; ``downlink`` is a downlink twin or a downlink
relay projector), plus ``channels`` when the failure came after sampling, so
that rebuilding from those channels with the same plan raises the same error,
message and stage again.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import _HOME, __version__, _load, dof
from .errors import ConstructionError

# The names this module takes from the numeric stack; the package's ``_HOME``
# gives each one's module.  ``build``, ``verify`` and ``lemmas`` bind them all
# before they run, and so does a read of one as a ``cli`` attribute
# (perfbench's tests read ``cli.plan_alignment`` and patch
# ``cli.verify_end_to_end``).
_NUMERIC_NAMES = ("array_to_json", "channel_to_json", "default_battery", "run_battery",
                  "construct", "verify_end_to_end", "plan_alignment")

CSV_HEADER = "ratio_num,ratio_den,ratio,value_num,value_den,value,mode,capacity_tight"

# Seeds key Philox generators, which take unsigned 64-bit integers.
SEED_LIMIT = 2**64


def _numeric() -> None:
    """Bind every name of ``_NUMERIC_NAMES`` that is not bound yet; a test may have patched one."""
    namespace = globals()
    for name in _NUMERIC_NAMES:
        if name not in namespace:
            namespace[name] = getattr(_load(_HOME[name]), name)


def __getattr__(name: str):
    if name not in _NUMERIC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _numeric()
    return globals()[name]


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


def _farey(q: int) -> Iterator[tuple[int, int]]:
    """Reduced fractions ``(c, d)`` of (0, 1] with denominator <= ``q``, in increasing order.

    Next-term recurrence of the Farey sequence (Hardy & Wright, *An
    Introduction to the Theory of Numbers*, section 3.1): after ``a/b`` and
    ``c/d`` comes ``(k c - a)/(k d - b)`` with ``k = (q + b) // d``.  Every
    term is already in lowest terms, and the first term past ``1/1`` is
    ``(q + 1)/q``.
    """
    a, b, c, d = 0, 1, 1, q
    while c <= d:
        yield c, d
        k = (q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _parse_ratios(spec: str, parser: argparse.ArgumentParser) -> Iterable[tuple[int, int]]:
    """The ratio grid of ``--ratios`` as ``(numerator, denominator)`` pairs in lowest terms."""
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
        # Fraction takes PEP 515 underscores ("1_000") only from Python 3.11.
        if "_" in spec:
            raise ValueError(spec)
        ratios = sorted({Fraction(part) for part in spec.split(",") if part.strip()})
    except (ValueError, ZeroDivisionError):
        parser.error(f"bad ratio list {spec!r}")
    if not ratios or any(r <= 0 for r in ratios):
        parser.error("ratios must be positive rationals")
    if ratios[-1] > sys.float_info.max:
        parser.error(f"ratios must not exceed the largest float, {sys.float_info.max!r}")
    if float(ratios[0]) == 0.0:
        parser.error(f"ratios must not round to the float 0.0; the smallest positive "
                     f"float is {math.ulp(0.0)!r}")
    return [(r.numerator, r.denominator) for r in ratios]


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator, "value": float(x)}


def cmd_curve(args, parser) -> tuple[str, int]:
    ratios = _parse_ratios(args.ratios, parser)
    if args.k == "inf":
        if args.mode == "outer":
            parser.error("--mode outer is not defined for --k inf")
        k, mode_tag = None, f"asymptotic-{args.mode}"
    else:
        k, mode_tag = args.k, args.mode
    # Int true division is correctly rounded: the same float as float(Fraction).
    # A "p,q,float" text depends on the reduced pair alone, so a value reuses
    # the text of the row above when its pair is the same, else its own
    # ratio's text when equal to the ratio, and only then formats its own:
    # the curves are piecewise linear in the ratio, so on a sorted grid most
    # values are one of the two, and float repr is most of the cost.
    tails = (f",{mode_tag},false", f",{mode_tag},true")
    lines = [CSV_HEADER]
    last_num = last_den = value = None
    for c, d, num, den, tight in dof.curve(k, args.mode, ratios, args.half_duplex):
        ratio = f"{c},{d},{c / d!r}"
        if num != last_num or den != last_den:
            last_num, last_den = num, den
            value = ratio if num == c and den == d else f"{num},{den},{num / den!r}"
        lines.append(f"{ratio},{value}{tails[tight]}")
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
    return {
        "pattern_order": unit.pattern_order,
        "group": list(unit.group),
        "column_block": unit.column_block,
        "pairs": [list(pair) for pair in unit.pairs],
        "beamformers": array_to_json(unit.beamformers),
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
        doc = {"error": type(exc).__name__, "message": str(exc), "seed": seed,
               "stage": exc.stage}
        if exc.channels is not None:
            doc["channels"] = channel_to_json(exc.channels)
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
    if args.seed + args.seeds > SEED_LIMIT:
        parser.error(f"seeds {args.seed}..{args.seed + args.seeds - 1} leave [0, 2**64)")
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
            target = float(report.counted_d_sum)
            slope_ok = target > 0 and abs(report.slope - target) <= 0.05 * target
            row["slope"] = report.slope
            row["slope_window_db"] = list(report.slope_window_db)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
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
                            "(default farey:48); ratios above 1 are clamped at M = N")
    curve.add_argument("--half-duplex", action="store_true",
                       help="halve emitted values for half-duplex operation")
    curve.add_argument("--out", help="write CSV here instead of stdout")
    curve.set_defaults(run=cmd_curve, parser=curve)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--m", type=_positive_int, required=True, help="antennas per user")
    config.add_argument("--n", type=_positive_int, required=True, help="relay antennas")
    config.add_argument("--k", type=_user_count, required=True, help="user count (>= 3)")
    config.add_argument("--improved", action="store_true",
                        help="allow relay-antenna deactivation")

    build = sub.add_parser("build", parents=[config], help="construct and verify one realization")
    build.add_argument("--seed", type=_seed, default=0)
    build.add_argument("--out", help="write JSON here instead of stdout")
    build.set_defaults(run=cmd_build, parser=build)

    verify = sub.add_parser("verify", parents=[config],
                            help="sweep seeds and summarize verification")
    verify.add_argument("--seeds", type=_positive_int, required=True,
                        help="number of consecutive seeds to run")
    verify.add_argument("--seed", type=_seed, default=0, help="first seed of the sweep")
    verify.add_argument("--snr-sweep", action="store_true",
                        help="also require each seed's high-SNR sum-rate slope, read "
                             "where it settles in 40-160 dB, within 5%% of the counted DoF")
    verify.add_argument("--out", help="write JSON here instead of stdout")
    verify.set_defaults(run=cmd_verify, parser=verify)

    lemmas = sub.add_parser("lemmas", help="Monte Carlo rank-identity battery")
    lemmas.add_argument("--trials", type=_positive_int, default=100)
    lemmas.add_argument("--seed", type=_seed, default=0)
    lemmas.add_argument("--config", help="JSON file overriding the built-in grids")
    lemmas.add_argument("--out", help="write JSON here instead of stdout")
    lemmas.set_defaults(run=cmd_lemmas, parser=lemmas)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.run is not cmd_curve:
        _numeric()
    # Each subcommand's parser reports late usage errors, so they print its usage.
    text, code = args.run(args, args.parser)
    _emit(text, args.out, args.parser)
    return code


if __name__ == "__main__":
    sys.exit(main())

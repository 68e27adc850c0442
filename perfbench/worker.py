"""One benchmark process: set up, or run a workload's passes.

``run.py`` starts this file in a fresh interpreter so that set-up time and
peak memory belong to one process each.  It prints one JSON document as the
last line of its standard output.

    python3 perfbench/worker.py setup --workload oracle
    python3 perfbench/worker.py measure --workload oracle --seed 0 --seconds 10 --trace 0

``setup`` times importing ``ssalign`` and one warm-up operation.  ``measure``
repeats passes over the workload's fixed operation list until the next pass
would end after ``--seconds``; with ``--trace 1`` it alternates untraced and
traced passes, so that the difference between them is the tracing cost.

Untraced, a :class:`SpeedProbe` times a fixed reference kernel every
``PROBE_EVERY_S``, during operations too.  The speed of a shared host swings
by a quarter or more for seconds to minutes at a time; dividing each
operation's time by the reference kernel's time around it removes that
swing from the reported times while keeping every change in the program's
own work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from workloads import WORKLOADS, check, make_ops, warmup_op  # noqa: E402


def load_main():
    """Import the CLI entry point from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ssalign.cli import main

    return main


# A fixed nominal time of the reference kernel, near its median on a 2-vCPU
# x86_64 host with OpenBLAS 0.3.31; normalised times are seconds at the
# speed at which the kernel takes this long.
PROBE_NOMINAL_S = 0.010
# A timer runs the kernel this often, in the middle of operations too.
PROBE_EVERY_S = 0.15
# An operation's speed is the mean kernel time within this of its span.
PROBE_WINDOW_S = 1.0
# Kernel runs right after set-up, which is too short for the timer.
PROBE_SETUP_RUNS = 8


class SpeedProbe:
    """Times a fixed reference kernel to track the host's speed.

    The kernel is benchmark code only (small SVDs and exact ``Fraction``
    sums, the two kinds of work the workloads do), so a change to
    ``ssalign`` cannot move it.  ``svd`` is bound when the probe is made,
    before any tracer wraps ``numpy.linalg.svd``.

    Inside ``with probe:`` an interval timer (``SIGALRM``) runs the kernel
    every ``PROBE_EVERY_S``; Python runs the handler between bytecodes of the
    main thread, so samples fall inside operations that last seconds as well
    as between short ones.  :func:`run_op` and :func:`run_pass` take the
    kernel's time out of the times they report.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(2014)
        self._svd = np.linalg.svd
        self._matrices = [rng.standard_normal((48, 24)) for _ in range(16)] \
            + [rng.standard_normal((8, 4)) for _ in range(64)]
        self.samples: list[tuple[float, float]] = []  # (mid time, kernel seconds)
        self.seconds = 0.0  # time spent in the kernel
        self._busy = False
        self._kernel()  # first calls pay one-off costs

    def _kernel(self) -> None:
        for a in self._matrices:
            self._svd(a)
        total = Fraction(0)
        for i in range(1, 900):
            total += Fraction(i, i + 7)

    def sample(self, *_signal_args) -> None:
        """Run the kernel once and record its time."""
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.seconds += t1 - t0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """``PROBE_NOMINAL_S`` over the mean kernel time near ``[start, end]``.

        The host alternates between a fast and a slow state every few
        seconds.  An operation's time follows the share of it spent in each
        state, which the mean of evenly spaced samples tracks and a median
        does not.
        """
        near = [s for t, s in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda sample: abs(sample[0] - mid))[1]]
        return PROBE_NOMINAL_S / statistics.fmean(near)


def run_op(main, op: dict, probe: SpeedProbe | None = None) -> tuple[float, dict]:
    """Time one CLI call, less any probe kernel run during it, and gate its output."""
    buf = io.StringIO()
    rc, error = None, None
    probed = probe.seconds if probe else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(op["argv"]))
    except SystemExit as exc:  # argparse reports usage errors this way
        rc = exc.code
    except Exception as exc:  # an operation that raises is a failed operation
        error = "".join(traceback.format_exception_only(exc)).strip()
    seconds = time.perf_counter() - start - ((probe.seconds - probed) if probe else 0.0)
    verdict = {"ok": False, "why": error} if error else check(op, rc, buf.getvalue())
    return seconds, verdict


def run_pass(main, ops: list[dict], tracer=None, probe: SpeedProbe | None = None) -> dict:
    """Run every operation once; the pass's wall time includes the gate.

    With a tracer, ``op_stages`` gives each operation's time per stage.
    With a probe, the kernel's time is left out of every time, and ``spans``
    and ``gated`` (call plus gate time) let :func:`normalise` rescale each
    operation afterwards.
    """
    op_seconds, verdicts, op_stages, spans, gated = [], [], [], [], []
    probed = probe.seconds if probe else 0.0
    start = time.perf_counter()
    for op in ops:
        before = dict(tracer.seconds) if tracer else {}
        op_probed = probe.seconds if probe else 0.0
        t0 = time.perf_counter()
        seconds, verdict = run_op(main, op, probe)
        t1 = time.perf_counter()
        op_seconds.append(seconds)
        verdicts.append(verdict)
        spans.append((t0, t1))
        gated.append(t1 - t0 - ((probe.seconds - op_probed) if probe else 0.0))
        if tracer:
            op_stages.append({k: tracer.seconds[k] - v for k, v in before.items()
                              if tracer.seconds[k] != v})
    wall = time.perf_counter() - start - ((probe.seconds - probed) if probe else 0.0)
    failures = [f"{' '.join(op['argv'])}: {v['why']}"
                for op, v in zip(ops, verdicts) if not v["ok"]]
    slopes = [v for v in verdicts if "slope_ok" in v]
    return {
        "wall": wall,
        "ops": op_seconds,
        "failures": failures,
        "slope_ok": [v["slope_ok"] for v in slopes],
        "slope_err": [v["slope_err"] for v in slopes],
        "op_stages": op_stages,
        "spans": spans,
        "gated": gated,
    }


def normalise(record: dict, probe: SpeedProbe) -> None:
    """Add host-speed normalised ``ops_norm`` and ``wall_norm`` to a pass record."""
    factors = [probe.factor(*span) for span in record["spans"]]
    record["ops_norm"] = [t * f for t, f in zip(record["ops"], factors)]
    record["wall_norm"] = sum(t * f for t, f in zip(record["gated"], factors))


def _blas_threads():
    # Asks the OpenBLAS that numpy loaded; None where that library is absent.
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def setup(workload: str) -> dict:
    """Time the import and warm-up, then the reference kernel right after."""
    start = time.perf_counter()
    main = load_main()
    _, verdict = run_op(main, warmup_op(workload))
    seconds = time.perf_counter() - start
    probe = SpeedProbe()
    for _ in range(PROBE_SETUP_RUNS):
        probe.sample()
    return {"setup_s": seconds,
            "setup_norm_s": seconds * probe.factor(start, start + seconds),
            "failures": [] if verdict["ok"] else [f"warm-up: {verdict['why']}"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    main = load_main()
    ops = make_ops(workload, seed, smoke)
    _, warm = run_op(main, warmup_op(workload))
    tracer, probe = None, None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        probe = SpeedProbe()
    plain, traced = [], []
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        while True:
            plain.append(run_pass(main, ops, probe=probe))
            if tracer is not None:
                tracer.reset()
                with tracer:
                    record = run_pass(main, ops, tracer)
                record["trace"] = tracer.snapshot()
                traced.append(record)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
    if probe is not None:
        probe.sample()
        for record in plain:
            normalise(record, probe)
    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    if not warm["ok"]:
        failures.insert(0, f"warm-up: {warm['why']}")
    return {
        "passes": plain,
        "traced": traced,
        "ops_per_pass": len(ops),
        "attempted": 1 + len(ops) * len(passes),
        "failed": len(failures),
        "failures": failures[:20],
        "missing_stages": tracer.missing if tracer else [],
        "probe_s": statistics.median(s for _, s in probe.samples) if probe else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input set, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.role == "setup":
        doc = setup(args.workload)
    else:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

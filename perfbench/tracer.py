"""Stage tracer for the traced benchmark run.

The tracer times calls into each ``ssalign`` module's public functions by
swapping wrappers into every ``ssalign`` namespace that holds them, and it
counts ``numpy.linalg.svd`` calls the same way.  Nothing in the library
changes; :meth:`Tracer.uninstall` puts the original objects back.

Only the outermost traced call is timed: a traced function called while
another is running belongs to its caller's span.  Every operation's time is
therefore the sum of its outermost spans plus the CLI's own time
(``cli.self_s``), which covers argument parsing and JSON formatting.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time

import numpy as np

# (module, function, stage).  A stage sums the outermost calls of its
# functions.  ``channel_to_json`` is left out on purpose: it formats output,
# so its time belongs to ``cli.self_s``.
STAGES = (
    ("ssalign.units", "plan_alignment", "units.plan_s"),
    ("ssalign.units", "execute_plan", "units.execute_s"),
    ("ssalign.channel", "sample_channel_set", "channel.sample_s"),
    ("ssalign.channel", "deactivate_relay_antennas", "channel.sample_s"),
    ("ssalign.relay", "build_uplink_projectors", "relay.uplink_s"),
    ("ssalign.relay", "design_downlink", "relay.downlink_s"),
    ("ssalign.relay", "assemble_forward_matrix", "relay.forward_s"),
    ("ssalign.relay", "verify_end_to_end", "relay.verify_s"),
    ("ssalign.relay", "estimate_dof_slope", "relay.slope_s"),
    ("ssalign.dof", "achievable_basic", "dof.eval_s"),
    ("ssalign.dof", "achievable_improved", "dof.eval_s"),
    ("ssalign.dof", "outer_bound_per_user", "dof.eval_s"),
    ("ssalign.dof", "asymptotic_dof", "dof.eval_s"),
    ("ssalign.lemmas", "default_battery", "lemmas.battery_s"),
)

STAGE_NAMES = tuple(dict.fromkeys(stage for _, _, stage in STAGES))


class Tracer:
    """Per-stage time and call counts plus SVD and relay-size counters.

    Counters accumulate until :meth:`reset`; read them with :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # functions install() could not find
        self.reset()

    def reset(self) -> None:
        self.seconds = dict.fromkeys(STAGE_NAMES, 0.0)
        self.calls = dict.fromkeys(STAGE_NAMES, 0)
        self.svd_calls = 0
        self.svd_flop = 0
        self.svd_max_dim = 0
        self.projectors = 0
        self.projector_bytes = 0

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "svd_calls": self.svd_calls,
            "svd_flop": self.svd_flop,
            "svd_max_dim": self.svd_max_dim,
            "projectors": self.projectors,
            "projector_bytes": self.projector_bytes,
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, stage: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - start
                self.calls[stage] += 1
                self._depth -= 1
        return traced

    def _svd(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            self.svd_calls += 1
            if len(shape) >= 2:
                rows, cols = shape[-2:]
                batch = math.prod(shape[:-2])
                self.svd_flop += batch * rows * cols * min(rows, cols)
                self.svd_max_dim = max(self.svd_max_dim, rows, cols)
            return fn(a, *args, **kwargs)
        return counted

    def _relay_probe(self, fn):
        # Sizes the arrays a RelayProcessor keeps; adds no span.
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            processor = fn(*args, **kwargs)
            count, nbytes = 0, 0
            for f in dataclasses.fields(processor):
                value = getattr(processor, f.name)
                arrays = value.values() if isinstance(value, dict) else [value]
                arrays = [a for a in arrays if isinstance(a, np.ndarray)]
                nbytes += sum(a.nbytes for a in arrays)
                if "projector" in f.name:
                    count += len(arrays)
            self.projectors = max(self.projectors, count)
            self.projector_bytes = max(self.projector_bytes, nbytes)
            return processor
        return probed

    # -- install / uninstall ----------------------------------------------

    def _swap_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ssalign" or name.startswith("ssalign.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        wrappers = {}
        for module_name, func_name, stage in STAGES:
            fn = getattr(sys.modules.get(module_name), func_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrappers[fn] = self._span(stage, fn)
        relay = sys.modules.get("ssalign.relay")
        build = getattr(relay, "build_relay_processor", None)
        if build is None:
            self.missing.append("ssalign.relay.build_relay_processor")
        else:
            wrappers[build] = self._relay_probe(build)
        for fn, wrapper in wrappers.items():
            self._swap_everywhere(fn, wrapper)
        svd = np.linalg.svd
        self._restore.append((np.linalg, "svd", svd))
        np.linalg.svd = self._svd(svd)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

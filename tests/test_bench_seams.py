"""The benchmark's stage tracer must still find what it measures.

``perfbench/tracer.py`` wraps ``ssalign`` functions by module attribute and
sizes the relay processor's ``*projector*`` maps.  A renamed function or a
processor without those maps would silently zero its per-layer metrics.

The benchmark also gates every ``curve`` output on the sha256 recorded in
``perfbench/curves.sha256.json``; the small-grid entries are checked here so
that a byte change in the CSV fails the tests before it fails the benchmark.
Likewise ``build`` documents must pass ``perfbench/workloads.py``'s gate.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ssalign import RelayProcessor, cli, construct

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CURVE_HASHES = json.loads((PERFBENCH / "curves.sha256.json").read_text())["sha256"]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_stage_function_resolves():
    stages = load_perfbench("tracer").STAGES
    missing = [f"{module}.{name}" for module, name, _ in stages
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_relay_processor_keeps_projector_maps():
    built = construct(3, 5, 3, 0)
    names = [f.name for f in dataclasses.fields(RelayProcessor) if "projector" in f.name]
    assert names == ["uplink_projectors", "downlink_projectors"]
    pairs = sum(len(u.pairs) for u in built.units) // 2
    for name in names:
        maps = getattr(built.processor, name)
        assert isinstance(maps, dict) and len(maps) == pairs
        assert all(isinstance(z, np.ndarray) for z in maps.values())


def test_traced_construction_reaches_every_relay_stage():
    tracer = load_perfbench("tracer").Tracer()
    with tracer:
        assert tracer.missing == []
        built = construct(3, 5, 3, 0)
    counts = tracer.snapshot()
    assert counts["projectors"] == sum(len(u.pairs) for u in built.units)
    for stage in ("units.plan_s", "units.execute_s", "channel.sample_s",
                  "relay.uplink_s", "relay.downlink_s", "relay.forward_s"):
        assert counts["calls"][stage] == 1, stage
    assert counts["svd_calls"] > 0


@pytest.mark.parametrize("command", [c for c in CURVE_HASHES if c.endswith("farey:8")])
def test_curve_output_matches_recorded_hash(capsys, command):
    assert cli.main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CURVE_HASHES[command]


@pytest.mark.parametrize("config", [(3, 5, 3, False, 0), (7, 14, 4, True, 0)])
def test_build_output_passes_benchmark_gate(capsys, config):
    workloads = load_perfbench("workloads")
    op = workloads.build_op(*config)
    rc = cli.main(op["argv"])
    assert workloads.check(op, rc, capsys.readouterr().out) == {"ok": True, "why": None}

import dataclasses
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ssalign import (
    Construction,
    SystemConfig,
    achievable_basic,
    build_relay_processor,
    construct,
    deactivate_relay_antennas,
    execute_plan,
    plan_alignment,
    sample_channel_set,
    verify_end_to_end,
)
from ssalign import pipeline, relay
from ssalign.errors import AlignmentDegenerate, ExtensionOverflow, ProjectorCollapse
from ssalign.relay import PairProjectors, assemble_forward_matrix


def by_hand(m, n, k, seed, improved):
    plan = plan_alignment(m, n, k, improved)
    cfg = SystemConfig(m=m, n=n, k=k, extension=plan.extension, seed=seed)
    ch = sample_channel_set(cfg)
    if plan.active_relay < ch.active_relay:
        ch = deactivate_relay_antennas(ch, plan.active_relay)
    units = execute_plan(plan, ch)
    processor = build_relay_processor(units)
    return plan, ch, units, processor, verify_end_to_end(ch, units, processor)


@pytest.mark.parametrize("m,n,k,improved", [(3, 5, 3, False), (7, 14, 4, True)])
def test_construct_matches_hand_wired_stages(m, n, k, improved):
    plan, ch, units, processor, report = by_hand(m, n, k, 21, improved)
    built = construct(m, n, k, 21, improved)
    assert isinstance(built, Construction)
    assert built.plan == plan
    assert built.channels == ch
    assert len(built.units) == len(units)
    for got, want in zip(built.units, units):
        assert got.pairs == want.pairs
        assert np.array_equal(got.beamformers, want.beamformers)
    assert np.array_equal(built.processor.forward_matrix, processor.forward_matrix)
    assert verify_end_to_end(built.channels, built.units, built.processor) == report
    assert report.passed


def test_constructions_compare_by_identity():
    # Their arrays would make a field-by-field == raise.
    built = construct(3, 5, 3, 0)
    again = construct(3, 5, 3, 0)
    assert built == built
    assert built != again
    assert built.units[0] != again.units[0]
    assert built.processor != again.processor


@pytest.mark.parametrize("m,n,k,improved", [(3, 5, 3, False), (7, 14, 4, True),
                                            (5, 9, 5, True), (2, 12, 6, False),
                                            (3, 12, 4, False), (2, 10, 5, False),
                                            (1, 4, 3, False)])
def test_no_matrix_is_decomposed_twice(monkeypatch, m, n, k, improved):
    # Every span is decided once: each unit's in its builder, each link's
    # joint span and pair complements in the relay.  A rank is decided by an
    # SVD, or by a QR and the inverse of its factor, so all three routines
    # are fingerprinted, each matrix keyed by the routine that took it.
    seen = Counter()

    def fingerprinting(name, routine):
        def spy(a, *args, **kwargs):
            arr = np.asarray(a)
            seen[(name, arr.shape, hashlib.sha256(arr.tobytes()).digest())] += 1
            return routine(a, *args, **kwargs)
        return spy

    for name in ("svd", "qr", "inv"):
        monkeypatch.setattr(np.linalg, name, fingerprinting(name, getattr(np.linalg, name)))
    built = construct(m, n, k, 0, improved)
    assert verify_end_to_end(built.channels, built.units, built.processor).passed
    assert seen
    assert [(name, shape, count) for (name, shape, _), count in seen.items() if count > 1] == []


def test_construct_calls_module_planner(monkeypatch):
    # A stage tracer swaps module attributes; construct must look them up
    # when it runs.
    calls = []
    original = pipeline.plan_alignment

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, "plan_alignment", spy)
    construct(3, 5, 3, 0)
    assert calls == [(3, 5, 3, False)]


def test_construction_errors_carry_their_stage(monkeypatch):
    with pytest.raises(ExtensionOverflow) as info:
        construct(1, 2, 4, 0, improved=True)
    assert (info.value.stage, info.value.channels) == ("plan", None)
    # Every user's uplink zeroed: the first aligned unit spans nothing.
    sample = pipeline.sample_channel_set

    def mute(cfg):
        ch = sample(cfg)
        return dataclasses.replace(ch, uplink=np.zeros_like(ch.uplink))

    monkeypatch.setattr(pipeline, "sample_channel_set", mute)
    with pytest.raises(AlignmentDegenerate) as info:
        construct(3, 8, 4, 0)
    assert info.value.stage == "execute" and info.value.channels is not None
    monkeypatch.undo()
    monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
    with pytest.raises(AlignmentDegenerate) as info:
        construct(3, 8, 4, 0)
    assert info.value.stage == "uplink"
    monkeypatch.undo()
    # Both sides' complements vanish and every pair factor is empty: F = 0.
    built = construct(3, 5, 3, 0)
    n = built.channels.active_relay
    empty = PairProjectors(np.zeros((n, 0)), {(0, (0, 1)): np.zeros((n, 0))})
    with pytest.raises(ProjectorCollapse) as info:
        assemble_forward_matrix(built.units, empty, empty)
    assert info.value.stage == "forward"


def test_library_needs_no_scipy():
    # scipy is a test dependency only: the CLI and a construction never load it.
    code = ("import sys, ssalign, ssalign.cli; ssalign.construct(3, 5, 3, 0); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "[]\n"


@pytest.mark.slow
def test_every_basic_plan_up_to_five_users_verifies():
    # The feasibility sweep: every basic point with K <= 5 and M <= N <= 12
    # builds on two seeds and counts the closed-form d_sum.
    for k in (3, 4, 5):
        for n in range(1, 13):
            for m in range(1, n + 1):
                want = achievable_basic(m, n, k).d_sum
                for seed in (0, 1):
                    built = construct(m, n, k, seed)
                    report = verify_end_to_end(built.channels, built.units, built.processor)
                    assert report.passed and report.counted_d_sum == want, (m, n, k, seed)

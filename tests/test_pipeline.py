import numpy as np
import pytest

from ssalign import (
    Construction,
    SystemConfig,
    build_relay_processor,
    construct,
    deactivate_relay_antennas,
    execute_plan,
    plan_alignment,
    sample_channel_set,
    verify_end_to_end,
)
from ssalign import pipeline


def by_hand(m, n, k, seed, improved):
    plan = plan_alignment(m, n, k, improved)
    cfg = SystemConfig(m=m, n=n, k=k, extension=plan.extension, seed=seed)
    ch = sample_channel_set(cfg)
    if plan.active_relay < ch.active_relay:
        ch = deactivate_relay_antennas(ch, plan.active_relay)
    units = execute_plan(plan, ch)
    processor = build_relay_processor(units, ch)
    return plan, ch, units, processor, verify_end_to_end(ch, units, processor)


@pytest.mark.parametrize("m,n,k,improved", [(3, 5, 3, False), (7, 14, 4, True)])
def test_construct_matches_hand_wired_stages(m, n, k, improved):
    plan, ch, units, processor, report = by_hand(m, n, k, 21, improved)
    built = construct(m, n, k, 21, improved)
    assert isinstance(built, Construction)
    assert built.plan == plan
    assert built.channels.slot_rows == ch.slot_rows
    for x, y in zip(built.channels.uplink + built.channels.downlink, ch.uplink + ch.downlink):
        assert np.array_equal(x, y)
    assert len(built.units) == len(units)
    for got, want in zip(built.units, units):
        assert got.pairs == want.pairs
        assert np.array_equal(got.beamformers, want.beamformers)
    assert np.array_equal(built.processor.forward_matrix, processor.forward_matrix)
    assert verify_end_to_end(built.channels, built.units, built.processor) == report
    assert report.passed


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

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from ssalign import (
    DEFAULT_TOL,
    SystemConfig,
    assemble_forward_matrix,
    build_aligned_unit,
    build_random_unit,
    build_relay_processor,
    build_uplink_projectors,
    complex_gaussian,
    deactivate_relay_antennas,
    derived_rng,
    design_downlink,
    estimate_dof_slope,
    execute_plan,
    numerical_rank,
    plan_alignment,
    sample_channel_set,
    union_span_dim,
    verify_end_to_end,
)
from ssalign.errors import InvalidSweep, ProjectorCollapse
from ssalign.units import Unit


def full_build(m, n, k, seed, improved=False):
    plan = plan_alignment(m, n, k, improved)
    ch = sample_channel_set(SystemConfig(m=m, n=n, k=k, extension=plan.extension, seed=seed))
    if plan.active_relay < ch.active_relay:
        ch = deactivate_relay_antennas(ch, plan.active_relay)
    units = execute_plan(plan, ch)
    processor = build_relay_processor(units, ch)
    return plan, ch, units, processor


class TestUplinkProjectors:
    def test_random_unit_rank_two(self):
        # One full-multiplexing unit in C^6: excluding a pair leaves 4
        # directions, so each projector has rank 2.
        ch = sample_channel_set(SystemConfig(m=2, n=6, k=3, seed=1))
        unit = build_random_unit(ch, derived_rng(1, 1))
        projectors = build_uplink_projectors([unit])
        assert len(projectors) == 3
        for p in projectors.values():
            assert numerical_rank(p) == 2

    def test_pair_plan_rank_one(self):
        # K=3, M=2, N=3: three aligned directions fill the space; each
        # projector keeps exactly the one direction of its own pair.
        _, ch, units, processor = full_build(2, 3, 3, seed=2)
        assert len(processor.uplink_projectors) == 3
        for p in processor.uplink_projectors.values():
            assert numerical_rank(p) == 1

    def test_single_pair_alone_gives_identity(self):
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=3))
        unit = build_aligned_unit(ch, (0, 1), 0)
        projectors = build_uplink_projectors([unit])
        assert np.array_equal(projectors[(0, (0, 1))], np.eye(5))

    def test_projectors_idempotent(self):
        _, _, _, processor = full_build(3, 8, 4, seed=4)
        for p in list(processor.uplink_projectors.values()) \
                + list(processor.downlink_projectors.values()):
            assert np.linalg.norm(p @ p - p) <= 10 * DEFAULT_TOL.leakage_abs


    def test_others_spanning_everything_collapse(self):
        # Two 2-stream units in C^2: the other unit's streams span every row,
        # so no combination of a pair survives its projector.
        rng = np.random.Generator(np.random.Philox(key=5))
        units = []
        for _ in range(2):
            vecs = {p: complex_gaussian(rng, 2, 1)[:, 0] for p in ((0, 1), (1, 0))}
            units.append(Unit(2, (0, 1), dict(vecs), vecs))
        with pytest.raises(ProjectorCollapse):
            build_uplink_projectors(units)


class TestDownlinkMirror:
    def test_pair_alignment_mirrors(self):
        # Downlink equivalents of a pair are parallel, like the uplink ones.
        _, ch, units, processor = full_build(2, 3, 3, seed=5)
        for li, unit in enumerate(units):
            pairs = unit.ordered_pairs()
            g_ab = ch.downlink[pairs[0][0]].T @ processor.receive_vectors[(li, pairs[0])]
            g_ba = ch.downlink[pairs[1][0]].T @ processor.receive_vectors[(li, pairs[1])]
            cos = abs(np.vdot(g_ab, g_ba)) / (np.linalg.norm(g_ab) * np.linalg.norm(g_ba))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_span_multiset_matches_uplink(self):
        _, ch, units, processor = full_build(3, 8, 4, seed=6)
        up_dims = []
        down_dims = []
        for li, unit in enumerate(units):
            up = [unit.equivalent_uplink[p] for p in unit.ordered_pairs()]
            down = [ch.downlink[p[0]].T @ processor.receive_vectors[(li, p)]
                    for p in unit.ordered_pairs()]
            up_dims.append(union_span_dim(up))
            down_dims.append(union_span_dim(down))
        assert sorted(up_dims) == sorted(down_dims)

    def test_empty_units(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=7))
        receive, projectors = design_downlink([], ch)
        assert receive == {} and projectors == {}


class TestForwardMatrix:
    def test_single_pair_identity_projectors(self):
        # A lone pair unit excludes nothing, so W = P = I and F = alpha * I.
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=8))
        unit = build_aligned_unit(ch, (0, 1), 0)
        uplink = build_uplink_projectors([unit])
        receive, downlink = design_downlink([unit], ch)
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink, power=2.0)
        assert alpha > 0
        assert np.allclose(forward, alpha * np.eye(5))

    def test_power_constraint_met_with_equality(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=9)
        streams = np.column_stack(
            [u.equivalent_uplink[p] for u in units for p in u.ordered_pairs()]
        )
        cov = streams @ streams.conj().T + np.eye(ch.active_relay)
        f = processor.forward_matrix
        assert np.trace(f @ cov @ f.conj().T).real == pytest.approx(1.0, rel=1e-9)

    def test_sums_pair_terms(self):
        ch = sample_channel_set(SystemConfig(m=2, n=6, k=3, seed=10))
        unit = build_random_unit(ch, derived_rng(10, 1))
        uplink = build_uplink_projectors([unit])
        receive, downlink = design_downlink([unit], ch, rng=derived_rng(10, 2))
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink)
        manual = sum(downlink[key] @ uplink[key] for key in uplink)
        assert np.allclose(forward, alpha * manual)


class TestVerification:
    @pytest.mark.parametrize("m,n,k,d_sum", [
        (2, 3, 3, F(6)),
        (7, 12, 4, F(24)),
        (3, 8, 4, F(12)),
    ])
    def test_counted_dof(self, m, n, k, d_sum):
        _, ch, units, processor = full_build(m, n, k, seed=11)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert report.counted_d_sum == d_sum

    def test_improved_corner(self):
        _, ch, units, processor = full_build(7, 14, 4, seed=12, improved=True)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert report.counted_d_sum == F(24)

    def test_leakage_small_on_valid_build(self):
        _, ch, units, processor = full_build(3, 5, 3, seed=13)
        report = verify_end_to_end(ch, units, processor)
        assert report.passed
        assert max(rec.leakage for rec in report.streams) <= DEFAULT_TOL.leakage_abs
        assert min(rec.desired for rec in report.streams) > 1e-6
        assert min(rec.partner for rec in report.streams) > 1e-6

    def test_corrupted_beamformer_fails_with_leakage(self):
        # Negative control: perturb one beamformer after the relay design is
        # frozen; the verifier must flag it, with leakage above tolerance.
        _, ch, units, processor = full_build(2, 3, 3, seed=14)
        pair = units[0].ordered_pairs()[0]
        units[0].beamformers[pair] = units[0].beamformers[pair].copy()
        units[0].beamformers[pair][0] += 1.0
        report = verify_end_to_end(ch, units, processor)
        assert not report.passed
        assert max(rec.leakage for rec in report.streams) > DEFAULT_TOL.leakage_abs
        assert report.counted_d_sum < F(6)

    def test_empty_units(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=15))
        report = verify_end_to_end(ch, [], build_relay_processor([], ch))
        assert report.passed and report.counted_d_sum == 0


class TestSlope:
    def test_relay_limited_k3(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=16)
        slope = estimate_dof_slope(ch, units, processor, [40.0, 50.0, 60.0])
        assert slope == pytest.approx(6.0, rel=0.05)

    def test_corrupted_build_slope_drops(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=17)
        pair = units[0].ordered_pairs()[0]
        units[0].beamformers[pair] = units[0].beamformers[pair].copy()
        units[0].beamformers[pair][0] += 1.0
        slope = estimate_dof_slope(ch, units, processor, [40.0, 50.0, 60.0])
        assert slope < 6.0 * 0.95

    def test_empty_units_zero(self):
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, seed=18))
        assert estimate_dof_slope(ch, [], build_relay_processor([], ch), [40, 50]) == 0.0

    def test_bad_sweeps_rejected(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=19)
        with pytest.raises(InvalidSweep):
            estimate_dof_slope(ch, units, processor, [40.0])
        with pytest.raises(InvalidSweep):
            estimate_dof_slope(ch, units, processor, [50.0, 40.0])

import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from ssalign import (
    LEAKAGE_ABS,
    SystemConfig,
    assemble_forward_matrix,
    build_random_unit,
    build_relay_processor,
    build_uplink_projectors,
    complex_gaussian,
    construct,
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
from ssalign.errors import AlignmentDegenerate, IndependenceViolation, InvalidSweep
from ssalign import relay
from ssalign.relay import _entry_rms_scale
from ssalign.units import RANDOM, Unit

from reference import build_aligned_unit, complement_projector, dense, projector


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
        assert len(projectors.factors) == 3
        for z in projectors.factors.values():
            assert numerical_rank(projector(projectors.basis, z)) == 2

    def test_pair_plan_rank_one(self):
        # K=3, M=2, N=3: three aligned directions fill the space; each
        # projector keeps exactly the one direction of its own pair.
        _, ch, units, processor = full_build(2, 3, 3, seed=2)
        assert len(processor.uplink_projectors) == 3
        for z in processor.uplink_projectors.values():
            assert numerical_rank(projector(processor.uplink_basis, z)) == 1

    def test_single_pair_alone_gives_identity(self):
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=3))
        unit = build_aligned_unit(ch, (0, 1), 0)
        projectors = build_uplink_projectors([unit])
        p = projector(projectors.basis, projectors.factors[(0, (0, 1))])
        assert np.allclose(p, np.eye(5), rtol=0, atol=1e-12)

    def test_projectors_idempotent(self):
        _, _, _, processor = full_build(3, 8, 4, seed=4)
        dense = [projector(processor.uplink_basis, z)
                 for z in processor.uplink_projectors.values()] \
            + [projector(processor.downlink_basis, z)
               for z in processor.downlink_projectors.values()]
        for p in dense:
            assert np.linalg.norm(p @ p - p) <= 10 * LEAKAGE_ABS


    def test_others_spanning_everything_collapse(self):
        # Two 2-stream units in C^2: the other unit's streams span every row,
        # so no combination of a pair survives its projector: the spans overlap.
        rng = np.random.Generator(np.random.Philox(key=5))
        units = []
        for _ in range(2):
            vecs = np.column_stack([complex_gaussian(rng, 2, 1)[:, 0] for _ in range(2)])
            units.append(Unit(2, (0, 1), ((0, 1), (1, 0)), vecs.copy(), vecs))
        with pytest.raises(IndependenceViolation, match="^uplink unit spans overlap"):
            build_uplink_projectors(units)

    def test_pair_inside_rest_of_its_unit_collapses(self):
        # One unit, four streams in C^2: the other pair's two streams span
        # every row, so the unit's rest swallows the pair's directions.
        rng = np.random.Generator(np.random.Philox(key=6))
        pairs = ((0, 1), (0, 2), (1, 0), (2, 0))
        vecs = np.column_stack([complex_gaussian(rng, 2, 1)[:, 0] for _ in pairs])
        with pytest.raises(AlignmentDegenerate,
                           match=r"^uplink pair \(0,1\) of unit 0 .* does not survive"):
            build_uplink_projectors([Unit(RANDOM, (0, 1, 2), pairs, vecs.copy(), vecs)])

    def test_zero_stream_does_not_survive(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        vecs = complex_gaussian(rng, 3, 2)
        vecs[:, 1] = 0.0
        with pytest.raises(AlignmentDegenerate, match="does not survive"):
            build_uplink_projectors([Unit(2, (0, 1), ((0, 1), (1, 0)), vecs.copy(), vecs)])


class TestPairSurvival:
    # No stream keeps twice its norm, so at 2.0 every pair fails the test.
    @pytest.mark.parametrize("m,n,k,group", [
        (3, 8, 4, (0, 1, 2)),   # order-3 units
        (3, 5, 3, (0, 1)),      # pair units
        (2, 6, 3, (0, 1, 2)),   # one random unit
    ])
    def test_construction_names_the_uplink_pair(self, monkeypatch, m, n, k, group):
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        with pytest.raises(AlignmentDegenerate,
                           match=rf"^uplink pair \(0,1\) of unit 0 \(group "
                                 rf"{re.escape(str(group))}, column block 0\)"):
            construct(m, n, k, 0)

    def test_downlink_twins_are_tested(self, monkeypatch):
        built = construct(3, 8, 4, 0)
        monkeypatch.setattr(relay, "PAIR_SURVIVAL_MIN", 2.0)
        with pytest.raises(AlignmentDegenerate, match=r"^downlink pair \(0,1\) of unit 0 "):
            design_downlink(built.units, built.channels)


class TestJointIndependence:
    # At (3, 8, 4) four order-3 units fill all 16 relay rows, so a second
    # copy of unit 0 (on the downlink, of its twin) overlaps the others.
    @pytest.mark.parametrize("side", ["uplink", "downlink"])
    def test_overlap_names_the_side(self, side):
        built = construct(3, 8, 4, 0)
        units = built.units + [built.units[0]]
        with pytest.raises(IndependenceViolation,
                           match=rf"^{side} unit spans overlap: their dimensions sum to 20, "
                                 r"jointly they span 16$"):
            if side == "uplink":
                build_uplink_projectors(units)
            else:
                design_downlink(units, built.channels)


class TestLowRankProjectors:
    @pytest.mark.parametrize("m,n,k,improved,extension", [
        (2, 6, 3, False, 1),   # one random unit
        (3, 8, 4, False, 2),
        (7, 14, 4, True, 1),   # deactivated corner
        (3, 5, 4, False, 6),
    ])
    def test_materialised_projectors_match_dense_complement(self, m, n, k, improved,
                                                            extension):
        plan, ch, units, processor = full_build(m, n, k, seed=20, improved=improved)
        assert plan.extension == extension
        keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
        streams = np.hstack([u.equivalent_uplink for u in units])
        uplink = dict(zip(keys, streams.T))
        downlink = {key: dense(ch.downlink[key[1][0]]).conj().T
                    @ processor.receive_vectors[:, i] for i, key in enumerate(keys)}
        sides = ((uplink, processor.uplink_basis, processor.uplink_projectors),
                 (downlink, processor.downlink_basis, processor.downlink_projectors))
        for vectors, basis, factors in sides:
            assert len(factors) == len(keys) // 2
            for (li, (a, b)), z in factors.items():
                others = [v for key, v in vectors.items()
                          if key not in ((li, (a, b)), (li, (b, a)))]
                want = complement_projector(np.column_stack(others))
                assert np.allclose(projector(basis, z), want, rtol=0, atol=1e-12)


class TestDownlinkMirror:
    def test_pair_alignment_mirrors(self):
        # Downlink equivalents of a pair are parallel, like the uplink ones.
        _, ch, units, processor = full_build(2, 3, 3, seed=5)
        for li, unit in enumerate(units):
            pairs = unit.pairs
            g_ab = dense(ch.downlink[pairs[0][0]]).conj().T @ processor.receive_vectors[:, 2 * li]
            g_ba = (dense(ch.downlink[pairs[1][0]]).conj().T
                    @ processor.receive_vectors[:, 2 * li + 1])
            cos = abs(np.vdot(g_ab, g_ba)) / (np.linalg.norm(g_ab) * np.linalg.norm(g_ba))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_span_multiset_matches_uplink(self):
        _, ch, units, processor = full_build(3, 8, 4, seed=6)
        up_dims = []
        down_dims = []
        start = 0
        for unit in units:
            columns = range(start, start + len(unit.pairs))
            start = columns.stop
            down = [dense(ch.downlink[p[0]]).conj().T @ processor.receive_vectors[:, i]
                    for p, i in zip(unit.pairs, columns)]
            up_dims.append(union_span_dim([unit.equivalent_uplink]))
            down_dims.append(union_span_dim(down))
        assert sorted(up_dims) == sorted(down_dims)

    @pytest.mark.parametrize("m,n,k,improved", [(1, 4, 3, False), (2, 3, 3, False),
                                                (2, 5, 3, False), (7, 14, 4, True)])
    def test_receive_vectors_are_twin_beamformers(self, m, n, k, improved):
        plan, ch, units, processor = full_build(m, n, k, seed=32, improved=improved)
        mirror = replace(ch, uplink=ch.downlink.swapaxes(2, 3).conj())
        rng = derived_rng(32, 2)
        twins = [build_random_unit(mirror, rng) if u.pattern_order == RANDOM
                 else build_aligned_unit(mirror, u.group, u.column_block) for u in units]
        assert [twin.pairs for twin in twins] == [u.pairs for u in units]
        assert processor.receive_vectors.shape == (m * plan.extension,
                                                   sum(len(u.pairs) for u in units))
        assert np.array_equal(processor.receive_vectors,
                              np.hstack([twin.beamformers for twin in twins]))

    def test_deaf_user_fails_the_random_twin_span_check(self):
        # With user 0's downlink zeroed, the random twin's six equivalent
        # downlink vectors span only four dimensions.
        _, ch, units, _ = full_build(2, 6, 3, seed=0)
        assert [u.pattern_order for u in units] == [RANDOM]
        deaf = replace(ch, downlink=np.concatenate([np.zeros_like(ch.downlink[:1]),
                                                    ch.downlink[1:]]))
        with pytest.raises(AlignmentDegenerate,
                           match="^downlink twin of unit 0: random unit spans 4 dimensions"):
            build_relay_processor(units, deaf)


class TestForwardMatrix:
    def test_single_pair_identity_projectors(self):
        # A lone pair unit excludes nothing, so W = P = I and F = alpha * I.
        ch = sample_channel_set(SystemConfig(m=3, n=5, k=3, seed=8))
        unit = build_aligned_unit(ch, (0, 1), 0)
        uplink = build_uplink_projectors([unit])
        receive, downlink = design_downlink([unit], ch)
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink)
        assert alpha > 0
        assert np.allclose(forward, alpha * np.eye(5))

    def test_power_constraint_met_with_equality(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=9)
        streams = np.hstack([u.equivalent_uplink for u in units])
        cov = streams @ streams.conj().T + np.eye(ch.active_relay)
        f = processor.forward_matrix
        assert np.trace(f @ cov @ f.conj().T).real == pytest.approx(1.0, rel=1e-9)

    def test_sums_pair_terms(self):
        ch = sample_channel_set(SystemConfig(m=2, n=6, k=3, seed=10))
        unit = build_random_unit(ch, derived_rng(10, 1))
        uplink = build_uplink_projectors([unit])
        receive, downlink = design_downlink([unit], ch)
        forward, alpha = assemble_forward_matrix([unit], uplink, downlink)
        manual = sum(projector(downlink.basis, downlink.factors[key])
                     @ projector(uplink.basis, uplink.factors[key]) for key in uplink.factors)
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
        assert max(rec.leakage for rec in report.streams) <= LEAKAGE_ABS
        assert min(rec.desired for rec in report.streams) > 1e-6
        assert min(rec.partner for rec in report.streams) > 1e-6

    def test_corrupted_beamformer_fails_with_leakage(self):
        # Negative control: perturb one beamformer after the relay design is
        # frozen; the verifier must flag it, with leakage above tolerance.
        _, ch, units, processor = full_build(2, 3, 3, seed=14)
        units[0].beamformers = units[0].beamformers.copy()
        units[0].beamformers[0, 0] += 1.0
        report = verify_end_to_end(ch, units, processor)
        assert not report.passed
        assert max(rec.leakage for rec in report.streams) > LEAKAGE_ABS
        assert report.counted_d_sum < F(6)

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_report_is_invariant_to_channel_scale(self, factor):
        # The thresholds see per-entry-RMS-normalised channels, so scaling one
        # user's links leaves every coefficient as it was.  Leakage is round-off
        # (about 1e-16), so it is held to an absolute bound instead.
        _, ch, units, processor = full_build(7, 14, 4, seed=21, improved=True)
        base = verify_end_to_end(ch, units, processor)
        uplink, downlink = ch.uplink.copy(), ch.downlink.copy()
        uplink[1] *= factor
        downlink[1] *= factor
        scaled = replace(ch, uplink=uplink, downlink=downlink)
        report = verify_end_to_end(scaled, units, processor)
        assert report.passed == base.passed
        assert report.counted_d_sum == base.counted_d_sum
        for rec, want in zip(report.streams, base.streams, strict=True):
            assert (rec.unit, rec.pair) == (want.unit, want.pair)
            assert rec.desired == pytest.approx(want.desired, rel=1e-9)
            assert rec.partner == pytest.approx(want.partner, rel=1e-9)
            assert rec.leakage == pytest.approx(want.leakage, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("m,n,k,improved,extension", [
        (3, 5, 3, False, 2),
        (2, 6, 3, False, 1),   # one random unit
        (3, 5, 4, False, 6),
        (7, 14, 4, True, 1),   # deactivated corner
    ])
    def test_forward_matrix_carries_no_cross_pair_leakage(self, m, n, k, improved,
                                                          extension):
        # Through the F the relay applies, each row v^H G_a reaches only its
        # own pair's two streams: every W_p nulls the other pairs' rows.
        plan, ch, units, processor = full_build(m, n, k, seed=0, improved=improved)
        assert plan.extension == extension
        keys, _, rows, h = dense_links(ch, units, processor, normalized=True)
        coeffs = np.abs(rows @ (processor.forward_matrix / processor.power_scale) @ h)
        pair_of = [(li, frozenset(pair)) for li, pair in keys]
        for i, own in enumerate(pair_of):
            off = [j for j, other in enumerate(pair_of) if other != own]
            assert coeffs[i, off].max() <= LEAKAGE_ABS


def dense_links(ch, units, processor, normalized):
    """Stream keys, beamformers, rows ``v^H G_a`` and images ``H_a u``, from dense channels.

    With ``normalized`` each row and image is scaled by the inverse per-entry
    RMS of its user's dense downlink or uplink matrix.
    """
    def scale(a):
        return np.sqrt(a.size) / np.linalg.norm(a) if normalized else 1.0
    keys = [(li, pair) for li, u in enumerate(units) for pair in u.pairs]
    beams = [u.beamformers[:, i] for u in units for i in range(len(u.pairs))]
    up = [dense(blocks) for blocks in ch.uplink]
    down = [dense(blocks) for blocks in ch.downlink]
    h = np.column_stack([scale(up[a]) * (up[a] @ u) for (_, (a, _)), u in zip(keys, beams)])
    rows = np.array([scale(down[a]) * (processor.receive_vectors[:, i].conj() @ down[a])
                     for i, (_, (a, _)) in enumerate(keys)])
    return keys, beams, rows, h


def dense_chains(ch, units, processor, normalized):
    """Reference chain coefficients through a fully dense relay.

    Each pair's ``P_p`` and ``W_p`` are complement projectors over the other
    streams' images ``H_a u`` and rows ``v^H G_a``, and ``F / alpha`` is the
    sum of the ``W_p P_p``: neither the projector factors nor
    ``processor.forward_matrix`` enter.
    """
    keys, beams, rows, h = dense_links(ch, units, processor, normalized)
    pair_of = [(li, frozenset(pair)) for li, pair in keys]
    relay = 0.0
    for pair in dict.fromkeys(pair_of):
        others = [i for i, q in enumerate(pair_of) if q != pair]
        relay = relay + (complement_projector(rows[others].conj().T)
                         @ complement_projector(h[:, others]))
    partner = [keys.index((li, (b, a))) for li, (a, b) in keys]
    return keys, beams, rows @ relay, h, partner, relay


class TestDenseReference:
    @pytest.mark.parametrize("extension,active", [(1, None), (6, None), (4, 8)])
    def test_normalisation_counts_the_structural_zeros(self, extension, active):
        # The per-entry RMS is that of the dense block-diagonal matrix.
        ch = sample_channel_set(SystemConfig(m=2, n=3, k=3, extension=extension, seed=3))
        if active is not None:
            ch = deactivate_relay_antennas(ch, active)
        for blocks in [*ch.uplink, *ch.downlink]:
            full = dense(blocks)
            want = np.sqrt(full.size) / np.linalg.norm(full)
            if extension == 1:
                assert _entry_rms_scale(blocks) == want
            assert _entry_rms_scale(blocks) == pytest.approx(want, rel=1e-14)


    @pytest.mark.parametrize("m,n,k,improved", [(3, 8, 4, False), (2, 5, 3, False),
                                                (7, 14, 4, True)])
    def test_report_matches_per_stream_chains(self, m, n, k, improved):
        _, ch, units, processor = full_build(m, n, k, seed=33, improved=improved)
        report = verify_end_to_end(ch, units, processor)
        keys, _, chains, h, partner, _ = dense_chains(ch, units, processor, normalized=True)
        coeffs = np.abs(chains @ h)
        assert [(rec.unit, rec.pair) for rec in report.streams] == keys
        for i, rec in enumerate(report.streams):
            assert rec.desired == pytest.approx(coeffs[i, partner[i]], rel=0, abs=1e-12)
            assert rec.partner == pytest.approx(coeffs[i, i], rel=0, abs=1e-12)
            rest = np.delete(coeffs[i], [i, partner[i]])
            assert rec.leakage == pytest.approx(rest.max(), rel=0, abs=1e-12)

    @pytest.mark.parametrize("m,n,k,improved", [(3, 8, 4, False), (2, 5, 3, False)])
    def test_slope_matches_per_stream_rates(self, m, n, k, improved):
        _, ch, units, processor = full_build(m, n, k, seed=34, improved=improved)
        snrs = [40.0, 50.0, 60.0]
        keys, beams, chains, h, partner, base = dense_chains(ch, units, processor,
                                                            normalized=False)
        gain = [sum(np.linalg.norm(u) ** 2 for (_, (a, _)), u in zip(keys, beams) if a == user)
                for user in range(ch.k)]
        rates = []
        for db in snrs:
            power = 10.0 ** (db / 10.0)
            p = power / max(gain)
            alpha_sq = power / (p * np.linalg.norm(base @ h) ** 2 + np.linalg.norm(base) ** 2)
            rate = 0.0
            for i in range(len(keys)):
                c = np.abs(chains[i] @ h) ** 2
                interference = c.sum() - c[i] - c[partner[i]]
                noise = (alpha_sq * np.linalg.norm(chains[i]) ** 2
                         + np.linalg.norm(processor.receive_vectors[:, i]) ** 2)
                rate += np.log2(1 + p * alpha_sq * c[partner[i]]
                                / (noise + p * alpha_sq * interference))
            rates.append(rate / ch.extension)
        want = np.polyfit([np.log2(10.0 ** (db / 10.0)) for db in snrs], rates, 1)[0]
        got = estimate_dof_slope(ch, units, processor, snrs)
        assert got == pytest.approx(want, rel=1e-9)


class TestSlope:
    def test_relay_limited_k3(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=16)
        slope = estimate_dof_slope(ch, units, processor, [40.0, 50.0, 60.0])
        assert slope == pytest.approx(6.0, rel=0.05)

    def test_corrupted_build_slope_drops(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=17)
        units[0].beamformers = units[0].beamformers.copy()
        units[0].beamformers[0, 0] += 1.0
        slope = estimate_dof_slope(ch, units, processor, [40.0, 50.0, 60.0])
        assert slope < 6.0 * 0.95

    def test_bad_sweeps_rejected(self):
        _, ch, units, processor = full_build(2, 3, 3, seed=19)
        with pytest.raises(InvalidSweep):
            estimate_dof_slope(ch, units, processor, [40.0])
        with pytest.raises(InvalidSweep):
            estimate_dof_slope(ch, units, processor, [50.0, 40.0])

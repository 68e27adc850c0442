from dataclasses import replace
from fractions import Fraction as F
from itertools import takewhile

import numpy as np
import pytest

from ssalign import (
    RANDOM,
    LEAKAGE_ABS,
    AlignmentPlan,
    SystemConfig,
    achievable_basic,
    achievable_improved,
    build_relay_processor,
    complex_gaussian,
    construct,
    deactivate_relay_antennas,
    derived_rng,
    execute_plan,
    plan_alignment,
    sample_channel_set,
    verify_end_to_end,
)
from ssalign.errors import (
    AlignmentDegenerate,
    ExtensionOverflow,
    IndependenceViolation,
    InternalPlanError,
    SupplyExhausted,
)
from ssalign import units as units_module
from ssalign.channel import slot_product
from ssalign.linalg import stacked_nullspaces
from ssalign.units import Unit, _aligned_units, _build_units, _raise_first_error

from reference import (
    BUILD_CONFIGS,
    build_aligned_unit,
    build_random_unit,
    complement_projector,
    dense,
    plan_specs,
    reference_units,
    union_span_dim,
)


def channels(m, n, k, extension=1, seed=0, active=None):
    ch = sample_channel_set(SystemConfig(m=m, n=n, k=k, extension=extension, seed=seed))
    if active is not None and active < ch.active_relay:
        ch = deactivate_relay_antennas(ch, active)
    return ch


def unit_vectors(unit):
    return list(unit.equivalent_uplink.T)


def unit_columns(unit):
    """An aligned unit's nullspace column block, ``(t*M*ext, t-1)``, from its beamformers.

    Member ``i``'s segment holds its beamformers toward the first ``t - 1``
    members, but its own column ``i`` holds their signed aggregate, with sign
    +1 when either index is the leader 0, else -1.
    """
    group = unit.group
    t = len(group)
    beam = dict(zip(unit.pairs, unit.beamformers.T))

    def column(i, c):
        if c != i:
            return beam[group[i], group[c]]
        return sum((1.0 if 0 in (i, j) else -1.0) * beam[group[i], group[j]]
                   for j in range(t) if j != i)

    return np.vstack([np.column_stack([column(i, c) for c in range(t - 1)]) for i in range(t)])


class TestAlignedUnit:
    def test_pair_alignment(self):
        # K=3, M=3, N=5: one pair unit; the two equivalent vectors are parallel.
        ch = channels(3, 5, 3, seed=2)
        unit = build_aligned_unit(ch, (0, 1), 0)
        assert unit.pairs == ((0, 1), (1, 0))
        assert union_span_dim(unit_vectors(unit)) == 1
        h01, h10 = unit_vectors(unit)
        cos = abs(np.vdot(h01, h10)) / (np.linalg.norm(h01) * np.linalg.norm(h10))
        assert cos == pytest.approx(1.0, abs=1e-9)

    def test_order3_extended(self):
        # K=3, M=2, N=5 extended twice: 6 streams on 4 dimensions.
        ch = channels(2, 5, 3, extension=2, seed=4)
        unit = build_aligned_unit(ch, (0, 1, 2), 0)
        assert len(unit.pairs) == 6
        assert union_span_dim(unit_vectors(unit)) == 4

    def test_order4(self):
        # K=4, M=3, N=9: group nullity 3 feeds one unit of 12 streams on 9 dims.
        ch = channels(3, 9, 4, seed=5)
        unit = build_aligned_unit(ch, (0, 1, 2, 3), 0)
        assert len(unit.pairs) == 12
        assert union_span_dim(unit_vectors(unit)) == 9

    def test_order4_extended(self):
        # K=4, M=3, N=11 needs three slots for one order-4 unit (nullity 1 each).
        ch = channels(3, 11, 4, extension=3, seed=5)
        unit = build_aligned_unit(ch, (0, 1, 2, 3), 0)
        assert len(unit.pairs) == 12
        assert union_span_dim(unit_vectors(unit)) == 9

    def test_beamformers_satisfy_nullspace_relations(self):
        # Per construction the leader-signed aggregate of each user's
        # beamformers maps to the negated sum of the other users' streams.
        ch = channels(3, 8, 4, extension=2, seed=6)
        unit = build_aligned_unit(ch, (0, 1, 2, 3), 0)
        h = dict(zip(unit.pairs, unit_vectors(unit)))
        group = unit.group
        t = len(group)
        for j_local in range(t - 1):
            total = np.zeros(ch.active_relay, dtype=complex)
            j = group[j_local]
            for m_local, m in enumerate(group):
                if m == j:
                    for i_local, i in enumerate(group):
                        if i == j:
                            continue
                        sign = 1.0 if (j_local == 0 or i_local == 0) else -1.0
                        total += sign * h[(j, i)]
                else:
                    total += h[(m, j)]
            assert np.linalg.norm(total) < 1e-8, f"column relation {j_local} broken"

    def test_column_blocks_disjoint(self):
        ch = channels(3, 4, 3, seed=7)  # nullity 3*3-4 = 5, two pair blocks fit
        u0 = build_aligned_unit(ch, (0, 1), 0, 2)
        u1 = build_aligned_unit(ch, (0, 1), 1, 2)
        assert union_span_dim(unit_vectors(u0) + unit_vectors(u1)) == 2

    def test_full_rank_stack_has_empty_nullspace(self):
        # Four 3-antenna users into 12 relay rows per slot: no nullspace.
        ch = channels(3, 12, 4, extension=2, seed=7)
        (error,) = _aligned_units(ch.uplink[None], ch.seed, [(0, (0, 1, 2, 3), 0, 1)])
        assert isinstance(error, SupplyExhausted)
        assert str(error) == "group (0, 1, 2, 3) nullspace has 0 columns, block 0 needs columns 0..2"
        with pytest.raises(SupplyExhausted):
            build_aligned_unit(ch, (0, 1, 2, 3), 0)

    def test_supply_exhausted(self):
        ch = channels(3, 5, 3, seed=2)  # pair nullity 2*3-5 = 1
        with pytest.raises(SupplyExhausted):
            build_aligned_unit(ch, (0, 1), 1)

    def test_negative_column_block_is_refused(self):
        # A negative block would otherwise index the mixing from its end.
        ch = channels(3, 5, 3, seed=2)
        with pytest.raises(SupplyExhausted, match=r"^column block must be nonnegative, got -1$"):
            build_aligned_unit(ch, (0, 1), -1)


class TestUnitLayout:
    # Random units (extended), pair units, order-3 units with a random fill
    # (extended) and a deactivated corner.
    @pytest.mark.parametrize("m,n,k,improved", [(1, 4, 3, False), (2, 3, 3, False),
                                                (2, 5, 3, False), (7, 14, 4, True)])
    def test_columns_follow_sorted_pairs(self, m, n, k, improved):
        plan = plan_alignment(m, n, k, improved)
        ch = channels(m, n, k, extension=plan.extension, seed=30, active=plan.active_relay)
        for unit in execute_plan(plan, ch):
            assert list(unit.pairs) == sorted(set(unit.pairs))
            assert set(unit.pairs) == {(a, b) for a in unit.group for b in unit.group if a != b}
            assert unit.beamformers.shape == (m * plan.extension, len(unit.pairs))
            assert unit.equivalent_uplink.shape == (ch.active_relay, len(unit.pairs))
            for i, (a, _) in enumerate(unit.pairs):
                assert np.allclose(unit.equivalent_uplink[:, i],
                                   dense(ch.uplink[a]) @ unit.beamformers[:, i], rtol=0, atol=1e-12)

    def test_unsorted_group_gives_sorted_pairs(self):
        ch = channels(2, 5, 3, extension=2, seed=31)
        unit = build_aligned_unit(ch, (2, 0, 1), 0)
        assert unit.group == (2, 0, 1)
        assert list(unit.pairs) == sorted(unit.pairs) and len(set(unit.pairs)) == 6
        for i, (a, _) in enumerate(unit.pairs):
            assert np.allclose(unit.equivalent_uplink[:, i],
                               dense(ch.uplink[a]) @ unit.beamformers[:, i], rtol=0, atol=1e-12)


class TestRandomUnit:
    @pytest.mark.parametrize("m,n,k", [(2, 6, 3), (3, 12, 4)])
    def test_full_span(self, m, n, k):
        ch = channels(m, n, k, seed=8)
        unit = build_random_unit(ch, derived_rng(8, 1))
        assert len(unit.pairs) == k * (k - 1)
        assert union_span_dim(unit_vectors(unit)) == k * (k - 1)

    def test_single_antenna_users_degenerate(self):
        # A 1-antenna user emits all its streams along one relay direction,
        # so the K(K-1)-span postcondition cannot hold.
        ch = channels(1, 6, 3, seed=8)
        with pytest.raises(AlignmentDegenerate):
            build_random_unit(ch, derived_rng(8, 1))

    @pytest.mark.parametrize("m,n,k", [(2, 6, 3), (3, 12, 4), (1, 4, 3)])
    def test_basis_is_the_orthonormal_q_of_the_images(self, m, n, k):
        # A random unit keeps every stream, so its basis is the Q factor of
        # its images: orthonormal, and spanning every image.
        plan = plan_alignment(m, n, k)
        ch = channels(m, n, k, extension=plan.extension, seed=8)
        unit = build_random_unit(ch, derived_rng(8, 1))
        basis, images = unit.basis, unit.equivalent_uplink
        assert basis.shape == (ch.active_relay, k * (k - 1))
        assert np.abs(basis.conj().T @ basis - np.eye(k * (k - 1))).max() <= 1e-12
        assert np.array_equal(basis, np.linalg.qr(images)[0])
        residual = images - basis @ (basis.conj().T @ images)
        assert np.linalg.norm(residual) <= LEAKAGE_ABS * np.linalg.norm(images)

    def test_two_equal_beamformers_span_one_dimension_less(self):
        # User 0 sends to users 1 and 2 along one beamformer, so the six
        # images span five dimensions: the certificate fails and the SVD
        # decides, with the message the span check has always given.
        ch = channels(2, 6, 3, seed=8)
        beams = complex_gaussian(derived_rng(8, 1), 1, 2, 6)
        beams[0, :, 1] = beams[0, :, 0]
        up = np.array([ch.uplink])
        (error,) = units_module._checked_units(up, RANDOM, [0], [(0, 1, 2)], beams, [0])
        assert isinstance(error, AlignmentDegenerate)
        assert str(error) == "random unit on group (0, 1, 2) spans 5 dimensions, expected 6"

    @pytest.mark.parametrize("m,n,k", [(2, 12, 6), (3, 12, 4), (2, 10, 5), (1, 4, 3)])
    def test_random_unit_configs_verify_on_twenty_seeds(self, m, n, k):
        want = achievable_basic(m, n, k).d_sum
        for seed in range(20):
            built = construct(m, n, k, seed)
            assert {u.pattern_order for u in built.units} == {RANDOM}
            report = verify_end_to_end(built.channels, built.units, built.processor)
            assert (report.passed, report.counted_d_sum) == (True, want), seed


class TestPlanner:
    def test_k3_pair_regime_with_fill(self):
        plan = plan_alignment(3, 5, 3)
        assert plan.extension == 2
        assert plan.predicted_d_user == F(3)
        pair_allocs = [a for a in plan.allocations if a.pattern_order == 2]
        fill_allocs = [a for a in plan.allocations if a.pattern_order == 3]
        assert len(pair_allocs) == 3 and all(a.count == 2 for a in pair_allocs)
        assert len(fill_allocs) == 1 and fill_allocs[0].count == 1
        assert plan.dims_used == 10 == plan.active_relay

    def test_k4_corner(self):
        plan = plan_alignment(7, 12, 4)
        assert plan.extension == 1
        assert plan.predicted_d_user == F(6)
        assert len(plan.allocations) == 6
        assert all(a.pattern_order == 2 and a.count == 2 for a in plan.allocations)
        assert plan.dims_used == 12

    def test_k3_order3_with_random_fill(self):
        plan = plan_alignment(2, 5, 3)
        assert plan.extension == 2
        orders = sorted(a.pattern_order for a in plan.allocations)
        assert orders == [RANDOM, 3]
        assert plan.dims_used == 10

    def test_full_multiplexing_uses_random_units(self):
        plan = plan_alignment(1, 4, 3)
        assert plan.extension == 2
        assert [a.pattern_order for a in plan.allocations] == [RANDOM]
        assert plan.allocations[0].count == 1
        assert plan.predicted_d_user == F(1)

    def test_improved_integer_corner_deactivates(self):
        plan = plan_alignment(7, 14, 4, improved=True)
        assert plan.extension == 1
        assert plan.active_relay == 12
        assert plan.predicted_d_user == F(6)
        assert achievable_basic(7, 14, 4).d_user < F(6)

    def test_improved_flat_branch_no_deactivation(self):
        # Ratio 2/5 lies in (3/8, 7/16]: pure order-3 corner plan on full N.
        plan = plan_alignment(2, 5, 4, improved=True)
        assert plan.active_relay == plan.n * plan.extension
        assert all(a.pattern_order == 3 for a in plan.allocations)
        assert plan.predicted_d_user == F(15, 8)

    def test_improved_fractional_corner_rejected(self):
        # N' = 12/7 active antennas has no block-diagonal realization.
        with pytest.raises(ExtensionOverflow):
            plan_alignment(1, 2, 4, improved=True)

    def test_extension_cap_overflow(self):
        # K=6, (3,7): the cap count 7/80 per group needs extension 80 > 64.
        with pytest.raises(ExtensionOverflow):
            plan_alignment(3, 7, 6)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_plan_matches_formula_basic(self, k):
        # K <= 5 always fits the extension cap on this grid; K = 6 regimes
        # with beta > 64 may legitimately overflow (diagnosable by design).
        overflows = 0
        for m in range(1, 7):
            for n in range(1, 13):
                try:
                    plan = plan_alignment(m, n, k)
                except ExtensionOverflow:
                    overflows += 1
                    assert k == 6, (m, n, k)
                    continue
                assert plan.predicted_d_user == achievable_basic(m, n, k).d_user, (m, n, k)
                assert plan.active_relay % plan.extension == 0, (m, n, k)
        if k < 6:
            assert overflows == 0
        else:
            assert overflows < 20

    def test_plan_matches_formula_improved(self):
        # Deactivated corners are only constructible at integer antenna
        # counts, so the improved grid sticks to those plus flat-branch and
        # capacity-range points.
        points = {
            4: [(1, 4), (2, 5), (3, 8), (7, 13), (7, 14), (7, 12), (3, 5), (2, 3),
                (14, 27)],
            5: [(1, 5), (2, 5), (11, 21), (11, 20), (3, 4), (7, 21), (7, 22)],
        }
        for k, grid in points.items():
            for m, n in grid:
                plan = plan_alignment(m, n, k, improved=True)
                assert plan.predicted_d_user == achievable_improved(m, n, k).d_user, (m, n, k)
                assert plan.active_relay % plan.extension == 0, (m, n, k)

    def test_a_planner_fault_is_refused(self, monkeypatch):
        # One more pair unit per group asks (7,12,4) for 18 of its 12 relay
        # dimensions; the planner's own check must refuse the plan.
        original = units_module._plan_pieces

        def padded(*args):
            [(order, per_group)], active = original(*args)
            return [(order, per_group + 1)], active

        monkeypatch.setattr(units_module, "_plan_pieces", padded)
        with pytest.raises(InternalPlanError, match=r"^plan consumes 18 of 12 relay dimensions$"):
            plan_alignment(7, 12, 4)

    def test_a_group_past_its_nullspace_is_refused(self, monkeypatch):
        # Three pair units per group over two slots give (3,5,3) its 3 streams
        # per user on 9 of its 10 relay dimensions, but each pair group's
        # nullspace has only 2 columns: the planner's own check must refuse it.
        monkeypatch.setattr(units_module, "_plan_pieces", lambda *args: ([(2, F(3, 2))], F(5)))
        with pytest.raises(InternalPlanError,
                           match=r"^group \(0, 1\) asks for 3 nullspace columns of 2$"):
            plan_alignment(3, 5, 3)

    def test_budgets_respected(self):
        for k in (3, 4, 5):
            for m in range(1, 6):
                for n in range(1, 11):
                    plan = plan_alignment(m, n, k)
                    assert plan.dims_used <= plan.active_relay
                    for user in range(k):
                        streams = sum(a.count * a.streams_per_member()
                                      for a in plan.allocations if user in a.group)
                        assert streams <= m * plan.extension


class TestExecutePlan:
    def run(self, m, n, k, seed, improved=False):
        plan = plan_alignment(m, n, k, improved)
        ch = channels(m, n, k, extension=plan.extension, seed=seed,
                      active=plan.active_relay)
        return plan, ch, execute_plan(plan, ch)

    def test_k3_relay_limited(self):
        plan, ch, units = self.run(2, 3, 3, seed=11)
        assert len(units) == 3
        assert plan.dims_used == 3
        all_vecs = [v for u in units for v in unit_vectors(u)]
        assert union_span_dim(all_vecs) == 3

    def test_k4_mixed_orders(self):
        plan, ch, units = self.run(3, 8, 4, seed=12)
        assert plan.extension == 2
        assert len(units) == 4
        assert all(u.pattern_order == 3 for u in units)
        all_vecs = [v for u in units for v in unit_vectors(u)]
        assert union_span_dim(all_vecs) == 16

    def test_plan_without_allocations_is_rejected(self):
        # plan_alignment never makes one, so no stage handles an empty unit list.
        plan = AlignmentPlan(m=2, n=3, k=3, improved=False, extension=1,
                             active_relay=3, allocations=(),
                             predicted_d_user=F(0), dims_used=0)
        ch = channels(2, 3, 3, seed=13)
        with pytest.raises(ValueError, match="no allocations"):
            execute_plan(plan, ch)

    def test_requires_matching_channels(self):
        plan = plan_alignment(3, 5, 3)  # extension 2
        ch = channels(3, 5, 3, extension=1, seed=14)
        with pytest.raises(ValueError):
            execute_plan(plan, ch)

    def test_deterministic_given_channels(self):
        # Random units draw from a substream of the channels' own seed.
        plan = plan_alignment(2, 5, 3)
        a = execute_plan(plan, channels(2, 5, 3, extension=plan.extension, seed=15))
        b = execute_plan(plan, channels(2, 5, 3, extension=plan.extension, seed=15))
        assert any(u.pattern_order == RANDOM for u in a)
        for ua, ub in zip(a, b):
            assert ua.pairs == ub.pairs
            assert np.array_equal(ua.beamformers, ub.beamformers)

    @pytest.mark.parametrize("m,n,k", [(2, 3, 3), (3, 5, 3), (2, 5, 3), (1, 4, 3),
                                       (3, 8, 4), (7, 12, 4), (1, 2, 4), (7, 16, 4),
                                       (2, 5, 5), (3, 4, 5)])
    def test_unit_dimension_law_across_seeds(self, m, n, k):
        # Aligned order-t units span (t-1)^2; random units span K(K-1);
        # executed units are globally independent.
        for seed in range(3):
            plan, ch, units = self.run(m, n, k, seed=100 + seed)
            for u in units:
                expected = (k * (k - 1) if u.pattern_order == RANDOM
                            else (u.pattern_order - 1) ** 2)
                assert union_span_dim(unit_vectors(u)) == expected
            all_vecs = [v for u in units for v in unit_vectors(u)]
            assert union_span_dim(all_vecs) == plan.dims_used

    def test_pair_survival_within_units(self):
        _, _, units = self.run(3, 8, 4, seed=21)
        for u in units:
            vecs = dict(zip(u.pairs, unit_vectors(u)))
            for a, b in {tuple(sorted(p)) for p in u.pairs}:
                others = [v for key, v in vecs.items() if key not in ((a, b), (b, a))]
                proj = complement_projector(np.column_stack(others))
                for key in ((a, b), (b, a)):
                    h = vecs[key]
                    assert np.linalg.norm(proj @ h) >= 1e-6 * np.linalg.norm(h)

    def test_improved_corner_execution(self):
        plan, ch, units = self.run(7, 14, 4, seed=22, improved=True)
        assert ch.active_relay == 12
        all_vecs = [v for u in units for v in unit_vectors(u)]
        assert union_span_dim(all_vecs) == 12

    def test_shared_group_nullspace_matches_per_unit_build(self):
        # execute_plan computes each group's nullspace once; every unit must
        # equal the one build_aligned_unit makes on its own.
        plan = plan_alignment(5, 9, 5, improved=True)
        ch = channels(5, 9, 5, extension=plan.extension, seed=0, active=plan.active_relay)
        units = execute_plan(plan, ch)
        assert len(units) == sum(a.count for a in plan.allocations)
        count = {a.group: a.count for a in plan.allocations}
        for unit in units:
            alone = build_aligned_unit(ch, unit.group, unit.column_block, count[unit.group])
            assert unit.pairs == alone.pairs
            assert np.array_equal(unit.beamformers, alone.beamformers)
            assert np.array_equal(unit.equivalent_uplink, alone.equivalent_uplink)

    # Pair units with extension > 1, where the group nullspace is the direct
    # sum of slot-localised per-slot nullspaces: without the seeded mixing,
    # consecutive column blocks repeat relay directions, and at these points
    # the relay's uplink independence check raises IndependenceViolation.
    # (M, N) per K: every such point with N <= 12, on both seeds.
    SLOT_LOCAL = {
        3: [(1, 1), (2, 2), (4, 4), (5, 5), (6, 7), (7, 7), (7, 8), (8, 8), (9, 10), (10, 10),
            (10, 11), (11, 11)],
        4: [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 7), (7, 7), (7, 8), (8, 8), (9, 9),
            (9, 10), (9, 11), (10, 10), (10, 11), (11, 11)],
        5: [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7), (7, 8),
            (8, 8), (8, 9), (9, 9), (9, 11), (10, 11), (10, 12), (11, 11), (11, 12), (12, 12)],
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m,n,k", [(m, n, k) for k, points in SLOT_LOCAL.items()
                                       for m, n in points])
    def test_pair_units_with_extension_span_planned_dims(self, m, n, k, seed):
        plan, ch, units = self.run(m, n, k, seed=seed)
        assert plan.extension > 1
        assert any(u.pattern_order == 2 for u in units)
        assert union_span_dim([u.equivalent_uplink for u in units]) == plan.dims_used


def mirror_of(ch):
    return replace(ch, uplink=ch.downlink.swapaxes(2, 3).conj())


def assert_units_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.pattern_order, g.group, g.pairs, g.column_block) \
            == (w.pattern_order, w.group, w.pairs, w.column_block)
        assert np.allclose(g.beamformers, w.beamformers, rtol=0, atol=1e-12)
        assert np.allclose(g.equivalent_uplink, w.equivalent_uplink, rtol=0, atol=1e-12)
        assert g.basis.shape == w.basis.shape
        assert np.allclose(g.basis @ g.basis.conj().T, w.basis @ w.basis.conj().T,
                           rtol=0, atol=1e-12)


class TestBatchedBuilder:
    # (7, 8, 4) is the pair-unit point of TestExecutePlan.SLOT_LOCAL.
    CONFIGS = BUILD_CONFIGS

    # (4, 9, 5) has 120-wide order-3 groups of which its units use 18 columns.
    @pytest.mark.parametrize("m,n,k,improved,seed",
                             [(*config, seed) for config in CONFIGS for seed in (0, 1, 2)]
                             + [(4, 9, 5, False, 0)])
    def test_units_and_twins_match_one_at_a_time_reference(self, m, n, k, improved, seed):
        built = construct(m, n, k, seed, improved)
        ch = built.channels
        specs = plan_specs(built.plan)
        assert_units_match(built.units, reference_units(ch, specs, derived_rng(seed, 1)))
        twins = [unit.twin for unit in built.units]
        assert_units_match(twins, reference_units(mirror_of(ch), specs, derived_rng(seed, 2)))
        assert np.array_equal(built.processor.receive_vectors,
                              np.hstack([twin.beamformers for twin in twins]))

    # Both links' units come from one pass, which stacks the links' channels;
    # a one-link pass stacks its one link the same way, so the mirrored
    # channel has the same memory layout in both and the twins match exactly.
    @pytest.mark.parametrize("m,n,k,improved", CONFIGS)
    def test_one_pass_equals_a_pass_over_each_link_alone(self, m, n, k, improved):
        built = construct(m, n, k, 0, improved)
        ch = built.channels
        specs = plan_specs(built.plan)
        alone = [_build_units([(link, derived_rng(0, stream))], specs)[0]
                 for link, stream in ((ch, 1), (mirror_of(ch), 2))]
        fused = (built.units, [unit.twin for unit in built.units])
        for got, want in zip(fused, alone, strict=True):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.pairs, g.column_block) == (w.pairs, w.column_block)
                assert np.array_equal(g.beamformers, w.beamformers)
                assert np.array_equal(g.equivalent_uplink, w.equivalent_uplink)
                assert np.array_equal(g.basis, w.basis)

    @staticmethod
    def links_of_unequal_ranks():
        """(3,5,3) at seed 3, on which relay row 2 of slot 1 hears neither user 0 nor user 1.

        The row is zeroed on the downlink alone, so the mirror's slot-1
        stack of group (0,1) has rank 4 of its 5 rows, and every other
        stack, on either link, rank 5.  Gives the plan and both links, each
        with its RNG substream.
        """
        plan = plan_alignment(3, 5, 3)
        ch = channels(3, 5, 3, extension=plan.extension, seed=3)
        downlink = ch.downlink.copy()
        downlink[:2, 1, :, 2] = 0.0
        ch = replace(ch, downlink=downlink)
        return plan, [(ch, 1), (mirror_of(ch), 2)]

    def test_links_of_unequal_ranks_keep_the_planned_width(self, monkeypatch):
        # Both links give group (0,1) its planned two columns, so its third
        # column block is refused on both, and each group draws one mixing.
        plan, links = self.links_of_unequal_ranks()
        specs = plan_specs(plan)
        specs.append((2, (0, 1), 2, 3))
        count = {a.group: a.count for a in plan.allocations}
        keys = []
        derived = units_module.derived_rng
        monkeypatch.setattr(units_module, "derived_rng",
                            lambda seed, *key: keys.append(key) or derived(seed, *key))
        fused = _build_units([(link, derived_rng(3, stream)) for link, stream in links], specs)
        assert sorted(keys) == [(3, 0, 1), (3, 0, 1, 2), (3, 0, 2), (3, 1, 2)]
        for got, (link, stream) in zip(fused, links):
            assert isinstance(got[-1], SupplyExhausted)
            assert str(got[-1]) == ("group (0, 1) nullspace has 2 columns, "
                                    "block 2 needs columns 2..2")
            (alone,) = _build_units([(link, derived_rng(3, stream))], specs)
            assert str(alone[-1]) == str(got[-1])
            for g, w in zip(got[:-1], alone[:-1], strict=True):
                single = build_aligned_unit(link, g.group, g.column_block, count[g.group])
                for want in (w, single):
                    assert np.array_equal(g.beamformers, want.beamformers)
                    assert np.array_equal(g.equivalent_uplink, want.equivalent_uplink)
                    assert np.array_equal(g.basis, want.basis)

    @pytest.mark.parametrize("m,n,k", [(3, 5, 4), (7, 20, 4)])
    def test_each_group_draws_its_mixing_once_for_both_links(self, monkeypatch, m, n, k):
        keys = []
        derived = units_module.derived_rng

        def spy(seed, *key):
            keys.append(key)
            return derived(seed, *key)
        monkeypatch.setattr(units_module, "derived_rng", spy)
        built = construct(m, n, k, 0)
        mixing = [key for key in keys if key[0] == 3]
        groups = {u.group for u in built.units if u.pattern_order != RANDOM}
        assert len(mixing) == len(groups) > 0
        assert set(mixing) == {(3, *group) for group in groups}

    def test_a_failing_twin_raises_after_the_user_stacks(self, monkeypatch):
        # Users 2 and 3 share one downlink: the uplink units build, and the
        # twins of units 2 and 3 fail the span check.  execute_plan raises
        # the first, after the user stacks' check, which raises first when
        # users 1 and 2 send along one direction only.
        built = construct(3, 8, 4, 0)
        downlink = built.channels.downlink.copy()
        downlink[3] = downlink[2]
        ch = replace(built.channels, downlink=downlink)
        specs = plan_specs(built.plan)
        units, twins = _build_units([(ch, derived_rng(0, 1)), (mirror_of(ch), derived_rng(0, 2))],
                                    specs)
        for got, want in zip(units, built.units):
            assert np.array_equal(got.beamformers, want.beamformers)
        assert [isinstance(twin, AlignmentDegenerate) for twin in twins] \
            == [False, False, True, True]
        with pytest.raises(AlignmentDegenerate, match="^downlink twin of unit 2: ") as info:
            execute_plan(built.plan, ch)
        assert str(info.value) == f"downlink twin of unit 2: {twins[2]}"
        assert isinstance(info.value.__cause__, AlignmentDegenerate)
        assert info.value.stage == "downlink"

        def flattened(*args, **kwargs):
            links = _build_units(*args, **kwargs)
            for unit in links[0]:
                for i, (a, _) in enumerate(unit.pairs):
                    if a in (1, 2):
                        unit.beamformers[:, i] = unit.beamformers[:, 0]
            return links

        monkeypatch.setattr(units_module, "_build_units", flattened)
        with pytest.raises(IndependenceViolation, match="^user 1's beamformer stack") as info:
            execute_plan(built.plan, ch)
        assert info.value.stage == "execute"

    def test_units_without_twins_are_refused(self):
        ch = channels(3, 5, 3, seed=2)
        unit = build_aligned_unit(ch, (0, 1), 0)
        assert unit.twin is None
        with pytest.raises(ValueError, match="downlink twin execute_plan builds"):
            build_relay_processor([unit])

    def test_a_stack_that_lost_rank_gives_exact_planned_columns(self):
        # Every group keeps ext (tM - rows) columns on both links, the
        # columns past them are refused, and each unit's columns lie in the
        # nullspace of each of its slot stacks, the one of rank 4 included.
        _, links = self.links_of_unequal_ranks()
        widths = {}
        for link, _ in links:
            ext, rows, m = link.uplink.shape[1:]
            for group in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]:
                t = len(group)
                built = _aligned_units(link.uplink[None], link.seed,
                                       [(0, group, b, 9) for b in range(9)])
                fit = list(takewhile(lambda unit: isinstance(unit, Unit), built))
                width = (t - 1) * len(fit)
                assert width == ext * (t * m - rows)
                assert isinstance(built[len(fit)], SupplyExhausted)
                assert str(built[len(fit)]).startswith(f"group {group} nullspace has {width} ")
                widths.setdefault(group, set()).add(width)
                for unit in fit:
                    columns = unit_columns(unit).reshape(t, ext, m, t - 1)
                    for s in range(ext):
                        stack = np.hstack(link.uplink[list(group), s])
                        residual = stack @ columns[:, s].reshape(t * m, t - 1)
                        assert np.linalg.norm(residual, axis=0).max() <= LEAKAGE_ABS
        assert widths == {(0, 1): {2}, (0, 2): {2}, (1, 2): {2}, (0, 1, 2): {8}}

    @pytest.mark.parametrize("lost_rank", [False, True])
    def test_aligned_nullspaces_are_the_planned_columns_of_stacked_nullspaces(self, lost_rank):
        # The units take Q[:, rows:] of each slot stack's complete QR, with no
        # rank decided: the first (tM - rows) columns that stacked_nullspaces
        # gives, bit for bit, also where a stack has lost rank and that
        # function's rank decision widens its result.
        if lost_rank:
            _, links = self.links_of_unequal_ranks()
            links = [link for link, _ in links]
        else:
            plan = plan_alignment(7, 20, 4)
            ch = channels(7, 20, 4, extension=plan.extension, seed=0)
            links = [ch, mirror_of(ch)]
        up = np.array([link.uplink for link in links], order="C")
        _, k, ext, rows, m = up.shape
        ranks = set()
        for t in (2, 3, 4):
            if t > k or t * m <= rows:
                continue
            groups = [g for g in [(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3)]
                      if len(g) == t and max(g) < k]
            null = units_module._group_nullspaces(up, groups)
            assert null.shape == (len(links), len(groups), ext, t * m, t * m - rows)
            for li, link in enumerate(links):
                for g, group in enumerate(groups):
                    stacks = np.stack([np.hstack(link.uplink[list(group), s]) for s in range(ext)])
                    rank, want = stacked_nullspaces(stacks)
                    ranks.update(rank.tolist())
                    assert np.array_equal(null[li, g], want[..., :t * m - rows])
        assert ranks == ({rows - 1, rows} if lost_rank else {rows})

    def test_mixing_columns_per_group_at_12_23_5(self):
        # Plan only: order 2 mixes all 40 columns of its groups, order 3 the
        # 26 of 520 that its 13 blocks use.
        plan = plan_alignment(12, 23, 5)
        rows = plan.active_relay // plan.extension
        got = {}
        for a in plan.allocations:
            t = a.pattern_order
            width = plan.extension * (t * plan.m - rows)
            got[a.group] = (units_module._mixing_columns(t, a.count, width), width)
        assert len(got) == 20
        assert {c for group, c in got.items() if len(group) == 2} == {(40, 40)}
        assert {c for group, c in got.items() if len(group) == 3} == {(26, 520)}

    def test_mixings_batch_by_their_columns_and_match_the_full_qr(self, monkeypatch):
        # Groups of one batch plan 1, 2 and 3 blocks, and (0, 1, 2) is asked
        # with two counts: each (group, c) takes the Q of its draw's first c
        # columns, one QR per c, equal to the full QR's first c columns to
        # round-off, and each unit equals its build alone bit for bit.
        plan = plan_alignment(7, 20, 4)
        ch = channels(7, 20, 4, extension=plan.extension, seed=5)
        t, width = 3, plan.extension * (3 * 7 - 20)
        requests = [(0, (0, 1, 2), 0, 1), (0, (0, 1, 3), 0, 2), (0, (0, 1, 3), 1, 2),
                    (0, (0, 2, 3), 2, 3), (0, (0, 1, 2), 1, 3), (0, (1, 2, 3), 0, 3)]
        seen = []
        mixings = units_module._mixings

        def spy(seed, keys, width):
            got = mixings(seed, keys, width)
            seen.append((keys, got))
            return got
        monkeypatch.setattr(units_module, "_mixings", spy)
        qr_shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: qr_shapes.append(a.shape)
                            or qr(a, *args, **kw))
        built = _aligned_units(ch.uplink[None], ch.seed, requests)
        monkeypatch.undo()
        [(keys, got)] = seen
        assert keys == [((0, 1, 2), 2), ((0, 1, 3), 4), ((0, 2, 3), 6), ((0, 1, 2), 6),
                        ((1, 2, 3), 6)]
        assert sorted(shape for shape in qr_shapes if len(shape) == 3) == \
            [(1, width, 2), (1, width, 4), (3, width, 6)]
        for (group, c), mixing in zip(keys, got):
            full = np.linalg.qr(complex_gaussian(derived_rng(ch.seed, 3, *group), width, width))[0]
            assert np.allclose(mixing[:, :c], full[:, :c], rtol=0, atol=1e-13)
            assert not mixing[:, c:].any()
        for unit, (_, group, block, count) in zip(built, requests, strict=True):
            alone = build_aligned_unit(ch, group, block, count)
            assert np.array_equal(unit.beamformers, alone.beamformers)
            assert unit.basis.shape == (ch.active_relay, (t - 1) ** 2)
        with pytest.raises(ValueError, match=r"^column block 2 of group \(0, 1, 2\) is past its "
                                             r"2 blocks$"):
            _aligned_units(ch.uplink[None], ch.seed, [(0, (0, 1, 2), 2, 2)])

    @pytest.mark.parametrize("m,n,k,improved", [(4, 9, 5, False), (2, 5, 3, False),
                                                (5, 9, 5, True)])
    def test_images_equal_slot_products_sender_by_sender(self, m, n, k, improved):
        # Units of one (link, group) share its channel blocks: each unit's
        # images, on both links, equal slot_product's of its beamformers, on
        # the C-ordered blocks that the build multiplies (the mirror's are not).
        built = construct(m, n, k, 0, improved)
        ch = built.channels
        for link, units in ((ch, built.units), (mirror_of(ch), [u.twin for u in built.units])):
            blocks = np.ascontiguousarray(link.uplink)
            for unit in units:
                senders = np.array([a for a, _ in unit.pairs])
                images = [slot_product(blocks[a], unit.beamformers[:, senders == a])
                          for a in sorted(unit.group)]
                assert np.array_equal(np.hstack(images), unit.equivalent_uplink)

    def test_first_failing_twin_in_a_shared_batch_names_its_unit(self):
        # Users 2 and 3 share one downlink, so the twins of the units on
        # (0,2,3) and (1,2,3), units 2 and 3 of one batch, span 2 of 4
        # dimensions while units 0 and 1 pass.
        built = construct(3, 8, 4, 0)
        assert [u.group for u in built.units] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        downlink = built.channels.downlink.copy()
        downlink[3] = downlink[2]
        ch = replace(built.channels, downlink=downlink)
        specs = plan_specs(built.plan)
        with pytest.raises(AlignmentDegenerate) as want:
            reference_units(mirror_of(ch), specs, derived_rng(0, 2))
        assert "(0, 2, 3)" in str(want.value)
        with pytest.raises(AlignmentDegenerate) as info:
            build_relay_processor(execute_plan(built.plan, ch))
        assert str(info.value) == f"downlink twin of unit 2: {want.value}"
        assert info.value.stage == "downlink"

    def test_first_failing_spec_raises_its_own_error(self):
        # Spec 1 asks for a column block past the pair nullspace, spec 2 is a
        # random unit that cannot span K(K-1) = 6 dimensions on 3 relay rows.
        ch = channels(2, 3, 3, seed=4)
        specs = [(2, (0, 1), 0, 1), (2, (0, 1), 9, 10), (RANDOM, (0, 1, 2), 0, 1)]
        (built,) = _build_units([(ch, derived_rng(4, 1))], specs)
        with pytest.raises(SupplyExhausted, match=r"^group \(0, 1\) nullspace has 1 columns, "
                                                  r"block 9 needs columns 9\.\.9$"):
            _raise_first_error(built)
        (built,) = _build_units([(ch, derived_rng(4, 1))], specs[::2])
        with pytest.raises(AlignmentDegenerate, match=r"^twin 1: random unit on group "):
            _raise_first_error(built, name="twin")

    def test_user_stacks_checked_in_one_pass_name_the_first_deficient_user(self, monkeypatch):
        # Users 1 and 2 each send along one direction only.
        plan = plan_alignment(3, 12, 4)
        ch = channels(3, 12, 4, extension=plan.extension, seed=5)
        original = _build_units

        def flattened(*args, **kwargs):
            links = original(*args, **kwargs)
            for unit in links[0]:
                for i, (a, _) in enumerate(unit.pairs):
                    if a in (1, 2):
                        unit.beamformers[:, i] = unit.beamformers[:, 0]
            return links

        monkeypatch.setattr("ssalign.units._build_units", flattened)
        with pytest.raises(IndependenceViolation,
                           match=r"^user 1's beamformer stack is column-rank deficient$") as info:
            execute_plan(plan, ch)
        assert info.value.stage == "execute"

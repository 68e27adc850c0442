from fractions import Fraction as F

import numpy as np
import pytest

from ssalign import (
    RANDOM,
    AlignmentPlan,
    SystemConfig,
    achievable_basic,
    achievable_improved,
    build_random_unit,
    deactivate_relay_antennas,
    derived_rng,
    execute_plan,
    plan_alignment,
    sample_channel_set,
    union_span_dim,
)
from ssalign.errors import (
    AlignmentDegenerate,
    ExtensionOverflow,
    IndependenceViolation,
    SupplyExhausted,
)
from ssalign.units import group_nullspace, unit_from_nullspace

from reference import build_aligned_unit, complement_projector, dense


def channels(m, n, k, extension=1, seed=0, active=None):
    ch = sample_channel_set(SystemConfig(m=m, n=n, k=k, extension=extension, seed=seed))
    if active is not None and active < ch.active_relay:
        ch = deactivate_relay_antennas(ch, active)
    return ch


def unit_vectors(unit):
    return list(unit.equivalent_uplink.T)


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
        u0 = build_aligned_unit(ch, (0, 1), 0)
        u1 = build_aligned_unit(ch, (0, 1), 1)
        assert union_span_dim(unit_vectors(u0) + unit_vectors(u1)) == 2

    def test_full_rank_stack_has_empty_nullspace(self):
        # Four 3-antenna users into 12 relay rows per slot: no nullspace.
        ch = channels(3, 12, 4, extension=2, seed=7)
        assert group_nullspace(ch, (0, 1, 2, 3)).shape == (24, 0)
        with pytest.raises(SupplyExhausted):
            build_aligned_unit(ch, (0, 1, 2, 3), 0)

    def test_supply_exhausted(self):
        ch = channels(3, 5, 3, seed=2)  # pair nullity 2*3-5 = 1
        with pytest.raises(SupplyExhausted):
            build_aligned_unit(ch, (0, 1), 1)

    def test_rejects_bad_group(self):
        ch = channels(3, 5, 3, seed=2)
        with pytest.raises(ValueError):
            build_aligned_unit(ch, (0, 0), 0)

    @pytest.mark.parametrize("group", [(0,), (1, 1)])
    def test_unit_from_nullspace_rejects_bad_group(self, group):
        # A caller holding a nullspace basis skips group_nullspace, so the
        # unit builder checks the group itself.
        ch = channels(3, 5, 3, seed=2)
        basis = group_nullspace(ch, (0, 1))
        with pytest.raises(ValueError):
            unit_from_nullspace(ch, group, basis, 0)


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
        for unit in units:
            alone = build_aligned_unit(ch, unit.group, unit.column_block)
            assert unit.pairs == alone.pairs
            assert np.array_equal(unit.beamformers, alone.beamformers)
            assert np.array_equal(unit.equivalent_uplink, alone.equivalent_uplink)

    # Pair units with extension > 1, where the group nullspace is the direct
    # sum of slot-localised per-slot nullspaces: without the seeded mixing,
    # consecutive column blocks repeat relay directions and these points
    # raise IndependenceViolation.  (M, N) per K: every such point with
    # N <= 12, on both seeds.
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

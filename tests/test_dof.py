from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_improvement_branch

from ssalign import (
    DofResult,
    PatternCoefficients,
    achievable_basic,
    achievable_improved,
    alpha_beta,
    asymptotic_dof,
    capacity_thresholds,
    gamma_theta_tau,
    improvement_branch,
    outer_bound_per_user,
    regime_index,
    scaling_check,
)
from ssalign import dof
from ssalign.dof import curve
from ssalign.errors import InvalidPatternOrder


class TestAlphaBeta:
    @pytest.mark.parametrize("k,t,expected", [
        (4, 3, (6, 16)),
        (4, 2, (3, 6)),
        (3, 3, (2, 4)),
        (3, 2, (2, 3)),
        (4, 4, (3, 9)),
        (5, 4, (12, 45)),
    ])
    def test_values(self, k, t, expected):
        assert alpha_beta(k, t) == expected

    def test_closed_forms_at_k_and_k_minus_1(self):
        for k in range(3, 9):
            assert alpha_beta(k, k) == (k - 1, (k - 1) ** 2)
            assert alpha_beta(k, k - 1) == ((k - 1) * (k - 2), k * (k - 2) ** 2)

    @pytest.mark.parametrize("k,t", [(4, 1), (4, 5), (3, 4), (2, 2)])
    def test_out_of_range(self, k, t):
        with pytest.raises(InvalidPatternOrder):
            alpha_beta(k, t)


class TestIntegerArguments:
    @pytest.mark.parametrize("call,error", [(lambda: alpha_beta(4, 5), InvalidPatternOrder),
                                            (lambda: capacity_thresholds(2), ValueError)])
    def test_out_of_range_raises_on_every_call(self, call, error):
        for _ in range(3):
            with pytest.raises(error):
                call()

    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_numpy_arguments_get_plain_values(self, numpy_first):
        # Distinct K per case, so that the first call of each fills the cache.
        k, t = (23, 7) if numpy_first else (29, 5)
        calls = [(np.int64(k), np.int64(t)), (k, t)]
        if not numpy_first:
            calls.reverse()
        results = []
        for kk, tt in calls:
            coef = gamma_theta_tau(1, 1, kk, tt)
            results.append((alpha_beta(kk, tt), capacity_thresholds(kk),
                            (coef.alpha_t, coef.beta_t, coef.theta_t, coef.tau_t)))
        assert results[0] == results[1]
        for (a, b), (lo, hi), (a_t, b_t, theta, tau) in results:
            assert {type(x) for x in (a, b, a_t, b_t)} == {int}
            assert {type(x) for x in (lo, hi, theta, tau)} == {F}
            assert {type(x) for f in (lo, hi, theta, tau)
                    for x in (f.numerator, f.denominator)} == {int}

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 7), (4, 9), (2, 3)])
    def test_numpy_antenna_counts_at_large_k(self, m, n):
        # The binomial constants at K = 640 overflow a numpy int64 product.
        k = 640
        for f in (outer_bound_per_user, achievable_basic, achievable_improved):
            want = f(m, n, k)
            got = f(np.int64(m), np.int64(n), np.int64(k))
            assert got == want
            assert {type(x) for v in (got.d_user, got.d_sum, got.d_relay)
                    for x in (v.numerator, v.denominator)} == {int}
        t = regime_index(m, n)
        got = gamma_theta_tau(np.int64(m), np.int64(n), np.int64(k), np.int64(t))
        assert got == gamma_theta_tau(m, n, k, t)
        assert {type(x) for v in (got.gamma_t1, got.gamma_t2)
                for x in (v.numerator, v.denominator)} == {int}


class TestOuterBound:
    @pytest.mark.parametrize("m,n,k,expected", [
        (2, 3, 3, F(2)),
        (10, 3, 3, F(2)),
        (1, 100, 4, F(1)),
    ])
    def test_values(self, m, n, k, expected):
        res = outer_bound_per_user(m, n, k)
        assert res.d_user == expected
        assert res.d_sum == k * expected
        assert res.d_relay == k * expected / n
        assert res.capacity_tight is False


class TestRegimeIndex:
    @pytest.mark.parametrize("m,n,t", [
        (2, 5, 3),   # 2/5 in (1/3, 1/2]
        (1, 3, 4),   # 1/3 in (1/4, 1/3]
        (5, 5, 2),
        (7, 3, 2),   # M > N clamps to 2
        (1, 2, 3),   # 1/2 in (1/3, 1/2]
    ])
    def test_values(self, m, n, t):
        assert regime_index(m, n) == t

    def test_interval_membership(self):
        for m in range(1, 9):
            for n in range(1, 17):
                t = regime_index(m, n)
                if m < n:
                    assert F(1, t) < F(m, n) <= F(1, t - 1)

    def test_numpy_arguments_get_a_plain_int(self):
        t = regime_index(np.int64(3), np.int64(7))
        assert type(t) is int and t == 3

    @pytest.mark.parametrize("m,n", [(2.5, 7), (3, 7.0)])
    def test_float_arguments_raise(self, m, n):
        with pytest.raises(TypeError):
            regime_index(m, n)


class TestAchievableBasic:
    def test_k3_is_capacity_everywhere(self):
        for m in range(1, 9):
            for n in range(1, 17):
                res = achievable_basic(m, n, 3)
                assert res.d_user == min(F(m), F(2 * n, 3))
                assert res.capacity_tight

    @pytest.mark.parametrize("m,n,expected", [
        (2, 3, F(3, 2)),     # relay-limited branch N/2
        (1, 2, F(3, 4)),     # cap 3N/8 at ratio 1/2
        (3, 8, F(3)),        # breakpoint: M and 3N/8 coincide
        (7, 12, F(6)),       # corner N/2
        (1, 4, F(1)),        # full multiplexing
        (5, 9, F(33, 8)),    # 3M/2 - 3N/8 in (1/2, 7/12]
        (5, 8, F(4)),        # relay-limited N/2 above 7/12
        (2, 5, F(15, 8)),    # cap 3N/8 on (3/8, 1/2]
    ])
    def test_k4_branches(self, m, n, expected):
        assert achievable_basic(m, n, 4).d_user == expected

    def test_k4_capacity_flags(self):
        assert achievable_basic(3, 8, 4).capacity_tight
        assert achievable_basic(1, 4, 4).capacity_tight
        assert achievable_basic(7, 12, 4).capacity_tight
        assert not achievable_basic(1, 2, 4).capacity_tight
        assert not achievable_basic(5, 12, 4).capacity_tight

    def test_clamped_above_one(self):
        for k in (3, 4, 5):
            assert achievable_basic(9, 4, k).d_user == achievable_basic(4, 4, k).d_user

    def test_monotone_in_m(self):
        for k in (3, 4, 5):
            for n in range(1, 13):
                vals = [achievable_basic(m, n, k).d_user for m in range(1, 10)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n_where_it_holds(self):
        # The basic curve is deliberately non-monotone in N for K >= 4 (more
        # relay antennas can push the scheme into a worse alignment regime;
        # that gap is what antenna deactivation recovers).  Monotonicity in N
        # holds for K = 3 and for the improved curve.
        for m in range(1, 9):
            for k in (3, 4, 5):
                vals = [achievable_improved(m, n, k).d_user for n in range(1, 17)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))
            vals = [achievable_basic(m, n, 3).d_user for n in range(1, 17)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        # Witness of the K=4 dip that deactivation repairs.
        assert achievable_basic(7, 13, 4).d_user < achievable_basic(7, 12, 4).d_user
        assert achievable_improved(7, 13, 4).d_user == achievable_basic(7, 12, 4).d_user

    @staticmethod
    def _basic_breakpoints(k):
        points = {F(1, t) for t in range(1, k + 1)}
        points |= {gamma_theta_tau(1, 1, k, t).theta_t for t in range(2, k)}
        return sorted(points)

    def test_piecewise_linear_between_breakpoints(self):
        # d_user/N as a function of the ratio is linear between consecutive
        # breakpoints (interval edges 1/t and interior corners theta_t), so
        # second differences over an arithmetic ratio grid vanish exactly.
        k = 5
        for a, b in zip(self._basic_breakpoints(k), self._basic_breakpoints(k)[1:]):
            step = (b - a) / 40
            grid = [a + i * step for i in range(1, 40)]
            vals = [achievable_basic(r.numerator, r.denominator, k).d_user / r.denominator
                    for r in grid]
            for x, y, z in zip(vals, vals[1:], vals[2:]):
                assert z - y == y - x

    def test_continuous_at_breakpoints(self):
        k = 5
        eps = F(1, 10**12)
        for p in self._basic_breakpoints(k):
            vals = []
            for r in (p - eps, p, p + eps):
                if r <= 0:
                    continue
                vals.append(achievable_basic(r.numerator, r.denominator, k).d_user
                            / r.denominator)
            spread = max(vals) - min(vals)
            assert spread <= 100 * eps  # slopes are small integers


class TestGammaThetaTau:
    def test_k4_t2(self):
        coef = gamma_theta_tau(7, 12, 4, 2)
        assert coef.theta_t == F(7, 12)
        assert coef.tau_t == F(7, 16)
        assert coef.gamma_t1 == coef.gamma_t2 == F(6)

    def test_k4_t3(self):
        coef = gamma_theta_tau(3, 8, 4, 3)
        assert coef.theta_t == F(3, 8)
        assert coef.tau_t is None  # undefined for t = K - 1

    def test_theta_tau_interleave(self):
        for k in range(4, 9):
            for t in range(2, k - 1):
                c_t = gamma_theta_tau(1, 1, k, t)
                c_next = gamma_theta_tau(1, 1, k, t + 1)
                assert c_next.theta_t < c_t.tau_t < c_t.theta_t

    def test_corner_consistency(self):
        # At M/N = theta_t the basic value equals the all-order-t cap.
        for k in range(4, 8):
            for t in range(2, k - 1):
                theta = gamma_theta_tau(1, 1, k, t).theta_t
                m, n = theta.numerator, theta.denominator
                coef = gamma_theta_tau(m, n, k, t)
                assert coef.gamma_t1 == coef.gamma_t2
                assert achievable_basic(m, n, k).d_user == coef.gamma_t2

    def test_out_of_range(self):
        with pytest.raises(InvalidPatternOrder):
            gamma_theta_tau(1, 2, 4, 4)


class TestAchievableImproved:
    def test_k3_equals_basic(self):
        for m in range(1, 7):
            for n in range(1, 13):
                assert achievable_improved(m, n, 3) == achievable_basic(m, n, 3)

    @pytest.mark.parametrize("m,n,expected", [
        (7, 16, F(6)),      # both branches meet at tau_2
        (1, 2, F(6, 7)),    # 6M/7 branch
        (3, 5, F(5, 2)),    # capacity N/2 above 7/12
        (2, 5, F(15, 8)),   # flat 3N/8 on (3/8, 7/16]
        (3, 8, F(3)),       # capacity M at 3/8
    ])
    def test_k4_values(self, m, n, expected):
        assert achievable_improved(m, n, 4).d_user == expected

    def test_never_below_basic_and_bounded(self):
        for k in range(4, 9):
            for m in range(1, 9):
                for n in range(1, 17):
                    basic = achievable_basic(m, n, k)
                    improved = achievable_improved(m, n, k)
                    outer = outer_bound_per_user(m, n, k)
                    assert improved.d_user >= basic.d_user
                    assert improved.d_user <= outer.d_user
                    assert basic.d_user <= outer.d_user

    def test_strict_improvement_interval_k4(self):
        lo, hi = F(7, 16), F(7, 12)
        for num in range(1, 50):
            for den in range(num, 100):
                r = F(num, den)
                if r > 1:
                    continue
                basic = achievable_basic(num, den, 4).d_user
                improved = achievable_improved(num, den, 4).d_user
                if lo < r < hi:
                    assert improved > basic
                else:
                    assert improved == basic

    def test_capacity_ranges_match_thresholds(self):
        for k in range(4, 9):
            lo, hi = capacity_thresholds(k)
            for m in range(1, 9):
                for n in range(1, 17):
                    r = F(m, n)
                    tight = achievable_improved(m, n, k).capacity_tight
                    assert tight == (r <= lo or r >= hi)
                    if r <= lo:
                        assert achievable_improved(m, n, k).d_user == F(m)
                    if r >= hi:
                        assert achievable_improved(m, n, k).d_user == F(2 * n, k)


class TestImprovementBranch:
    def test_matches_coefficient_intervals(self):
        for k in (3, 4, 5, 6):
            lo, hi = capacity_thresholds(k)
            for n in range(1, 25):
                for m in range(1, n + 1):
                    ratio = F(m, n)
                    branch = improvement_branch(m, n, k)
                    assert (branch is None) == (k == 3 or not lo < ratio < hi)
                    if branch is None:
                        assert achievable_improved(m, n, k) == achievable_basic(m, n, k)
                        continue
                    t, deactivate = branch
                    assert 2 <= t <= k - 2
                    coef = gamma_theta_tau(m, n, k, t)
                    assert gamma_theta_tau(m, n, k, t + 1).theta_t < ratio <= coef.theta_t
                    assert deactivate == (ratio > coef.tau_t)

    def test_capacity_thresholds_are_the_outer_corners(self):
        # The curve walker lists theta_t as breakpoints and no threshold apart.
        for k in range(3, 41):
            low, high = capacity_thresholds(k)
            assert (low, high) == (gamma_theta_tau(1, 1, k, k - 1).theta_t,
                                   gamma_theta_tau(1, 1, k, 2).theta_t)

    def test_one_theta_comparison_matches_the_linear_scan(self):
        # Every reduced ratio up to denominator 30, every theta_t and tau_t
        # exactly, and all of them unreduced.
        farey = {F(p, q) for q in range(1, 31) for p in range(1, q + 1)}
        for k in range(3, 41):
            ratios = farey | set(capacity_thresholds(k))
            for t in range(2, k):
                coef = gamma_theta_tau(1, 1, k, t)
                ratios |= {coef.theta_t, coef.tau_t} - {None}
            for r in ratios:
                for s in (1, 3):
                    m, n = s * r.numerator, s * r.denominator
                    assert improvement_branch(m, n, k) == reference_improvement_branch(m, n, k)

    def test_interval_outside_two_to_k_minus_two_raises(self, monkeypatch):
        # A tightness test that lets the capacity range through leaves 1/2's
        # interval at t = 1.
        monkeypatch.setattr(dof, "_tight", lambda m, n, k: False)
        with pytest.raises(AssertionError, match="not covered"):
            improvement_branch(3, 4, 5)


class TestAsymptotic:
    @pytest.mark.parametrize("ratio,improved,expected", [
        (F(2, 5), False, F(3, 2)),
        (F(1, 3), True, F(3, 2)),       # right edge of the t=3 linear branch
        (F(3, 10), True, F(27, 20)),    # 0.3 > 8/27 lies in the linear branch
        (F(2, 7), True, F(4, 3)),       # 2/7 <= 8/27 stays on the flat branch
        (F(3, 4), False, F(2)),
        (F(3, 4), True, F(2)),
        (F(1, 2), False, F(3, 2)),      # 1/2 belongs to (1/3, 1/2]
        (F(1, 2), True, F(2)),
    ])
    def test_values(self, ratio, improved, expected):
        assert asymptotic_dof(ratio, improved) == expected

    def test_basic_discontinuities(self):
        eps = F(1, 10**9)
        for t in range(2, 11):
            at = asymptotic_dof(F(1, t))
            above = asymptotic_dof(F(1, t) + eps)
            assert at == F(t + 1, t)
            assert above == F(t, t - 1)

    def test_envelope(self):
        # 1 + r <= basic curve <= 1/(1 - r) on (0, 1).
        for q in range(2, 30):
            for p in range(1, q):
                r = F(p, q)
                val = asymptotic_dof(r)
                assert 1 + r <= val <= 1 / (1 - r)

    def test_improved_at_least_basic(self):
        for q in range(2, 40):
            for p in range(1, q + 1):
                r = F(p, q)
                assert asymptotic_dof(r, True) >= asymptotic_dof(r, False)
                assert asymptotic_dof(r, True) <= 2


class TestManyUserLimit:
    # Ties the paper's many-user limit to the finite-K closed forms.
    RATIOS = (F(1, 7), F(1, 5), F(2, 9), F(1, 3), F(3, 7), F(4, 9), F(1, 2), F(3, 5),
              F(2, 3))

    @pytest.mark.parametrize("improved", [False, True])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_finite_k_gap_shrinks_as_k_doubles(self, ratio, improved):
        achievable = achievable_improved if improved else achievable_basic
        m, n = ratio.numerator, ratio.denominator
        limit = asymptotic_dof(ratio, improved)
        gaps = [abs(achievable(m, n, k).d_sum / n - limit)
                for k in (10, 20, 40, 80, 160, 320, 640)]
        assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] <= F(1, 10**4)


class TestCurve:
    @pytest.mark.parametrize("mode,f", [("outer", outer_bound_per_user),
                                        ("basic", achievable_basic),
                                        ("improved", achievable_improved)])
    def test_rows_are_the_public_values_in_lowest_terms(self, mode, f):
        # Unreduced and numpy pairs: the value depends on the ratio alone.
        pairs = [(2, 6), (np.int64(3), np.int64(7)), (14, 24), (9, 4)]
        for half_duplex in (False, True):
            rows = list(curve(np.int64(5), mode, pairs, half_duplex))
            assert [row[:2] for row in rows] == [(int(c), int(d)) for c, d in pairs]
            for (c, d, num, den, tight), (m, n) in zip(rows, pairs):
                res = f(m, n, 5)
                want = res.d_user / n / (2 if half_duplex else 1)
                assert {type(x) for x in (c, d, num, den)} == {int}
                assert (num, den) == (want.numerator, want.denominator)
                assert tight is res.capacity_tight

    def test_many_user_limit(self):
        rows = list(curve(None, "improved", [(3, 10), (2, 7), (3, 4)]))
        assert rows == [(3, 10, 27, 20, False), (2, 7, 4, 3, False), (3, 4, 2, 1, False)]

    @pytest.mark.parametrize("k,mode", [(None, "outer"), (2, "basic"), (4, "bogus")])
    def test_bad_arguments_raise_before_any_row(self, k, mode):
        with pytest.raises(ValueError):
            curve(k, mode, [])

    def test_non_positive_ratio_raises(self):
        with pytest.raises(ValueError, match="positive"):
            list(curve(4, "basic", [(1, 2), (0, 3)]))



class TestRecords:
    """``DofResult`` and ``PatternCoefficients`` are immutable named tuples."""

    RESULT = (F(3), F(9), F(9, 5), True)
    COEFFICIENTS = (2, 3, 6, F(21, 8), F(5, 2), F(7, 12), F(7, 16))

    def test_repr_is_the_frozen_dataclass_text(self):
        assert repr(achievable_basic(3, 5, 3)) == (
            "DofResult(d_user=Fraction(3, 1), d_sum=Fraction(9, 1), d_relay=Fraction(9, 5), "
            "capacity_tight=True)")
        assert repr(gamma_theta_tau(3, 5, 4, 2)) == (
            "PatternCoefficients(t=2, alpha_t=3, beta_t=6, gamma_t1=Fraction(21, 8), "
            "gamma_t2=Fraction(5, 2), theta_t=Fraction(7, 12), tau_t=Fraction(7, 16))")

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = DofResult(d_user=F(3), d_sum=F(9), d_relay=F(9, 5), capacity_tight=True)
        assert DofResult(*self.RESULT) == by_keyword == achievable_basic(3, 5, 3)
        assert hash(DofResult(*self.RESULT)) == hash(by_keyword)
        by_keyword = PatternCoefficients(t=2, alpha_t=3, beta_t=6, gamma_t1=F(21, 8),
                                         gamma_t2=F(5, 2), theta_t=F(7, 12), tau_t=F(7, 16))
        assert PatternCoefficients(*self.COEFFICIENTS) == by_keyword == gamma_theta_tau(3, 5, 4, 2)
        assert hash(PatternCoefficients(*self.COEFFICIENTS)) == hash(by_keyword)

    def test_records_unpack_and_compare_as_tuples(self):
        d_user, d_sum, d_relay, tight = achievable_basic(3, 5, 3)
        assert (d_user, d_sum, d_relay, tight) == self.RESULT == achievable_basic(3, 5, 3)
        assert gamma_theta_tau(3, 5, 4, 2) == self.COEFFICIENTS

    @pytest.mark.parametrize("record", [achievable_basic(3, 5, 3), gamma_theta_tau(3, 5, 4, 2)],
                             ids=["DofResult", "PatternCoefficients"])
    def test_no_field_can_be_assigned(self, record):
        for name in [*record._fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_a_repeated_call_gives_the_same_record(self):
        first = gamma_theta_tau(3, 5, 4, 2)
        with pytest.raises(AttributeError):
            first.theta_t = F(0)
        again = gamma_theta_tau(3, 5, 4, 2)
        assert again == first == self.COEFFICIENTS
        assert hash(again) == hash(first)


class TestScaling:
    @pytest.mark.parametrize("m,n,sigma,k", [
        (2, 3, 5, 3),
        (1, 2, 7, 4),
        (3, 8, 1, 4),
    ])
    def test_examples(self, m, n, sigma, k):
        assert scaling_check(m, n, sigma, k)

    def test_numpy_arguments(self):
        assert scaling_check(np.int64(3), np.int64(7), np.int64(4), np.int64(640))

    @pytest.mark.parametrize("args,match", [
        ((2, 3, 0, 4), "scale factor must be positive, got 0"),
        ((0, 3, 2, 4), "antenna counts must be positive, got M=0, N=6"),
        ((2, 3, 2, 2), "user count must be >= 3, got 2"),
    ])
    def test_bad_arguments_raise(self, args, match):
        with pytest.raises(ValueError, match=match):
            scaling_check(*args)

    def test_a_value_that_does_not_scale_is_caught(self, monkeypatch):
        basic = dof._basic
        monkeypatch.setattr(dof, "_basic", lambda m, n, k: (basic(m, n, k)[0] + 1, 1))
        assert not scaling_check(2, 3, 2, 4)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 24), k=st.integers(3, 8),
       sigma=st.integers(1, 9))
def test_scaling_property(m, n, k, sigma):
    assert scaling_check(m, n, sigma, k)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 24), k=st.integers(3, 8))
def test_dof_result_consistency(m, n, k):
    for res in (achievable_basic(m, n, k), achievable_improved(m, n, k),
                outer_bound_per_user(m, n, k)):
        assert res.d_sum == k * res.d_user
        assert res.d_relay == res.d_sum / n
        assert 0 <= res.d_user <= min(F(m), F(2 * n, k))

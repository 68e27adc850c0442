"""The Monte Carlo rank-identity checks, one at a time.

Each check is tested on a small valid case, at the edges of its parameter
domain, and with its rank or intersection helper replaced by one that
misses, so that the failure tally is exercised.
"""

import numpy as np
import pytest

from ssalign import lemmas
from ssalign.errors import InvalidLemmaParams
from ssalign.lemmas import (
    LemmaId,
    check_direct_sum,
    check_intersection,
    check_scaling,
    check_stacked_rank,
)

TRIALS = 4


def assert_all_missed(result, wrong):
    assert result.failures == result.trials
    assert result.failure_trials == list(range(result.trials))
    assert result.observed == {wrong: result.trials}


class TestIntersection:
    @pytest.mark.parametrize("m,n,expected", [(3, 5, 1), (2, 5, 0), (4, 4, 4)])
    def test_valid_cases_pass(self, m, n, expected):
        result = check_intersection(m, n, TRIALS, seed=1)
        assert result.lemma_id is LemmaId.INTERSECTION
        assert result.params == {"m": m, "n": n}
        assert result.expected_value == expected
        assert result.failures == 0 and result.failure_trials == []
        assert result.observed == {expected: TRIALS}

    def test_more_antennas_than_dimensions_rejected(self):
        with pytest.raises(InvalidLemmaParams, match="M <= N"):
            check_intersection(5, 4, TRIALS, seed=1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_empty_or_negative_subspaces_rejected(self, m):
        with pytest.raises(InvalidLemmaParams, match="1 <= M <= N"):
            check_intersection(m, 4, TRIALS, seed=1)

    def test_missed_intersections_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas, "intersection_basis",
                            lambda a, b: np.zeros((a.shape[0], 3)))
        result = check_intersection(3, 5, TRIALS, seed=1)
        assert result.expected_value == 1
        assert_all_missed(result, 3)


class TestStackedRank:
    @pytest.mark.parametrize("k,m,n,expected", [(3, 2, 4, 4), (3, 3, 4, 4), (4, 2, 7, 3)])
    def test_valid_cases_pass(self, k, m, n, expected):
        result = check_stacked_rank(k, m, n, TRIALS, seed=2)
        assert result.lemma_id is LemmaId.STACKED_RANK
        assert result.params == {"k": k, "m": m, "n": n}
        assert result.expected_value == expected
        assert result.failures == 0 and result.failure_trials == []
        assert result.observed == {expected: TRIALS}

    @pytest.mark.parametrize("k,m,n", [
        (3, 5, 4),  # M > N
        (3, 2, 6),  # KM = N: the stacked channels have no nullspace
    ])
    def test_domain_edges_rejected(self, k, m, n):
        with pytest.raises(InvalidLemmaParams, match="M <= N < KM"):
            check_stacked_rank(k, m, n, TRIALS, seed=2)

    def test_missed_ranks_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas, "numerical_rank", lambda a: 99)
        result = check_stacked_rank(3, 2, 4, TRIALS, seed=2)
        assert result.expected_value == 4
        assert_all_missed(result, 99)


class TestDirectSum:
    @pytest.mark.parametrize("k,t,m,n,extension,expected", [
        (3, 3, 2, 5, 1, 2),
        (3, 3, 2, 5, 2, 4),
        (4, 3, 3, 8, 1, 8),
        (3, 2, 3, 4, 1, 4),  # min(J (t-1)(tM-N), N) saturates at N
    ])
    def test_valid_cases_pass(self, k, t, m, n, extension, expected):
        result = check_direct_sum(k, t, m, n, TRIALS, seed=3, extension=extension)
        assert result.lemma_id is LemmaId.DIRECT_SUM
        assert result.params == {"k": k, "t": t, "m": m, "n": n, "extension": extension}
        assert result.expected_value == expected
        assert result.failures == 0 and result.failure_trials == []
        assert result.observed == {expected: TRIALS}

    @pytest.mark.parametrize("k,t,m,n,extension,match", [
        (3, 4, 2, 5, 1, "2 <= t <= K"),
        (3, 1, 2, 5, 1, "2 <= t <= K"),
        (3, 3, 2, 6, 1, "tM > N"),
        (3, 3, 2, 5, 0, "extension >= 1"),
        (3, 3, 2, 5, -1, "extension >= 1"),
    ])
    def test_domain_edges_rejected(self, k, t, m, n, extension, match):
        with pytest.raises(InvalidLemmaParams, match=match):
            check_direct_sum(k, t, m, n, TRIALS, seed=3, extension=extension)

    def test_missed_spans_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas, "union_span_dim", lambda pieces: 0)
        result = check_direct_sum(3, 3, 2, 5, TRIALS, seed=3)
        assert result.expected_value == 2
        assert_all_missed(result, 0)


class TestScaling:
    def test_valid_grid_passes(self):
        grid = [[m, n] for m in range(1, 4) for n in range(1, 6)]
        result = check_scaling(4, grid, [2, 3])
        assert result.lemma_id is LemmaId.SCALING
        assert result.params == {"k": 4, "points": 15, "sigmas": [2, 3]}
        assert result.trials == 30
        assert result.expected_value == 1
        assert result.failures == 0 and result.failure_trials == []
        assert result.observed == {1: 30}

    @pytest.mark.parametrize("k,grid,sigmas,match", [
        (3, [[1, 2]], [0], "scale factor"),
        (2, [[1, 2]], [2], "user count"),
        (3, [[0, 2]], [2], "antenna counts"),
    ])
    def test_domain_edges_rejected(self, k, grid, sigmas, match):
        with pytest.raises(InvalidLemmaParams, match=match):
            check_scaling(k, grid, sigmas)

    def test_missed_scalings_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas.dof, "scaling_check", lambda m, n, sigma, k: False)
        result = check_scaling(3, [[1, 2], [2, 3]], [2, 5])
        assert_all_missed(result, 0)

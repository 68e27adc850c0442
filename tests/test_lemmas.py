"""The Monte Carlo rank-identity checks, one at a time.

Each check is tested on a small valid case, at the edges of its parameter
domain, and with its batched rank step replaced by one that misses, so that
the failure tally is exercised.  The batched checks are compared with the
one-trial-at-a-time references, on the default rows and on batches that mix
degenerate trials with generic ones, and a failing trial is replayed from
its block of the check's draw stream.
"""

from collections import Counter

import numpy as np
import pytest
from reference import (
    dense,
    reference_check_direct_sum,
    reference_check_intersection,
    reference_check_stacked_rank,
    reference_direct_sum_dim,
    reference_intersection_dim,
    reference_stacked_rank,
)

from ssalign import lemmas
from ssalign.channel import complex_gaussian, derived_rng
from ssalign.errors import InvalidLemmaParams
from ssalign.lemmas import (
    DEFAULT_SPEC,
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
        monkeypatch.setattr(lemmas, "_ranks", lambda stack: np.full(len(stack), 3))
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
        (-3, -1, 1),  # M < 1
        (3, 0, 4),
    ])
    def test_domain_edges_rejected(self, k, m, n):
        with pytest.raises(InvalidLemmaParams, match="M <= N < KM"):
            check_stacked_rank(k, m, n, TRIALS, seed=2)

    def test_missed_ranks_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas, "_ranks", lambda stack: np.full(len(stack), 99))
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
        (3, 2, 0, -1, 1, "M >= 1 and N >= 1"),
        (3, 2, 1, 0, 1, "M >= 1 and N >= 1"),
        (3, 3, 2, 5, 0, "extension >= 1"),
        (3, 3, 2, 5, -1, "extension >= 1"),
    ])
    def test_domain_edges_rejected(self, k, t, m, n, extension, match):
        with pytest.raises(InvalidLemmaParams, match=match):
            check_direct_sum(k, t, m, n, TRIALS, seed=3, extension=extension)

    def test_missed_spans_are_tallied(self, monkeypatch):
        monkeypatch.setattr(lemmas, "_ranks", lambda stack: np.zeros(len(stack), dtype=int))
        result = check_direct_sum(3, 3, 2, 5, TRIALS, seed=3)
        assert result.expected_value == 2
        assert_all_missed(result, 0)


MONTE_CARLO_ROWS = [
    (check, reference, row)
    for key, check, reference in [
        ("intersection", check_intersection, reference_check_intersection),
        ("stacked_rank", check_stacked_rank, reference_check_stacked_rank),
        ("direct_sum", check_direct_sum, reference_check_direct_sum),
    ]
    for row in DEFAULT_SPEC[key]
]


def batch_size(monkeypatch, check, row):
    """Trials per batch of ``check`` on a battery row; its extension, if any, goes last."""
    sizes = []
    honest = lemmas._batch_size
    with monkeypatch.context() as patch:
        patch.setattr(lemmas, "_batch_size",
                      lambda entries: sizes.append(honest(entries)) or sizes[-1])
        check(*row[:4], 1, 0, *row[4:])
    return sizes[0]


class TestBatches:
    @pytest.mark.parametrize("check,reference,row", MONTE_CARLO_ROWS,
                             ids=[f"{c.__name__[6:]}-{'-'.join(map(str, r))}"
                                  for c, _, r in MONTE_CARLO_ROWS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_tallies_match_one_trial_at_a_time(self, monkeypatch, check, reference,
                                                       row, seed):
        size = batch_size(monkeypatch, check, row)
        for trials in (0, 1, size, size + 1):
            args = (*row[:4], trials, seed, *row[4:])
            assert check(*args) == reference(*args)

    def test_batch_size_is_bounded_and_at_least_one(self):
        assert lemmas._batch_size(1) == lemmas._BATCH_ENTRIES
        assert lemmas._batch_size(lemmas._BATCH_ENTRIES + 1) == 1

    def test_a_huge_row_runs_one_trial_per_batch(self, monkeypatch):
        draws = []
        honest = lemmas._gaussian_draws
        monkeypatch.setattr(lemmas, "_BATCH_ENTRIES", 1)
        monkeypatch.setattr(lemmas, "_gaussian_draws",
                            lambda stream, trials, shape: draws.append(trials)
                            or honest(stream, trials, shape))
        result = check_stacked_rank(3, 2, 4, 3, seed=2)
        assert draws == [range(0, 1), range(1, 2), range(2, 3)]
        assert result == reference_check_stacked_rank(3, 2, 4, 3, 2)


def repeat_first(draw):
    draw[1] = draw[0]


def zero_first(draw):
    draw[0] = 0


# (check, row, degrade, measure): a way to make a trial's draws degenerate,
# and the one-trial reference measurement of its draws.
DEGRADED = pytest.mark.parametrize("check,row,degrade,measure", [
    (check_intersection, (3, 5), repeat_first,  # b = a
     lambda d: reference_intersection_dim(dense(d[0]), dense(d[1]))),
    (check_stacked_rank, (4, 2, 7), repeat_first,  # a repeated user channel
     lambda d: reference_stacked_rank([dense(blocks) for blocks in d])),
    (check_direct_sum, (4, 3, 3, 8), zero_first,  # a zeroed user block
     lambda d: reference_direct_sum_dim([dense(blocks) for blocks in d], 3)),
    (check_direct_sum, (3, 3, 2, 5, 2), zero_first,
     lambda d: reference_direct_sum_dim([dense(blocks) for blocks in d], 3)),
], ids=["intersection", "stacked_rank", "direct_sum", "direct_sum_extended"])


def degrading(monkeypatch, bad, degrade):
    """Make the draws of the trials in ``bad`` degenerate; returns every trial's draws."""
    honest, seen = lemmas._gaussian_draws, {}

    def draws(stream, batch, shape):
        out = honest(stream, batch, shape)
        for j, trial in enumerate(batch):
            if trial in bad:
                degrade(out[j])
            seen[trial] = out[j].copy()
        return out

    monkeypatch.setattr(lemmas, "_gaussian_draws", draws)
    return seen


class TestMixedRankBatch:
    """Degenerate trials change a nullspace rank inside one batch."""

    @DEGRADED
    def test_degenerate_trials_are_measured_alone(self, monkeypatch, check, row, degrade,
                                                 measure):
        trials, bad = 6, [1, 4]
        splits = []
        honest_split = lemmas._sub_batches

        def split(ranks):
            parts = list(honest_split(ranks))
            splits.append(len(parts))
            return parts

        seen = degrading(monkeypatch, bad, degrade)
        monkeypatch.setattr(lemmas, "_sub_batches", split)
        args = (*row[:4], trials, 5, *row[4:])
        result = check(*args)
        assert splits == [2]  # one batch, split by nullspace rank
        want = [measure(seen[i]) for i in range(trials)]
        assert all(want[i] != result.expected_value for i in bad)
        assert result.failure_trials == bad
        assert result.failures == len(bad)
        assert result.observed == Counter(want)

    @DEGRADED
    def test_a_failing_trial_replays_from_its_block_of_the_stream(self, monkeypatch, check, row,
                                                                 degrade, measure):
        # Trial i of a check with params (K, ext, N, M) and seed draws block i of
        # complex_gaussian(derived_rng(seed), trials, K, ext, N, M).
        # A degenerate trial's value does not depend on its draws, so the replayed
        # draws are also compared with the ones the check measured.
        trials, seed, bad = 6, 5, 4
        seen = degrading(monkeypatch, [bad], degrade)
        result = check(*row[:4], trials, seed, *row[4:])
        assert result.failure_trials == [bad]
        (value,) = set(result.observed) - {result.expected_value}
        params = result.params
        shape = (params.get("k", 2), params.get("extension", 1), params["n"], params["m"])
        replay = complex_gaussian(derived_rng(seed), trials, *shape)[bad]
        degrade(replay)
        assert np.array_equal(replay, seen[bad])
        assert measure(replay) == value


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


class TestTrialCount:
    CHECKS = {
        "intersection": lambda trials: [check_intersection(2, 3, trials, 0)],
        "stacked_rank": lambda trials: [check_stacked_rank(3, 2, 3, trials, 0)],
        "direct_sum": lambda trials: [check_direct_sum(3, 2, 2, 3, trials, 0)],
        "default_battery": lambda trials: lemmas.default_battery(trials, 0),
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_negative_trial_counts_are_rejected_and_zero_is_legal(self, name):
        with pytest.raises(InvalidLemmaParams, match=r"^need trials >= 0, got -3$"):
            self.CHECKS[name](-3)
        for result in self.CHECKS[name](0):
            if result.lemma_id is not LemmaId.SCALING:
                assert (result.trials, result.failures, result.observed) == (0, 0, Counter())

"""Monte Carlo checks of the rank identities behind the alignment scheme.

Each check samples independent complex Gaussian matrices, measures a
subspace dimension numerically, and tallies how often it misses the claimed
value.  The identities hold with probability one, so failures are counted,
never raised; desk-scale acceptance expects zero.  Offending trial indices
are recorded for replay.

The three rank checks are one measurement, the dimension of the group-wise
aligned spans of ``K`` users in groups of ``t``: the intersection is it at
``(K, t) = (2, 2)``, the stacked rank at ``(K, K)`` and the direct sum at
``(K, t)``.  Each check keeps its own domain and closed-form expected value,
so the formulas stay an oracle independent of the measurement.

A check draws from one stream, ``derived_rng(seed)``: each batch of
trials is one :func:`~ssalign.channel.complex_gaussian` call of shape
``(trials in batch, K, ext, N, M)``, the diagonal blocks of each trial's
``K`` block-diagonal matrices, with ``(K, ext) = (2, 1)`` for the
intersection and ``ext = 1`` for the stacked rank.  Trial ``i`` is thus
block ``i`` of the stream whatever the batch size, and a failing trial
replays as ``complex_gaussian(derived_rng(seed), trials, K, ext, N, M)[i]``.

Trials run in batches, and each step of a batch is one stacked call: one
:func:`~ssalign.linalg.stacked_nullspaces` per group (a complete QR when
the group's stack is wide, its ranks certified from the QR factor) and one
values-only SVD per final rank.  Every rank gets the verdict of
:func:`~ssalign.linalg.singular_value_ranks`, the one rank rule.  Trials
whose nullspace ranks differ from the rest of their batch run in a
sub-batch of their own, so each trial is measured as it would be alone.  A
batch holds at most :data:`_BATCH_ENTRIES` matrix entries in its draws,
stacks and singular vectors, unless one trial alone needs more and runs in
a batch of its own, so memory is bounded by that budget or by one trial,
whichever is larger.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from math import comb

import numpy as np

from . import dof
from .channel import complex_gaussian, derived_rng
from .errors import InvalidLemmaParams
from .linalg import singular_value_ranks, stacked_nullspaces

__all__ = [
    "LemmaId",
    "LemmaTrialResult",
    "check_intersection",
    "check_stacked_rank",
    "check_direct_sum",
    "check_scaling",
    "run_battery",
    "default_battery",
]


class LemmaId(str, Enum):
    INTERSECTION = "intersection"
    STACKED_RANK = "stacked_rank"
    DIRECT_SUM = "direct_sum"
    SCALING = "scaling"


@dataclass
class LemmaTrialResult:
    lemma_id: LemmaId
    params: dict
    trials: int
    failures: int
    expected_value: int
    observed: Counter = field(default_factory=Counter)
    failure_trials: list[int] = field(default_factory=list)


def _tally(result: LemmaTrialResult, trials, observed) -> None:
    for trial, value in zip(trials, observed):
        result.observed[value] += 1
        if value != result.expected_value:
            result.failures += 1
            result.failure_trials.append(trial)


# Complex matrix entries a batch of trials may hold at once.
_BATCH_ENTRIES = 1 << 14


def _batches(trials: int, held: int, rows: int, cols: int):
    """Ranges of trials that fit :data:`_BATCH_ENTRIES`, at least one trial each.

    A trial holds ``held`` entries plus one ``rows x cols`` matrix and at
    most its singular vectors while its widest nullspace is taken.
    """
    size = _batch_size(held + rows * cols + rows * rows + cols * cols)
    for start in range(0, trials, size):
        yield range(start, min(start + size, trials))


def _batch_size(entries_per_trial: int) -> int:
    return max(1, _BATCH_ENTRIES // entries_per_trial)


def _gaussian_draws(stream: np.random.Generator, trials: range, shape: tuple) -> np.ndarray:
    """The next ``len(trials)`` trials' matrices of ``shape`` from ``stream``, stacked."""
    return complex_gaussian(stream, len(trials), *shape)


def _hstack(blocks: np.ndarray) -> np.ndarray:
    """Each ``(t, rows, cols)`` stack of blocks of a batch side by side, ``(rows, t * cols)``."""
    b, t, rows, cols = blocks.shape
    return blocks.swapaxes(1, 2).reshape(b, rows, t * cols)


def _ranks(stack: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of a ``(trials, rows, cols)`` stack."""
    if 0 in stack.shape[1:]:
        return np.zeros(len(stack), dtype=int)
    s = np.linalg.svd(stack, compute_uv=False)
    return singular_value_ranks(s, stack.shape[1:])


def _sub_batches(ranks: np.ndarray):
    """Each distinct row of ``(trials, steps)`` nullspace ranks and the trials that have it."""
    rest = np.arange(len(ranks))
    while rest.size:
        row = ranks[rest[0]]
        same = (ranks[rest] == row).all(axis=1)
        yield row.tolist(), rest[same]
        rest = rest[~same]


def _aligned_spans(result: LemmaTrialResult, k: int, t: int, m: int, n: int,
                   extension: int, seed: int) -> LemmaTrialResult:
    """Tally the dimension of the group-wise aligned spans over ``result.trials`` trials.

    Each trial draws ``K`` block-diagonal ``(ext N) x (ext M)`` matrices
    ``A_i``.  For every size-``t`` group, ``U`` is a nullspace basis of
    ``[A_g1 .. A_gt]`` split into per-user row blocks ``U_i``; the measured
    value is the rank of all groups' ``A_i U_i`` side by side.  A negative
    trial count raises :class:`~ssalign.errors.InvalidLemmaParams`.
    """
    if result.trials < 0:
        raise InvalidLemmaParams(f"need trials >= 0, got {result.trials}")
    groups = [list(group) for group in combinations(range(k), t)]
    en, mt = extension * n, extension * m
    stream = derived_rng(seed)
    for batch in _batches(result.trials, k * en * mt, en, t * mt):
        mats = _block_diagonal(_gaussian_draws(stream, batch, (k, extension, n, m)))
        nulls = [stacked_nullspaces(_hstack(mats[:, group])) for group in groups]
        observed = np.empty(len(batch), dtype=int)
        for row, idx in _sub_batches(np.stack([ranks for ranks, _ in nulls], axis=1)):
            pieces = []
            for group, (_, null), rank in zip(groups, nulls, row):
                width = t * mt - rank
                blocks = null[idx, :, :width].reshape(len(idx), t, mt, width)
                pieces.append(_hstack(mats[idx][:, group] @ blocks))
            observed[idx] = _ranks(np.concatenate(pieces, axis=2))
        _tally(result, batch, observed.tolist())
    return result


def check_intersection(m: int, n: int, trials: int, seed: int) -> LemmaTrialResult:
    """Intersection of two random M-dim subspaces of C^N has dim (2M-N)+.

    This is the aligned span at ``K = t = 2``: with ``[U_1; U_2]`` a
    nullspace basis of ``[A_1, A_2]``, ``A_1 U_1 = -A_2 U_2`` spans the
    intersection, so the two pieces side by side have its dimension.
    """
    if not 1 <= m <= n:
        raise InvalidLemmaParams(f"need 1 <= M <= N, got M={m}, N={n}")
    result = LemmaTrialResult(
        LemmaId.INTERSECTION, {"m": m, "n": n}, trials, 0, max(2 * m - n, 0)
    )
    return _aligned_spans(result, 2, 2, m, n, 1, seed)


def check_stacked_rank(k: int, m: int, n: int, trials: int, seed: int) -> LemmaTrialResult:
    """Rank of [A_1 U_1, ..., A_K U_K] is min((K-1)(KM-N), N).

    ``U`` is a nullspace basis of the horizontal stack ``[A_1 .. A_K]``,
    partitioned into per-user row blocks ``U_i``: the aligned span at
    ``t = K``.
    """
    if not 1 <= m <= n < k * m:
        raise InvalidLemmaParams(f"need 1 <= M <= N < KM, got K={k}, M={m}, N={n}")
    expected = min((k - 1) * (k * m - n), n)
    result = LemmaTrialResult(
        LemmaId.STACKED_RANK, {"k": k, "m": m, "n": n}, trials, 0, expected
    )
    return _aligned_spans(result, k, k, m, n, 1, seed)


def check_direct_sum(k: int, t: int, m: int, n: int, trials: int, seed: int,
                     extension: int = 1) -> LemmaTrialResult:
    """Group-wise aligned spans sum to dim min(J(t-1)(tM-N), N), J = C(K, t).

    With ``extension > 1`` the matrices are block-diagonal extended and the
    formula scales by the extension factor on both sides.  They are dense on
    purpose: this check is the independent reference for the slot-wise units.
    """
    if t > k or t < 2:
        raise InvalidLemmaParams(f"need 2 <= t <= K, got t={t}, K={k}")
    if m < 1 or n < 1:
        raise InvalidLemmaParams(f"need M >= 1 and N >= 1, got M={m}, N={n}")
    if t * m <= n:
        raise InvalidLemmaParams(f"need tM > N, got t={t}, M={m}, N={n}")
    if extension < 1:
        raise InvalidLemmaParams(f"need extension >= 1, got {extension}")
    expected = extension * min(comb(k, t) * (t - 1) * (t * m - n), n)
    result = LemmaTrialResult(
        LemmaId.DIRECT_SUM,
        {"k": k, "t": t, "m": m, "n": n, "extension": extension},
        trials, 0, expected,
    )
    return _aligned_spans(result, k, t, m, n, extension, seed)


def _block_diagonal(draws: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrices of ``(trials, k, ext, n, m)`` diagonal blocks."""
    b, k, ext, n, m = draws.shape
    mats = np.zeros((b, k, ext * n, ext * m), dtype=np.complex128)
    for s in range(ext):
        mats[:, :, s * n:(s + 1) * n, s * m:(s + 1) * m] = draws[:, :, s]
    return mats


def check_scaling(k: int, grid, sigmas) -> LemmaTrialResult:
    """Exact check that the achievable DoF scales linearly in (M, N)."""
    points = list(grid)
    scales = list(sigmas)
    _scaling_domain(k, points, scales)
    result = LemmaTrialResult(
        LemmaId.SCALING,
        {"k": k, "points": len(points), "sigmas": scales},
        len(points) * len(scales), 0, 1,
    )
    observed = [1 if dof.scaling_check(m, n, sigma, k) else 0
                for m, n in points for sigma in scales]
    _tally(result, range(len(observed)), observed)
    return result


def _scaling_domain(k: int, points, scales) -> None:
    if k < 3:
        raise InvalidLemmaParams(f"need user count K >= 3, got K={k}")
    for m, n in points:
        if m < 1 or n < 1:
            raise InvalidLemmaParams(f"need positive antenna counts, got M={m}, N={n}")
    if any(sigma < 1 for sigma in scales):
        raise InvalidLemmaParams(f"need scale factors sigma >= 1, got {scales}")


# Built-in battery, in the format :func:`run_battery` reads.
DEFAULT_SPEC = {
    "intersection": [[3, 5], [2, 5], [4, 4]],
    "stacked_rank": [[3, 2, 4], [3, 3, 4], [4, 2, 7]],
    "direct_sum": [[4, 3, 3, 8, 1], [4, 3, 7, 20, 1], [3, 3, 2, 5, 2]],
    "scaling": [
        {"k": k, "grid": [[m, n] for m in range(1, 9) for n in range(1, 17)], "sigmas": [2, 3, 5]}
        for k in (3, 4)
    ],
}


# Allowed row lengths of each row-list key of a battery spec.
_ROW_LENGTHS = {"intersection": (2,), "stacked_rank": (3,), "direct_sum": (4, 5)}
_SCALING_KEYS = {"k", "grid", "sigmas"}


def _ints(row, lengths=None) -> bool:
    """Whether ``row`` is a list of integers, of one of ``lengths`` if given."""
    return (isinstance(row, (list, tuple)) and (lengths is None or len(row) in lengths)
            and all(type(x) is int for x in row))


def _check_spec(spec) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"battery spec must be a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - set(_ROW_LENGTHS) - {"scaling"}
    if unknown:
        raise ValueError(f"unknown battery keys {sorted(unknown)}; expected some of "
                         f"{[*_ROW_LENGTHS, 'scaling']}")
    for key, entries in spec.items():
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"{key!r} must be a list, got {type(entries).__name__}")
    for key, lengths in _ROW_LENGTHS.items():
        for row in spec.get(key, []):
            if not _ints(row, lengths):
                raise ValueError(f"{key!r} rows are {' or '.join(map(str, lengths))} "
                                 f"integers, got {row!r}")
    for block in spec.get("scaling", []):
        if not (isinstance(block, dict) and set(block) == _SCALING_KEYS
                and type(block["k"]) is int and _ints(block["sigmas"])
                and isinstance(block["grid"], (list, tuple))
                and all(_ints(row, (2,)) for row in block["grid"])):
            raise ValueError(f"'scaling' blocks are {{'k': int, 'grid': [[M, N], ...], "
                             f"'sigmas': [int, ...]}}, got {block!r}")
    if not any(spec.values()):
        raise ValueError("battery spec selects no checks")


def run_battery(spec: dict, trials: int, seed: int) -> list[LemmaTrialResult]:
    """Run the checks a battery spec lists, in the ``lemmas --config`` format.

    Keys, each with the domain its check accepts:

    * ``intersection`` rows ``[M, N]``: ``1 <= M <= N``;
    * ``stacked_rank`` rows ``[K, M, N]``: ``1 <= M <= N < KM``;
    * ``direct_sum`` rows ``[K, t, M, N]`` or ``[K, t, M, N, ext]``:
      ``2 <= t <= K``, ``M >= 1``, ``N >= 1``, ``tM > N`` and ``ext >= 1``
      (1 when left out);
    * ``scaling`` blocks ``{"k", "grid", "sigmas"}``: ``K >= 3``, every grid
      point ``[M, N]`` positive and every ``sigma >= 1``.

    Row ``i`` of a list runs on seed ``seed + i``, plus 100 for stacked rank
    and 200 for direct sum.

    Raises ``ValueError`` before any trial runs when the spec has an unknown
    key, a row of the wrong length or type, or selects no check at all, and
    :class:`~ssalign.errors.InvalidLemmaParams` (a ``ValueError`` too) when
    any row lies outside its check's parameter domain, which for the rank
    checks includes ``trials >= 0``.
    """
    _check_spec(spec)
    for block in spec.get("scaling", []):
        _scaling_domain(block["k"], block["grid"], block["sigmas"])
    # A first pass with zero trials checks every other row's domain; the second runs.
    for count in (0, trials):
        results = [check_intersection(m, n, count, seed + i)
                   for i, (m, n) in enumerate(spec.get("intersection", []))]
        results += [check_stacked_rank(k, m, n, count, seed + 100 + i)
                    for i, (k, m, n) in enumerate(spec.get("stacked_rank", []))]
        results += [check_direct_sum(*row[:4], count, seed + 200 + i, *row[4:5])
                    for i, row in enumerate(spec.get("direct_sum", []))]
    results += [check_scaling(block["k"], block["grid"], block["sigmas"])
                for block in spec.get("scaling", [])]
    return results


def default_battery(trials: int, seed: int) -> list[LemmaTrialResult]:
    """Run every check over the built-in grids, :data:`DEFAULT_SPEC`."""
    return run_battery(DEFAULT_SPEC, trials, seed)

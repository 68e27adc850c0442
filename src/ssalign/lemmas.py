"""Monte Carlo checks of the rank identities behind the alignment scheme.

Each check samples independent complex Gaussian matrices, measures a
subspace dimension numerically, and tallies how often it misses the claimed
value.  The identities hold with probability one, so failures are counted,
never raised; desk-scale acceptance expects zero.  Offending trial indices
are recorded for replay.

Trial seeds derive from the master seed via
``numpy.random.SeedSequence(seed).spawn(trials)``; trial ``i`` feeds child
``i`` into a Philox generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from math import comb
from itertools import combinations

import numpy as np

from . import dof
from .channel import complex_gaussian
from .errors import InvalidLemmaParams
from .linalg import intersection_basis, nullspace_basis, numerical_rank, union_span_dim

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


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(trials)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _tally(result: LemmaTrialResult, trial: int, observed: int) -> None:
    result.observed[observed] += 1
    if observed != result.expected_value:
        result.failures += 1
        result.failure_trials.append(trial)


def check_intersection(m: int, n: int, trials: int, seed: int) -> LemmaTrialResult:
    """Intersection of two random M-dim subspaces of C^N has dim (2M-N)+."""
    if not 1 <= m <= n:
        raise InvalidLemmaParams(f"need 1 <= M <= N, got M={m}, N={n}")
    result = LemmaTrialResult(
        LemmaId.INTERSECTION, {"m": m, "n": n}, trials, 0, max(2 * m - n, 0)
    )
    for trial, rng in enumerate(_trial_rngs(seed, trials)):
        a = complex_gaussian(rng, n, m)
        b = complex_gaussian(rng, n, m)
        _tally(result, trial, intersection_basis(a, b).shape[1])
    return result


def check_stacked_rank(k: int, m: int, n: int, trials: int, seed: int) -> LemmaTrialResult:
    """Rank of [A_1 U_1, ..., A_K U_K] is min((K-1)(KM-N), N).

    ``U`` is a nullspace basis of the horizontal stack ``[A_1 .. A_K]``,
    partitioned into per-user row blocks ``U_i``.
    """
    if m > n or k * m <= n:
        raise InvalidLemmaParams(f"need M <= N < KM, got K={k}, M={m}, N={n}")
    expected = min((k - 1) * (k * m - n), n)
    result = LemmaTrialResult(
        LemmaId.STACKED_RANK, {"k": k, "m": m, "n": n}, trials, 0, expected
    )
    for trial, rng in enumerate(_trial_rngs(seed, trials)):
        mats = [complex_gaussian(rng, n, m) for _ in range(k)]
        basis = nullspace_basis(np.hstack(mats))
        pieces = [mats[i] @ basis[i * m:(i + 1) * m, :] for i in range(k)]
        _tally(result, trial, numerical_rank(np.hstack(pieces)))
    return result


def check_direct_sum(k: int, t: int, m: int, n: int, trials: int, seed: int,
                     extension: int = 1) -> LemmaTrialResult:
    """Group-wise aligned spans sum to dim min(J(t-1)(tM-N), N), J = C(K, t).

    With ``extension > 1`` the matrices are block-diagonal extended and the
    formula scales by the extension factor on both sides.  They are dense on
    purpose: this check is the independent reference for the slot-wise units.
    """
    if t > k or t < 2:
        raise InvalidLemmaParams(f"need 2 <= t <= K, got t={t}, K={k}")
    if t * m <= n:
        raise InvalidLemmaParams(f"need tM > N, got t={t}, M={m}, N={n}")
    if extension < 1:
        raise InvalidLemmaParams(f"need extension >= 1, got {extension}")
    j = comb(k, t)
    expected = extension * min(j * (t - 1) * (t * m - n), n)
    result = LemmaTrialResult(
        LemmaId.DIRECT_SUM,
        {"k": k, "t": t, "m": m, "n": n, "extension": extension},
        trials, 0, expected,
    )
    mt = m * extension
    for trial, rng in enumerate(_trial_rngs(seed, trials)):
        mats = []
        for _ in range(k):
            mats.append(np.zeros((extension * n, mt), dtype=np.complex128))
            for s in range(extension):
                mats[-1][s * n:(s + 1) * n, s * m:(s + 1) * m] = complex_gaussian(rng, n, m)
        pieces = []
        for group in combinations(range(k), t):
            basis = nullspace_basis(np.hstack([mats[g] for g in group]))
            pieces.extend(
                mats[g] @ basis[i * mt:(i + 1) * mt, :] for i, g in enumerate(group)
            )
        _tally(result, trial, union_span_dim(pieces))
    return result


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
    trial = 0
    for m, n in points:
        for sigma in scales:
            ok = dof.scaling_check(m, n, sigma, k)
            _tally(result, trial, 1 if ok else 0)
            trial += 1
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

    Keys: ``intersection`` rows ``[M, N]``, ``stacked_rank`` rows ``[K, M, N]``,
    ``direct_sum`` rows ``[K, t, M, N]`` or ``[K, t, M, N, ext]``, ``scaling``
    blocks ``{"k", "grid", "sigmas"}``.  Row ``i`` of a list runs on seed
    ``seed + i``, plus 100 for stacked rank and 200 for direct sum.

    Raises ``ValueError`` before any trial runs when the spec has an unknown
    key, a row of the wrong length or type, or selects no check at all, and
    :class:`~ssalign.errors.InvalidLemmaParams` (a ``ValueError`` too) when
    any row lies outside its check's parameter domain.
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

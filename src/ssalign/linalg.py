"""Dense complex-matrix subspace toolkit.

Everything here is SVD-based and deterministic: identical inputs give
bit-identical outputs, and every dimension decision goes through the same
relative singular-value threshold, :data:`RANK_REL`.  All functions are pure
and safe to call concurrently.

Conventions
-----------
* Matrices are ``numpy`` arrays with ``complex128`` entries; 1-d arrays are
  treated as column vectors.
* Empty matrices (``N x 0``) are legal everywhere and denote the trivial
  subspace.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, ShapeMismatch

__all__ = [
    "RANK_REL",
    "LEAKAGE_ABS",
    "numerical_rank",
    "nullspace_basis",
    "range_basis",
    "intersection_basis",
    "complement_projector",
    "union_span_dim",
]


# A singular value counts toward the rank when it exceeds
# ``RANK_REL * sigma_max * max(rows, cols)``.
RANK_REL = 1e-10

# Absolute ceiling on residual norms: nullspace residuals, projector leakage
# and interference coefficients.
LEAKAGE_ABS = 1e-8


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a finite complex128 matrix (vectors become columns)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InvalidMatrix(f"expected a matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    return arr


def _rank_from_singular_values(s: np.ndarray, shape) -> int:
    if s.size == 0:
        return 0
    thresh = RANK_REL * s[0] * max(shape)
    return int(np.count_nonzero(s > thresh))


def numerical_rank(a) -> int:
    """Rank of ``a``: singular values above ``RANK_REL * sigma_max * max(shape)``."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return _rank_from_singular_values(s, arr.shape)


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``a``.

    Returns a ``cols x (cols - rank)`` matrix whose columns are ordered by
    ascending associated singular value, so repeated calls on identical input
    agree bit for bit.
    """
    arr = as_complex_matrix(a)
    rows, cols = arr.shape
    if cols == 0:
        return np.empty((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(arr, full_matrices=True)
    rank = _rank_from_singular_values(s, arr.shape)
    return vh[rank:][::-1].conj().T


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (``rows x rank``)."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return np.empty((arr.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    rank = _rank_from_singular_values(s, arr.shape)
    return u[:, :rank]


def intersection_basis(a, b) -> np.ndarray:
    """Orthonormal basis of ``span(a) & span(b)``.

    Computed through the nullspace of the horizontal stack ``[a, -b]``: each
    nullspace column ``[x; y]`` satisfies ``a @ x == b @ y``, so ``a @ x``
    lies in the intersection.  The returned dimension equals
    ``rank(a) + rank(b) - rank([a, b])``.
    """
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape[0] != bm.shape[0]:
        raise ShapeMismatch(f"row counts differ: {am.shape[0]} vs {bm.shape[0]}")
    n = am.shape[0]
    if am.shape[1] == 0 or bm.shape[1] == 0:
        return np.empty((n, 0), dtype=np.complex128)
    stacked = np.hstack([am, -bm])
    null = nullspace_basis(stacked)
    candidates = am @ null[: am.shape[1], :]
    return range_basis(candidates)


def complement_projector(b) -> np.ndarray:
    """Orthogonal projector onto the complement of ``span(b)``.

    Hermitian, idempotent within tolerance, and annihilates every column of
    ``b``.  Rank-deficient ``b`` is handled by projecting with an orthonormal
    basis of its span instead of the normal-equation inverse.
    """
    bm = as_complex_matrix(b)
    n = bm.shape[0]
    q = range_basis(bm)
    return np.eye(n, dtype=np.complex128) - q @ q.conj().T


def union_span_dim(bases) -> int:
    """Dimension of the joint span of a collection of bases/vectors."""
    mats = [as_complex_matrix(b) for b in bases]
    if not mats:
        return 0
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ShapeMismatch(f"bases have mixed row counts: {sorted(rows)}")
    return numerical_rank(np.hstack(mats))

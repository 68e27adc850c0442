"""Dense complex-matrix subspace toolkit.

Every rank is decided on singular values, through the same relative
threshold, :data:`RANK_REL`.  Bases come from SVDs, except the nullspaces
of wide matrices (fewer rows than columns), which come from one complete
Householder QR of the conjugate transpose.  Everything is deterministic:
identical inputs give bit-identical outputs.  All functions are pure and
safe to call concurrently.

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
    "singular_value_ranks",
    "stacked_nullspaces",
    "numerical_rank",
    "nullspace_basis",
    "range_basis",
    "intersection_basis",
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


def singular_value_ranks(s: np.ndarray, shape):
    """Rank of a matrix of ``shape``, or of each of a stack, from its singular values.

    ``s`` is ``(..., k)`` with ``k >= 1``, each row in the descending order
    ``svd`` returns; a value counts when it exceeds
    ``RANK_REL * sigma_max * max(shape)``.  Gives an ``int`` for one matrix,
    else an integer array of shape ``s.shape[:-1]``.
    """
    thresh = RANK_REL * s[..., 0] * max(shape)
    if s.ndim == 1:
        return int(np.count_nonzero(s > thresh))
    return np.count_nonzero(s > thresh[..., None], axis=-1)


def numerical_rank(a) -> int:
    """Rank of ``a``: singular values above ``RANK_REL * sigma_max * max(shape)``."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return singular_value_ranks(s, arr.shape)


def stacked_nullspaces(stack: np.ndarray):
    """Rank and right nullspace of each matrix of a ``(..., rows, cols)`` stack.

    ``null`` is ``(..., cols, cols - min rank)``, ordered so that a matrix
    of rank ``r`` keeps ``null[..., :cols - r]``; each matrix's columns
    depend on it alone.  Needs ``rows, cols >= 1``.

    A tall or square stack takes one full SVD: the right singular vectors of
    the widest nullspace in the stack, in ascending singular value order.

    A wide stack (``rows < cols``) takes one complete Householder QR of the
    conjugate transposes, ``A^H = Q R``, so ``A = R_1^H Q_1^H`` with ``R_1 =
    R[:rows]`` square and ``Q_1 = Q[:, :rows]``.  ``R_1`` has the singular
    values of ``A``, and a values-only SVD of it decides each rank with the
    shape of ``A``.  The first ``cols - rows`` columns are ``Q[:, rows:]``,
    the nullspace of a matrix of full row rank.  Only a matrix of lower rank
    takes one more SVD, ``R_1 = U S V^H``; its columns go on with ``Q_1 U``,
    in ascending singular value order.
    """
    rows, cols = stack.shape[-2:]
    if rows >= cols:
        _, s, vh = np.linalg.svd(stack, full_matrices=True)
        ranks = singular_value_ranks(s, (rows, cols))
        return ranks, vh[..., np.min(ranks):, :][..., ::-1, :].conj().swapaxes(-1, -2)
    q, r = np.linalg.qr(stack.conj().swapaxes(-1, -2), mode="complete")
    r = r[..., :rows, :]
    ranks = singular_value_ranks(np.linalg.svd(r, compute_uv=False), (rows, cols))
    low = np.min(ranks)
    if low == rows:
        return ranks, q[..., rows:]
    short = ranks < rows
    null = np.zeros((*q.shape[:-1], cols - low), dtype=np.complex128)
    null[..., :cols - rows] = q[..., rows:]
    u = np.linalg.svd(r[short])[0]
    # Every column of Q_1 U, then the slice, so that no member's bits depend on the others.
    null[short, :, cols - rows:] = (q[short, :, :rows] @ u[..., ::-1])[..., :rows - low]
    return ranks, null


def nullspace_basis(a) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``a``.

    Returns a ``cols x (cols - rank)`` matrix, :func:`stacked_nullspaces`
    on a stack of one, so repeated calls on identical input agree bit for
    bit.
    """
    arr = as_complex_matrix(a)
    rows, cols = arr.shape
    if cols == 0:
        return np.empty((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    return stacked_nullspaces(arr)[1]


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (``rows x rank``)."""
    arr = as_complex_matrix(a)
    if arr.size == 0:
        return np.empty((arr.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    rank = singular_value_ranks(s, arr.shape)
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


def union_span_dim(bases) -> int:
    """Dimension of the joint span of a collection of bases/vectors."""
    mats = [as_complex_matrix(b) for b in bases]
    if not mats:
        return 0
    rows = {m.shape[0] for m in mats}
    if len(rows) != 1:
        raise ShapeMismatch(f"bases have mixed row counts: {sorted(rows)}")
    return numerical_rank(np.hstack(mats))

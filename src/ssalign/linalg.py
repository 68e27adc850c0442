"""The rank rule and the stacked nullspaces every construction stage shares.

Every rank is decided on singular values, through the same relative
threshold, :data:`RANK_REL`.  A matrix that the construction needs of full
rank is first offered to the certificate of :func:`uncertified`, which
reads full rank off the square factor of a QR the caller already has; only
a matrix the certificate fails takes an SVD, one per matrix.  Nullspaces come
from one SVD per matrix, except those of wide matrices (fewer rows than
columns), which come from one complete Householder QR of the conjugate
transpose.  Everything is deterministic: identical inputs give bit-identical
outputs.  Matrices are ``numpy`` arrays with ``complex128`` entries, stacked
along leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RANK_REL",
    "LEAKAGE_ABS",
    "CERTIFICATE_MARGIN",
    "singular_value_ranks",
    "uncertified",
    "certified_ranks",
    "stacked_nullspaces",
]


# A singular value counts toward the rank when it exceeds
# ``RANK_REL * sigma_max * max(rows, cols)``.
RANK_REL = 1e-10

# Absolute ceiling on residual norms: nullspace residuals, projector leakage
# and interference coefficients.
LEAKAGE_ABS = 1e-8

# A square factor ``R`` is certified of full rank, with no SVD, when
# ``||R||_F * ||R^-1||_F * RANK_REL * max(shape)`` is below this margin.
CERTIFICATE_MARGIN = 0.5


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


def uncertified(r: np.ndarray, shape, inverse_norms=None) -> np.ndarray:
    """Which matrices of ``shape`` the full-rank certificate does not clear, ``r`` their ``R``.

    ``r`` is ``(..., n, n)``, each matrix's square QR factor, and ``n`` the
    full rank the caller needs; the result is a boolean array of shape
    ``r.shape[:-2]``.  Each matrix has the singular values of its ``R``.  As
    ``sigma_min(R) >= 1/||R^-1||_F`` and ``sigma_max(R) <= ||R||_F`` (Golub &
    Van Loan, *Matrix Computations*, section 2.3), a member with
    ``||R||_F * ||R^-1||_F * RANK_REL * max(shape)`` below
    :data:`CERTIFICATE_MARGIN` has every singular value at least twice the
    :func:`singular_value_ranks` cutoff, far beyond the round-off of the
    norms or of an SVD: its rank is ``n``.  A non-finite bound fails.
    ``inverse_norms`` gives each ``||R^-1||_F``, and the matrices themselves,
    of the same Frobenius norms, may then stand in for ``r``; else one batched
    inverse does, and if it raises (a singular or non-square ``R``), every
    member fails.  A member that fails takes one SVD of its ``R`` or of
    itself, whose values decide its rank under :func:`singular_value_ranks`.
    """
    try:
        # An overflowing or 0 * inf bound is non-finite, and fails below.
        with np.errstate(over="ignore", invalid="ignore"):
            if inverse_norms is None:
                inverse_norms = np.linalg.norm(np.linalg.inv(r), axis=(-2, -1))
            bound = np.linalg.norm(r, axis=(-2, -1)) * inverse_norms * (RANK_REL * max(shape))
        return ~(bound < CERTIFICATE_MARGIN)
    except np.linalg.LinAlgError:
        return np.ones(r.shape[:-2], dtype=bool)


def certified_ranks(r: np.ndarray, shape) -> np.ndarray:
    """Rank of each matrix of ``shape`` from its square QR factor, ``r`` as ``(..., n, n)``.

    ``n`` for each member :func:`uncertified` clears; the rest take a
    values-only SVD of their ``R`` and :func:`singular_value_ranks`, so each
    gets that rule's verdict.
    """
    rest = uncertified(r, shape)
    ranks = np.full(r.shape[:-2], r.shape[-1])
    if rest.any():
        ranks[rest] = singular_value_ranks(np.linalg.svd(r[rest], compute_uv=False), shape)
    return ranks


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
    values of ``A``, and each rank is decided from it with the shape of
    ``A``: ``rows`` where :func:`uncertified` clears it, else from one full
    SVD ``R_1 = U S V^H`` under :func:`singular_value_ranks`.  The first
    ``cols - rows`` columns are ``Q[:, rows:]``, the nullspace of a matrix
    of full row rank; a matrix of lower rank goes on with the columns of
    ``Q_1 U`` from that same SVD, in ascending singular value order.
    """
    rows, cols = stack.shape[-2:]
    if rows >= cols:
        _, s, vh = np.linalg.svd(stack, full_matrices=True)
        ranks = singular_value_ranks(s, (rows, cols))
        return ranks, vh[..., np.min(ranks):, :][..., ::-1, :].conj().swapaxes(-1, -2)
    q, r = np.linalg.qr(stack.conj().swapaxes(-1, -2), mode="complete")
    r = r[..., :rows, :]
    rest = uncertified(r, (rows, cols))
    ranks = np.full(r.shape[:-2], rows)
    if rest.any():
        u, s, _ = np.linalg.svd(r[rest])
        ranks[rest] = singular_value_ranks(s, (rows, cols))
    low = np.min(ranks)
    if low == rows:
        return ranks, q[..., rows:]
    short = ranks < rows
    null = np.zeros((*q.shape[:-1], cols - low), dtype=np.complex128)
    null[..., :cols - rows] = q[..., rows:]
    u = u[ranks[rest] < rows]
    # Every column of Q_1 U, then the slice, so that no member's bits depend on the others.
    null[short, :, cols - rows:] = (q[short, :, :rows] @ u[..., ::-1])[..., :rows - low]
    return ranks, null

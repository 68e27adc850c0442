"""The rank rule and the stacked nullspaces every construction stage shares.

Every rank is decided on singular values, through the same relative
threshold, :data:`RANK_REL`.  Nullspaces come from one SVD per matrix,
except those of wide matrices (fewer rows than columns), which come from
one complete Householder QR of the conjugate transpose.  Everything is
deterministic: identical inputs give bit-identical outputs.  Matrices are
``numpy`` arrays with ``complex128`` entries, stacked along leading axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RANK_REL",
    "LEAKAGE_ABS",
    "singular_value_ranks",
    "stacked_nullspaces",
]


# A singular value counts toward the rank when it exceeds
# ``RANK_REL * sigma_max * max(rows, cols)``.
RANK_REL = 1e-10

# Absolute ceiling on residual norms: nullspace residuals, projector leakage
# and interference coefficients.
LEAKAGE_ABS = 1e-8


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

"""Dense references the tests check the library against.

The library never builds these: it stores channels as per-slot blocks and
the relay projectors as low-rank factors.  The tests materialise both to
compare with straightforward dense linear algebra.
"""

import numpy as np
from scipy.linalg import block_diag

from ssalign.linalg import as_complex_matrix, range_basis
from ssalign.units import group_nullspace, unit_from_nullspace


def dense(blocks):
    """The block-diagonal matrix of one user's per-slot channel blocks."""
    return block_diag(*blocks)


def complement_projector(b):
    """Orthogonal projector onto the complement of ``span(b)``.

    Rank-deficient ``b`` is handled by projecting with an orthonormal basis
    of its span instead of the normal-equation inverse.
    """
    bm = as_complex_matrix(b)
    q = range_basis(bm)
    return np.eye(bm.shape[0], dtype=np.complex128) - q @ q.conj().T


def projector(basis, factor):
    """Dense projector ``I - Q Q^H + Z Z^H`` of one pair from its factors."""
    n = basis.shape[0]
    return np.eye(n, dtype=np.complex128) - basis @ basis.conj().T + factor @ factor.conj().T


def build_aligned_unit(ch, group, column_block):
    """Order-``t`` aligned unit from one block of a freshly computed group nullspace."""
    return unit_from_nullspace(ch, group, group_nullspace(ch, group), column_block)

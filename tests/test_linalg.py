import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssalign import (
    LEAKAGE_ABS,
    RANK_REL,
    SystemConfig,
    sample_channel_set,
)
from ssalign.channel import complex_gaussian
from ssalign.errors import ShapeMismatch
from ssalign.linalg import singular_value_ranks, stacked_nullspaces

from reference import (
    InvalidMatrix,
    complement_projector,
    dense,
    intersection_basis,
    nullspace_basis,
    numerical_rank,
    reference_nullspace,
    union_span_dim,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestTolerance:
    def test_defaults(self):
        # Every rank and leakage decision uses these two fixed thresholds.
        assert RANK_REL == 1e-10
        assert LEAKAGE_ABS == 1e-8


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_random_tall_full_rank(self, rng):
        assert numerical_rank(complex_gaussian(rng, 5, 3)) == 3

    def test_forced_dependence(self, rng):
        col = complex_gaussian(rng, 3, 1)
        assert numerical_rank(np.hstack([col, 2 * col])) == 1

    def test_empty_is_rank_zero(self):
        assert numerical_rank(np.empty((4, 0))) == 0

    def test_stacked_ranks_match_each_matrix(self, rng):
        # A (2, 3) stack of 4 x 6 matrices with ranks 0..4: the stacked rule
        # decides each one as numerical_rank does alone.
        stack = np.array([complex_gaussian(rng, 4, rank) @ complex_gaussian(rng, rank, 6)
                          for rank in (0, 1, 2, 3, 4, 2)]).reshape(2, 3, 4, 6)
        ranks = singular_value_ranks(np.linalg.svd(stack, compute_uv=False), (4, 6))
        assert ranks.tolist() == [[numerical_rank(m) for m in row] for row in stack]
        assert ranks.tolist() == [[0, 1, 2], [3, 4, 2]]

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestNullspaceBasis:
    def test_identity_trivial(self):
        basis = nullspace_basis(np.eye(3))
        assert basis.shape == (3, 0)

    def test_stacked_nullspaces_match_each_matrix(self, rng):
        # A (2, 2) stack of 4 x 6 matrices with ranks 2, 4, 1 and 3: each
        # keeps the first 6 - rank of the 5 columns, its basis alone.
        stack = np.array([complex_gaussian(rng, 4, rank) @ complex_gaussian(rng, rank, 6)
                          for rank in (2, 4, 1, 3)]).reshape(2, 2, 4, 6)
        ranks, null = stacked_nullspaces(stack)
        assert ranks.tolist() == [[2, 4], [1, 3]]
        assert null.shape == (2, 2, 6, 5)
        for i, j in np.ndindex(2, 2):
            assert np.array_equal(null[i, j, :, :6 - ranks[i, j]], nullspace_basis(stack[i, j]))

    def test_full_row_rank_residual(self, rng):
        a = complex_gaussian(rng, 5, 6)
        basis = nullspace_basis(a)
        assert basis.shape == (6, 1)
        assert np.linalg.norm(a @ basis) <= LEAKAGE_ABS * np.linalg.norm(a)
        assert np.allclose(basis.conj().T @ basis, np.eye(1))

    def test_extended_three_user_stack(self):
        # M=2, N=5, K=3 extended by 2: 10x12 stack must have nullity 3M'-N' = 2.
        ch = sample_channel_set(SystemConfig(m=2, n=5, k=3, extension=2, seed=17))
        stack = np.hstack([dense(blocks) for blocks in ch.uplink])
        basis = nullspace_basis(stack)
        assert basis.shape == (12, 2)
        assert np.linalg.norm(stack @ basis) <= LEAKAGE_ABS * np.linalg.norm(stack)

    def test_zero_rows_gives_full_space(self):
        assert nullspace_basis(np.empty((0, 4))).shape == (4, 4)

    def test_deterministic(self, rng):
        a = complex_gaussian(rng, 4, 6)
        first = nullspace_basis(a)
        second = nullspace_basis(a.copy())
        assert np.array_equal(first, second)


class TestStackedNullspacePaths:
    """Wide stacks take one complete QR, tall and square ones one full SVD."""

    @pytest.mark.parametrize("rows,cols,ranks", [
        (4, 7, (4, 4, 3, 4, 0, 2)),  # wide, full row rank mixed with deficient
        (4, 7, (4, 4, 4, 4, 4, 4)),  # wide, every member of full row rank
        (7, 4, (4, 2, 3, 0, 4, 1)),  # tall
        (5, 5, (5, 3, 5, 4, 0, 2)),  # square
    ], ids=["wide-mixed", "wide-full", "tall", "square"])
    def test_each_member_matches_the_reference_and_itself_alone(self, rng, rows, cols, ranks):
        stack = np.array([complex_gaussian(rng, rows, rank) @ complex_gaussian(rng, rank, cols)
                          for rank in ranks]).reshape(2, 3, rows, cols)
        got_ranks, null = stacked_nullspaces(stack)
        assert got_ranks.tolist() == np.reshape(ranks, (2, 3)).tolist()
        assert null.shape == (2, 3, cols, cols - min(ranks))
        for idx in np.ndindex(2, 3):
            a, rank = stack[idx], got_ranks[idx]
            assert rank == numerical_rank(a)
            basis = null[idx][:, :cols - rank]
            assert np.abs(basis.conj().T @ basis - np.eye(cols - rank)).max(initial=0) <= 1e-12
            assert np.linalg.norm(a @ basis) <= LEAKAGE_ABS * np.linalg.norm(a)
            ref = reference_nullspace(a)
            assert np.abs(basis @ basis.conj().T - ref @ ref.conj().T).max() <= 1e-12
            alone_rank, alone = stacked_nullspaces(a)
            assert alone_rank == rank
            assert np.array_equal(alone[:, :cols - rank], basis)


def wide_with_singular_values(rng, values, cols=4):
    """A ``len(values) x cols`` matrix with exactly these singular values, up to round-off."""
    u = np.linalg.qr(complex_gaussian(rng, len(values), len(values)))[0]
    v = np.linalg.qr(complex_gaussian(rng, cols, len(values)))[0]
    return (u * np.asarray(values)) @ v.conj().T


def svd_calls(monkeypatch):
    """The shape of every array an SVD runs on from now on, stack axes included."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


class TestFullRankCertificate:
    """A wide stack's ranks come from its QR factor, with an SVD only where that fails."""

    # A 2 x 4 matrix with singular values 1 and ``scale`` against the cutoff
    # RANK_REL * 4 = 4e-10.  The certificate ||R|| ||R^-1|| RANK_REL * 4 is
    # about 4e-10 / scale: 4e-7 clears the 1/2 margin, 0.91 and 1.11 do not,
    # so the SVD decides them, one just above the cutoff and one just below.
    # That one SVD also gives a member of lower rank its nullspace.
    @pytest.mark.parametrize("scale,rank", [(1e-3, 2), (4.4e-10, 2), (3.6e-10, 1)])
    def test_scaled_value_gets_the_svd_rules_verdict(self, monkeypatch, scale, rank):
        stack = wide_with_singular_values(_rng(0), [1.0, scale])[None]
        assert numerical_rank(stack[0]) == rank
        calls = svd_calls(monkeypatch)
        ranks, null = stacked_nullspaces(stack)
        assert ranks.tolist() == [rank]
        assert calls == ([] if scale == 1e-3 else [(1, 2, 2)])
        basis = null[0, :, :4 - rank]
        assert np.linalg.norm(stack[0] @ basis) <= LEAKAGE_ABS

    def test_exactly_singular_member_sends_its_batch_to_the_svd(self, monkeypatch):
        # Rows e_0 and e_0: Householder leaves e_0 as it is, so that
        # member's R is exactly [[1, 1], [0, 0]] and the batched inverse raises.
        singular = np.eye(4, dtype=np.complex128)[[0, 0]]
        generic = complex_gaussian(_rng(1), 2, 4)
        r = np.linalg.qr(singular.conj().T)[1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(r)
        calls = svd_calls(monkeypatch)
        ranks, null = stacked_nullspaces(np.stack([singular, generic]))
        assert ranks.tolist() == [1, 2]
        assert calls == [(2, 2, 2)]
        for a, rank, basis in zip((singular, generic), ranks, null):
            assert np.linalg.norm(a @ basis[:, :4 - rank]) <= LEAKAGE_ABS

    def test_mixed_batch_only_the_uncertified_reach_the_svd(self, monkeypatch):
        rng = _rng(2)
        members = [wide_with_singular_values(rng, values) for values in
                   ([1.0, 0.5], [1.0, 1e-3], [1.0, 4.4e-10], [1.0, 3.6e-10], [2.0, 1.0])]
        members.append(complex_gaussian(rng, 2, 1) @ complex_gaussian(rng, 1, 4))
        stack = np.stack(members).reshape(2, 3, 2, 4)
        calls = svd_calls(monkeypatch)
        ranks, null = stacked_nullspaces(stack)
        monkeypatch.undo()
        assert ranks.tolist() == [[numerical_rank(a) for a in row] for row in stack]
        assert ranks.tolist() == [[2, 2, 2], [1, 2, 1]]
        # Members 2, 3 and 5 miss the certificate; their one SVD gives 3 and 5 their nullspaces.
        assert calls == [(3, 2, 2)]
        for idx in np.ndindex(2, 3):
            basis = null[idx][:, :4 - ranks[idx]]
            assert np.linalg.norm(stack[idx] @ basis) <= LEAKAGE_ABS
            assert np.abs(basis.conj().T @ basis - np.eye(4 - ranks[idx])).max() <= 1e-12


class TestIntersectionBasis:
    def test_identical_spans(self, rng):
        a = complex_gaussian(rng, 5, 2)
        assert intersection_basis(a, a).shape == (5, 2)

    def test_generic_three_dim_pair(self, rng):
        a = complex_gaussian(rng, 5, 3)
        b = complex_gaussian(rng, 5, 3)
        basis = intersection_basis(a, b)
        assert basis.shape[1] == 1  # (2*3 - 5)^+ = 1
        # The intersection vector lies in both spans.
        for mat in (a, b):
            proj = mat @ np.linalg.lstsq(mat, basis, rcond=None)[0]
            assert np.linalg.norm(proj - basis) < 1e-8

    def test_generic_empty_intersection(self, rng):
        a = complex_gaussian(rng, 5, 2)
        b = complex_gaussian(rng, 5, 2)
        assert intersection_basis(a, b).shape == (5, 0)

    def test_row_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            intersection_basis(complex_gaussian(rng, 4, 2), complex_gaussian(rng, 5, 2))

    def test_dimension_symmetric(self, rng):
        for _ in range(10):
            a = complex_gaussian(rng, 6, 3)
            b = complex_gaussian(rng, 6, 4)
            assert intersection_basis(a, b).shape[1] == intersection_basis(b, a).shape[1]


class TestComplementProjector:
    def test_empty_gives_identity(self):
        assert np.array_equal(complement_projector(np.empty((4, 0))), np.eye(4))

    def test_random_tall(self, rng):
        b = complex_gaussian(rng, 5, 4)
        p = complement_projector(b)
        assert numerical_rank(p) == 1
        assert np.linalg.norm(p @ b) <= LEAKAGE_ABS * np.linalg.norm(b)

    def test_axis_aligned(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(complement_projector(e1), np.diag([0.0, 1.0, 1.0]))

    def test_idempotent_and_hermitian(self, rng):
        for cols in (1, 3, 5, 7):
            p = complement_projector(complex_gaussian(rng, 6, cols))
            assert np.linalg.norm(p @ p - p) <= 10 * LEAKAGE_ABS
            assert np.linalg.norm(p - p.conj().T) <= 10 * LEAKAGE_ABS

    def test_rank_deficient_input(self, rng):
        col = complex_gaussian(rng, 5, 1)
        p = complement_projector(np.hstack([col, col, 3 * col]))
        assert numerical_rank(p) == 4
        assert np.linalg.norm(p @ col) <= LEAKAGE_ABS


class TestUnionSpanDim:
    def test_orthogonal_planes(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        assert union_span_dim([a, b]) == 4

    def test_repeated_basis(self, rng):
        a = complex_gaussian(rng, 5, 2)
        assert union_span_dim([a, a]) == 2

    def test_vectors_accepted(self, rng):
        vecs = [complex_gaussian(rng, 6, 1).ravel() for _ in range(3)]
        assert union_span_dim(vecs) == 3

    def test_empty_list(self):
        assert union_span_dim([]) == 0

    def test_mixed_rows_rejected(self, rng):
        with pytest.raises(ShapeMismatch):
            union_span_dim([complex_gaussian(rng, 4, 1), complex_gaussian(rng, 5, 1)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 7), cols=st.integers(1, 7))
def test_rank_nullity(seed, rows, cols):
    a = complex_gaussian(_rng(seed), rows, cols)
    assert numerical_rank(a) + nullspace_basis(a).shape[1] == cols


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       ca=st.integers(1, 5), cb=st.integers(1, 5))
def test_intersection_dim_formula(seed, n, ca, cb):
    rng = _rng(seed)
    a = complex_gaussian(rng, n, min(ca, n))
    b = complex_gaussian(rng, n, min(cb, n))
    got = intersection_basis(a, b).shape[1]
    want = numerical_rank(a) + numerical_rank(b) - union_span_dim([a, b])
    assert got == want

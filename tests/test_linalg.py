import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssalign import (
    LEAKAGE_ABS,
    RANK_REL,
    SystemConfig,
    complement_projector,
    intersection_basis,
    nullspace_basis,
    numerical_rank,
    sample_channel_set,
    union_span_dim,
)
from ssalign.errors import InvalidMatrix, ShapeMismatch

from conftest import complex_gaussian


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

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidMatrix):
            numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestNullspaceBasis:
    def test_identity_trivial(self):
        basis = nullspace_basis(np.eye(3))
        assert basis.shape == (3, 0)

    def test_full_row_rank_residual(self, rng):
        a = complex_gaussian(rng, 5, 6)
        basis = nullspace_basis(a)
        assert basis.shape == (6, 1)
        assert np.linalg.norm(a @ basis) <= LEAKAGE_ABS * np.linalg.norm(a)
        assert np.allclose(basis.conj().T @ basis, np.eye(1))

    def test_extended_three_user_stack(self):
        # M=2, N=5, K=3 extended by 2: 10x12 stack must have nullity 3M'-N' = 2.
        ch = sample_channel_set(SystemConfig(m=2, n=5, k=3, extension=2, seed=17))
        stack = np.hstack(ch.uplink)
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

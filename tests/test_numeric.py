import numpy as np
import pytest

from matword import numeric
from matword.exceptions import DimensionMismatch, ParseError


J2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_parse_entry_rational():
    assert numeric.parse_entry("1/3") == 1.0 / 3.0
    assert numeric.parse_entry("2/3") == 2.0 / 3.0
    assert numeric.parse_entry("-3/7") == -3.0 / 7.0
    assert numeric.parse_entry(0.25) == 0.25
    assert numeric.parse_entry("0.1") == 0.1


@pytest.mark.parametrize("bad", ["", "x", "1/0", None, float("nan")])
def test_parse_entry_rejects(bad):
    with pytest.raises(ParseError):
        numeric.parse_entry(bad)


def test_parse_vector():
    v = numeric.parse_vector("2,0,1/2")
    np.testing.assert_allclose(v, [2.0, 0.0, 0.5])
    np.testing.assert_array_equal(numeric.parse_vector(" 2 , 0,1/2 "), v)
    for text, position in [("", 0), ("1,,0", 1), ("1,0,", 2), (",1", 0), ("1, ,0", 1)]:
        with pytest.raises(ParseError, match=f"empty field at position {position}"):
            numeric.parse_vector(text)


def test_mat_mul_permutation_squares_to_identity():
    np.testing.assert_array_equal(numeric.mat_mul(J2, J2), np.eye(2))


def test_mat_mul_identity():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(5, 5))
    np.testing.assert_array_equal(numeric.mat_mul(np.eye(5), M), M)


def test_mat_mul_noncommuting_pair():
    A = np.array([[1, 2], [2, 1]]) / 3.0
    B = np.array([[1, 4], [2, 3]]) / 5.0
    gap = np.max(np.abs(numeric.mat_mul(A, B) - numeric.mat_mul(B, A)))
    assert gap > 0


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        numeric.mat_mul(np.eye(2), np.eye(3))


def test_mat_mul_associativity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        A, B, C = (rng.normal(size=(6, 6)) for _ in range(3))
        left = numeric.mat_mul(numeric.mat_mul(A, B), C)
        right = numeric.mat_mul(A, numeric.mat_mul(B, C))
        scale = np.max(np.abs(left)) + np.max(np.abs(right))
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


def test_mat_mul_deterministic():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8))
    B = rng.normal(size=(8, 8))
    first = numeric.mat_mul(A, B)
    second = numeric.mat_mul(A.copy(), B.copy())
    assert first.tobytes() == second.tobytes()


def test_rank_and_nullspace_zero_matrix():
    rank, basis = numeric.rank_and_nullspace(np.zeros((3, 3)))
    assert rank == 0
    assert basis.shape == (3, 3)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)


def test_rank_and_nullspace_rank_one_all_ones():
    J = np.ones((3, 3))
    rank, basis = numeric.rank_and_nullspace(J)
    assert rank == 1
    assert basis.shape == (3, 2)
    assert np.max(np.abs(J @ basis)) <= 1e-12


def test_rank_and_nullspace_example7_commutator():
    A = np.array([[1, 2], [2, 1]]) / 3.0
    B = np.array([[1, 4], [2, 3]]) / 5.0
    C = numeric.mat_mul(A, B) - numeric.mat_mul(B, A)
    rank, _ = numeric.rank_and_nullspace(C)
    assert rank == 1


def test_nullspace_invariants_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        M = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
        rank, basis = numeric.rank_and_nullspace(M)
        assert rank + basis.shape[1] == n
        if basis.shape[1]:
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1]))) <= 1e-12
            tol = numeric.default_rank_tol(np.linalg.svd(M, compute_uv=False), n)
            assert np.max(np.abs(M @ basis)) <= 10 * max(tol, 1e-13)


def test_first_negative_entry_verdicts():
    """NaN is not negative and neither is -0.0; the first negative entry
    in row-major order is reported."""
    nan = np.nan
    assert numeric.first_negative_entry(np.array([[1.0, nan], [0.0, 2.0]])) is None
    assert numeric.first_negative_entry(np.array([[nan, -0.0], [-1e-300, -2.0]])) == (1, 0)
    assert numeric.first_negative_entry(np.array([[0.0, -3.0], [-1.0, nan]])) == (0, 1)
    assert numeric.first_negative_entry(np.zeros((0, 0))) is None
    assert numeric.is_nonnegative([[nan, 0.0]])
    assert not numeric.is_nonnegative([[1, -1]])

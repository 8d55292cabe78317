"""Dense real/complex matrix arithmetic with an explicit tolerance policy.

Conventions used throughout the package:

* a real matrix is a square ``float64`` ndarray, a complex matrix a square
  ``complex128`` ndarray; vectors are 1-d ndarrays of the matching dtype;
* exact rational input entries are represented by :class:`fractions.Fraction`
  and converted to the nearest double exactly once, at parse time;
* products use an explicit ascending-index summation order so that repeated
  runs on one platform are bit-reproducible.
"""

from fractions import Fraction

import numpy as np

from .exceptions import DimensionMismatch, ParseError

EPS = np.finfo(np.float64).eps


def parse_entry(value):
    """Convert an input entry to a double.

    Accepts numbers, exact rational strings ``"p/q"``, and decimal strings.
    The rational path goes through :class:`fractions.Fraction` so ``1/3``
    parses to the double nearest the exact rational.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"unsupported entry type {type(value).__name__!r}")
    try:
        entry = float(Fraction(value.strip()) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"cannot parse matrix entry {value!r}") from exc
    if not np.isfinite(entry):
        raise ParseError(f"entry {value!r} is not finite")
    return entry


def parse_vector(text):
    """Parse a comma-separated vector of numbers / rationals into an ndarray."""
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ParseError(f"empty vector {text!r}")
    return np.array([parse_entry(p) for p in parts], dtype=np.float64)


def as_square_matrix(entries, what="matrix"):
    """Validate and convert nested entries into a square float64 array."""
    try:
        rows = [[parse_entry(e) for e in row] for row in entries]
    except TypeError as exc:
        raise ParseError(f"{what} is not a nested array of entries") from exc
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{what} has rows of different lengths")
    M = np.array(rows, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError(f"{what} is not square: shape {M.shape}")
    return M


def require_square(M, what="matrix"):
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{what} is not square: shape {M.shape}")
    return M


def require_finite(M, what="matrix"):
    if not np.all(np.isfinite(np.asarray(M, dtype=np.complex128))):
        raise ValueError(f"{what} has non-finite entries")
    return M


def first_negative_entry(M):
    """Index ``(i, j)`` of the first negative entry, or ``None``."""
    M = np.asarray(M)
    bad = np.argwhere(M < 0)
    if bad.size == 0:
        return None
    return tuple(int(k) for k in bad[0])


def is_nonnegative(M):
    return first_negative_entry(M) is None


def mat_mul(A, B):
    """Matrix product with deterministic ascending-index summation.

    ``np.einsum`` without path optimisation accumulates the contracted
    index in order, which keeps reports bit-reproducible across runs.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[-1] != B.shape[0]:
        raise DimensionMismatch(f"cannot multiply shapes {A.shape} and {B.shape}")
    if B.ndim == 1:
        return np.einsum("ij,j->i", A, B, optimize=False)
    return np.einsum("ij,jk->ik", A, B, optimize=False)


def mat_vec(A, x):
    """Matrix-vector product, same summation policy as :func:`mat_mul`."""
    return mat_mul(A, np.asarray(x))


def mat_power(A, k):
    """k-th power by repeated :func:`mat_mul` (k is desk-scale here)."""
    A = require_square(np.asarray(A))
    if k < 0:
        raise ValueError("negative powers are not supported")
    out = np.eye(A.shape[0], dtype=A.dtype)
    for _ in range(int(k)):
        out = mat_mul(out, A)
    return out


def operator_norm(A):
    """Largest singular value (operator norm induced by the 2-norm)."""
    A = require_square(np.asarray(A))
    require_finite(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def default_rank_tol(singular_values, n):
    """Standard rank-revealing threshold ``n * sigma_max * eps``."""
    smax = singular_values[0] if len(singular_values) else 0.0
    return n * float(smax) * EPS


def rank_and_nullspace(M, tol=None):
    """Rank and an orthonormal nullspace basis of a (possibly rectangular,
    possibly complex) matrix.

    Parameters
    ----------
    M : ndarray, shape (m, n)
    tol : float, optional
        Singular values above ``tol`` count toward the rank.  Defaults to
        ``max(m, n) * sigma_max * eps``.

    Returns
    -------
    rank : int
    basis : ndarray, shape (n, n - rank)
        Orthonormal columns spanning the (numerical) nullspace.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {M.shape}")
    m, n = M.shape
    if M.size == 0:
        return 0, np.eye(n, dtype=M.dtype)
    _, s, Vh = np.linalg.svd(M)
    if tol is None:
        tol = default_rank_tol(s, max(m, n))
    elif tol <= 0:
        raise ValueError("tol must be positive")
    rank = int(np.sum(s > tol))
    basis = Vh[rank:].conj().T
    return rank, basis


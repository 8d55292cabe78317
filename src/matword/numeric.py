"""Dense real/complex matrix arithmetic with an explicit tolerance policy.

Conventions used throughout the package:

* a real matrix is a square ``float64`` ndarray, a complex matrix a square
  ``complex128`` ndarray; vectors are 1-d ndarrays of the matching dtype;
* exact rational input entries are represented by :class:`fractions.Fraction`
  and converted to the nearest double exactly once, at parse time;
* products use an explicit ascending-index summation order so that repeated
  runs on one platform are bit-reproducible.
"""

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteValue, ParseError

EPS = np.finfo(np.float64).eps

# The tolerance policy: every threshold a numerical verdict uses, named once
# (the README tabulates where each applies, scaled where it is applied).
RANK_TOL = 1e-10         # rank cut: commutators and compressed maps
CLUSTER_TOL = 1e-8       # eigenvalue cluster, "modulus one", "radius one"
ORDER_TOL = 1e-8         # root-of-unity order |lambda^d - 1|
CONVERGENCE_TOL = 1e-10  # fixed-point step, relative to 1 + |z|
TUPLE_TOL = 1e-8         # equal orbit tuples and orbit points
CONJ_TOL = 1e-10         # literal conjugate eigenvectors
LC_TOL = 1e-6            # LC membership residual and coefficient cut
EXPONENT_TOL = 1e-12     # homogeneity exponent equal to one
PIVOT_SLACK = 1e-6       # canonical-phase pivot, relative to the largest entry
SLACK = 10               # factor for the common-eigenvector residual check
MAX_ITER = 100_000       # iteration cap of every fixed-point loop
BOUND = 1e12             # divergence bound of every fixed-point loop
MAX_BUDGET = 100_000     # cap on the prefix evaluations of one q2 search


def parse_entry(value):
    """Convert an input entry to a double.

    Accepts numbers, exact rational strings ``"p/q"``, and decimal strings.
    The rational path goes through :class:`fractions.Fraction` so ``1/3``
    parses to the double nearest the exact rational.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"unsupported entry type {type(value).__name__!r}")
    try:
        if isinstance(value, str):
            # imported here: fractions pulls in decimal, and documents
            # written by programs rarely hold a string entry
            from fractions import Fraction
            entry = float(Fraction(value.strip()))
        else:
            entry = float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"cannot parse matrix entry {value!r}") from exc
    if not np.isfinite(entry):
        raise ParseError(f"entry {value!r} is not finite")
    return entry


def parse_vector(text):
    """Parse a comma-separated vector of numbers / rationals into an ndarray;
    blanks around an entry are allowed, an empty field is a ParseError."""
    parts = str(text).split(",")
    for position, part in enumerate(parts):
        if not part.strip():
            raise ParseError(f"empty field at position {position} in vector {text!r}")
    return np.array([parse_entry(p) for p in parts], dtype=np.float64)


def as_square_matrix(entries, what="matrix"):
    """Validate and convert nested entries into a square float64 array."""
    if not isinstance(entries, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in entries
    ):
        raise ParseError(f"{what} is not a nested array of entries")
    rows = [[parse_entry(e) for e in row] for row in entries]
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
    """M, after checking that every entry is finite: LAPACK may never
    return on an infinite entry, so every ``np.linalg`` call is guarded."""
    if not np.isfinite(M).all():
        raise NonFiniteValue(f"{what} has non-finite entries")
    return M


def require_nonnegative(M, what="matrix"):
    bad = first_negative_entry(M)
    if bad is not None:
        raise ValueError(f"{what} has a negative entry at {bad}")
    return M


def first_negative_entry(M):
    """Index ``(i, j)`` of the first negative entry, or ``None``."""
    negative = np.asarray(M) < 0
    if not negative.any():
        return None
    return tuple(int(k) for k in np.argwhere(negative)[0])


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


def column_dots(U, W):
    """Inner products conj(U[:, k]) . W[:, k] of matching columns, summed
    in ascending index order like :func:`mat_mul`."""
    return np.einsum("ij,ij->j", np.conj(U), W, optimize=False)


def vector_norm(v):
    """Euclidean norm by ``hypot``, which cannot overflow where the sum of
    squares would (entries near 1e300)."""
    return float(np.hypot.reduce(np.abs(v), initial=0.0))


def column_norms(V):
    """:func:`vector_norm` of each column of V."""
    return np.hypot.reduce(np.abs(V), axis=0, initial=0.0)


def default_rank_tol(singular_values, n):
    """Standard rank-revealing threshold ``n * sigma_max * eps``."""
    smax = singular_values[0] if len(singular_values) else 0.0
    return n * float(smax) * EPS


def rank_and_nullspace(M, tol=0.0):
    """Rank and an orthonormal nullspace basis of a (possibly rectangular,
    possibly complex) matrix.

    Parameters
    ----------
    M : ndarray, shape (m, n)
    tol : float, optional
        Singular values above ``max(tol, max(m, n) * sigma_max * eps)``
        count toward the rank.

    Returns
    -------
    rank : int
    basis : ndarray, shape (n, n - rank)
        Orthonormal columns spanning the (numerical) nullspace.
    """
    return _nullspaces(M, (tol,))[0]


def _nullspaces(M, tols):
    """:func:`rank_and_nullspace` of M at each cut in ``tols``, from one
    SVD: the one site of ``np.linalg.svd``."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {M.shape}")
    m, n = M.shape
    if M.size == 0:
        return [(0, np.eye(n, dtype=M.dtype)) for _ in tols]
    _, s, Vh = np.linalg.svd(require_finite(M))
    floor = default_rank_tol(s, max(m, n))
    ranks = [int(np.sum(s > max(tol, floor))) for tol in tols]
    return [(rank, Vh[rank:].conj().T) for rank in ranks]

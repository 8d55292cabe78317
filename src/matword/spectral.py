"""Eigenstructure of real matrices with complex spectra.

Spectral radius, peripheral eigenvalues, root-of-unity order detection, the
per-matrix period q_r (the lcm of the peripheral orders when the spectral
radius is one), and the index of imprimitivity of an irreducible nonnegative
matrix.

The eigen-engine is LAPACK via ``numpy.linalg``; the value this module adds
is deterministic ordering, phase canonicalisation, eigenvalue clustering and
defectiveness detection, so that downstream consumers see a stable,
conjugation-closed decomposition.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numeric
from .exceptions import EigenSolverFailure, NotRootOfUnity, Reducible


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit, phase-canonicalised eigenvector.

    ``algebraic`` and ``geometric`` are the multiplicities of the eigenvalue
    cluster the pair belongs to; ``geometric < algebraic`` flags a defective
    eigenvalue, in which case only the geometric eigenspace is reported.
    The eigenvector is read-only: a collection shares its pairs.
    """

    eigenvalue: complex
    eigenvector: np.ndarray
    residual: float
    algebraic: int = 1
    geometric: int = 1

    @property
    def defective(self):
        return self.geometric < self.algebraic


def canonical_phase(v):
    """Scale a vector to unit norm with its pivot entry real and positive.

    The pivot is the first entry whose modulus is within a small relative
    slack of the maximum; the slack makes the choice stable under rounding
    noise, so conjugate vectors pick the same pivot and canonicalise to
    literal conjugates of each other."""
    v = np.asarray(v, dtype=np.complex128)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v
    v = v / nrm
    moduli = np.abs(v)
    idx = int(np.argmax(moduli >= moduli.max() * (1.0 - numeric.PIVOT_SLACK)))
    pivot = v[idx]
    if pivot != 0:
        v = v * (np.conj(pivot) / abs(pivot))
    # the pivot entry is now exactly real
    v[idx] = v[idx].real
    return v


def _eig_sort_key(value):
    return (-abs(value), -value.real, -value.imag)


def realify(value, tol):
    """``value`` as a complex number, made exactly real when its imaginary
    part is at most ``tol``."""
    value = complex(value)
    if abs(value.imag) <= tol:
        return complex(value.real, 0.0)
    return value


def _cluster(values, tol):
    """Group near-equal complex values.  Values arrive sorted by the
    deterministic key, so a greedy sweep is enough at corpus separations."""
    clusters = []
    for value in values:
        for cluster in clusters:
            if abs(cluster[0] - value) <= tol:
                cluster.append(value)
                break
        else:
            clusters.append([value])
    return clusters


def _as_matrix(A):
    A = np.asarray(A)
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    return numeric.require_square(A.astype(dtype, copy=False))


def eigenvalues(A):
    """All eigenvalues (with multiplicity), deterministically ordered."""
    A = numeric.require_finite(_as_matrix(A))
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc
    return np.array(sorted(vals, key=_eig_sort_key))


def eigenspace_basis(A, mu, tol):
    """Orthonormal basis of ker(A - mu I), cut as in
    :func:`~matword.numeric.rank_and_nullspace`.

    A real matrix with a real eigenvalue gets a real basis (real SVD path),
    which keeps conjugation-closed eigenspaces representable over the reals.
    """
    A = np.asarray(A)
    mu = complex(mu)
    if not np.iscomplexobj(A) and mu.imag == 0:
        shifted = A - mu.real * np.eye(A.shape[0])
    else:
        shifted = A.astype(np.complex128) - mu * np.eye(A.shape[0])
    return numeric.rank_and_nullspace(shifted, tol)[1]


def eigendecompose(A):
    """Eigen decomposition with clustering, canonical phases and
    defectiveness flags.

    Returns a list of :class:`EigenPair`.  For a diagonalizable matrix the
    list has ``n`` entries; a defective eigenvalue cluster contributes only
    its geometric eigenspace (each basis vector once), flagged through the
    multiplicity fields.

    Complex pairs appear adjacently (positive imaginary part first), and the
    output is a deterministic function of the input bytes.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    vals = eigenvalues(A)
    rho = float(np.max(np.abs(vals))) if n else 0.0
    cluster_tol = numeric.CLUSTER_TOL * max(1.0, rho)
    norm_scale = max(1.0, float(np.max(np.abs(A))) * n)

    pairs = []
    for cluster in _cluster(vals, cluster_tol):
        mu = realify(np.mean(cluster), cluster_tol)
        algebraic = len(cluster)
        basis = eigenspace_basis(A, mu, tol=cluster_tol * norm_scale)
        geometric = basis.shape[1]
        if geometric == 0:
            # severely ill-conditioned cluster; fall back to one inverse-
            # iteration style vector so the pair is never empty
            basis = eigenspace_basis(A, mu, tol=math.sqrt(cluster_tol) * norm_scale)
            geometric = basis.shape[1]
            if geometric == 0:
                raise EigenSolverFailure(
                    f"no eigenvector found for eigenvalue cluster near {mu}"
                )
        geometric = min(geometric, algebraic)
        for col in range(geometric):
            v = canonical_phase(basis[:, col])
            Av = numeric.mat_vec(A, v)
            lam = realify(np.vdot(v, Av), cluster_tol)  # Rayleigh quotient
            residual = numeric.vector_norm(Av - lam * v)
            v.setflags(write=False)
            pairs.append(
                EigenPair(lam, v, residual, algebraic=algebraic, geometric=geometric)
            )
    pairs.sort(key=lambda p: _eig_sort_key(p.eigenvalue))
    return pairs


def spectral_radius(A):
    """max |lambda| over the spectrum."""
    vals = eigenvalues(A)
    if vals.size == 0:
        return 0.0
    return float(np.max(np.abs(vals)))


def root_of_unity_order(value, max_order, tol=numeric.ORDER_TOL):
    """Smallest d in [1, max_order] with \\|value**d - 1\\| <= tol, else None."""
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    value = complex(value)
    power = 1.0 + 0.0j
    for d in range(1, int(max_order) + 1):
        power = power * value
        if abs(power - 1.0) <= tol:
            return d
    return None


@dataclass(frozen=True)
class PeripheralReport:
    """Peripheral spectrum of a nonnegative matrix.

    ``orders[k]`` is the root-of-unity order of ``peripheral[k]`` (None when
    the spectral radius is not one, or above 1 + tolerance).  ``q_r`` is the
    lcm of the orders; it is 1 for a strictly subcritical matrix, whose only
    limit is the zero vector.
    """

    rho: float
    peripheral: tuple
    orders: tuple
    q_r: int | None


def peripheral_period(A, rho_tol=numeric.CLUSTER_TOL):
    """Peripheral eigenvalues of a nonnegative matrix and the period q_r.

    When rho(A) is within ``rho_tol`` of one, every peripheral eigenvalue is
    tested for a root-of-unity order up to the matrix dimension; theory
    guarantees such an order exists, so a miss raises
    :class:`~matword.exceptions.NotRootOfUnity`.
    """
    A = numeric.require_nonnegative(
        numeric.require_square(np.asarray(A, dtype=np.float64)))
    return _peripheral_report(eigendecompose(A), A.shape[0], rho_tol)


def _peripheral_report(pairs, n, rho_tol):
    """:func:`peripheral_period` from the :func:`eigendecompose` pairs of
    a nonnegative n x n matrix."""
    rho = max((abs(p.eigenvalue) for p in pairs), default=0.0)
    scale = numeric.CLUSTER_TOL * max(1.0, rho)
    peripheral = tuple(p for p in pairs if abs(abs(p.eigenvalue) - rho) <= scale)
    if abs(rho - 1.0) <= rho_tol:
        orders = []
        for p in peripheral:
            d = root_of_unity_order(p.eigenvalue, max_order=n,
                                    tol=scale * numeric.SLACK)
            if d is None:
                raise NotRootOfUnity(
                    f"peripheral eigenvalue {p.eigenvalue} of a spectral-radius-one "
                    f"nonnegative matrix has no order <= {n}"
                )
            orders.append(d)
        q_r = math.lcm(*orders) if orders else 1
        return PeripheralReport(rho, peripheral, tuple(orders), q_r)
    if rho < 1.0:
        # strictly subcritical: all orbits contract to 0, a fixed point
        return PeripheralReport(rho, peripheral, (None,) * len(peripheral), 1)
    return PeripheralReport(rho, peripheral, (None,) * len(peripheral), None)


def is_irreducible(A):
    """Strong connectivity of the nonzero-pattern digraph: vertex 0 reaches
    every vertex along the edges and along the reversed edges."""
    pattern = numeric.require_square(np.asarray(A)) != 0
    return all(_reaches_all(P) for P in (pattern, pattern.T))


def _reaches_all(pattern):
    """Whether every vertex is reachable from vertex 0, where pattern[i, j]
    marks an edge i -> j."""
    reached = np.zeros(pattern.shape[0], dtype=bool)
    reached[:1] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = pattern[frontier].any(axis=0) & ~reached
        reached |= frontier
    return reached.size > 0 and bool(reached.all())


def index_of_imprimitivity(A):
    """Number of eigenvalues of modulus rho(A) for an irreducible
    nonnegative matrix."""
    A = numeric.require_nonnegative(
        numeric.require_square(np.asarray(A, dtype=np.float64)))
    if not is_irreducible(A):
        raise Reducible("pattern digraph is not strongly connected")
    vals = eigenvalues(A)
    rho = float(np.max(np.abs(vals)))
    band = numeric.CLUSTER_TOL * max(1.0, rho)
    return int(np.sum(np.abs(np.abs(vals) - rho) <= band))

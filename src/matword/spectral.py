"""Eigenstructure of real matrices with complex spectra.

Spectral radius, peripheral eigenvalues, root-of-unity order detection, the
per-matrix period q_r (the lcm of the peripheral orders when the spectral
radius is one), and the index of imprimitivity of an irreducible nonnegative
matrix.

The eigen-engine is LAPACK via ``numpy.linalg``: one ``eig`` per matrix
(memoised per letter by a collection) gives the spectral radius and the
eigenvectors of every simple eigenvalue; an SVD nullspace serves only a
repeated eigenvalue cluster, where the geometric multiplicity is a rank
decision.  The value this module adds is deterministic ordering, phase
canonicalisation, eigenvalue clustering and defectiveness detection, so
that downstream consumers see a stable, conjugation-closed decomposition.
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
    ``cluster`` numbers that cluster among the matrix's clusters, so the
    pairs of one cluster share it.  The eigenvector is read-only: a
    collection shares its pairs.
    """

    eigenvalue: complex
    eigenvector: np.ndarray
    residual: float
    algebraic: int = 1
    geometric: int = 1
    cluster: int = 0

    @property
    def defective(self):
        return self.geometric < self.algebraic


def canonical_phases(V):
    """A complex copy of V with each column scaled to unit norm and its
    pivot entry real and positive; a zero column stays zero.

    A column's pivot is its first entry whose modulus is within
    ``PIVOT_SLACK`` (relative) of the column's maximum; the slack makes the
    choice stable under rounding noise, so conjugate vectors pick the same
    pivot and canonicalise to literal conjugates of each other."""
    V = np.array(V, dtype=np.complex128)
    if V.size == 0:
        return V
    norms = numeric.column_norms(V)
    V /= np.where(norms == 0, 1.0, norms)
    moduli = np.abs(V)
    rows = np.argmax(moduli >= moduli.max(axis=0) * (1.0 - numeric.PIVOT_SLACK), axis=0)
    cols = np.arange(V.shape[1])
    pivots = V[rows, cols]
    sizes = np.abs(pivots)
    V *= np.where(sizes == 0, 1.0, np.conj(pivots) / np.where(sizes == 0, 1.0, sizes))
    # the pivot entries are now exactly real
    V[rows, cols] = V[rows, cols].real
    return V


def _eig_sort_key(value):
    return (-abs(value), -value.real, -value.imag)


def realify(value, tol):
    """``value`` as a complex number, made exactly real when its imaginary
    part is at most ``tol``."""
    value = complex(value)
    if abs(value.imag) <= tol:
        return complex(value.real, 0.0)
    return value


def realify_all(values, tol):
    """:func:`realify` of each entry of an array, as a complex array."""
    values = np.asarray(values, dtype=np.complex128)
    return np.where(np.abs(values.imag) <= tol,
                    values.real.astype(np.complex128), values)


def cluster(values, tol):
    """Greedy groups ``(value, member indices)`` of near-equal complex
    values, made real where :func:`realify` allows: a value joins the first
    earlier kept one within ``tol * max(1, |kept|)``, the one scaling of
    ``tol``.  Sorted values make a greedy sweep enough at corpus separations."""
    kept = []
    for index, value in enumerate(values):
        value = realify(value, tol)
        for k, members in kept:
            if abs(value - k) <= tol * max(1.0, abs(k)):
                members.append(index)
                break
        else:
            kept.append((value, [index]))
    return kept


def _as_matrix(A):
    A = np.asarray(A)
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    return numeric.require_square(A.astype(dtype, copy=False))


def _eig(A, vectors):
    """LAPACK's eigenvalues of A in the deterministic order and, with
    ``vectors``, its unit eigenvectors as the matching columns (else
    None)."""
    A = numeric.require_finite(_as_matrix(A))
    try:
        vals, vecs = np.linalg.eig(A) if vectors else (np.linalg.eigvals(A), None)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(str(exc)) from exc
    order = sorted(range(vals.shape[0]), key=lambda i: _eig_sort_key(vals[i]))
    return vals[order], None if vecs is None else vecs[:, order]


def eigenvalues(A):
    """All eigenvalues (with multiplicity), deterministically ordered."""
    return _eig(A, vectors=False)[0]


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


def _cluster_basis(A, mu, tol, scale):
    """Eigenspace basis of a repeated cluster at mu, cut at ``tol * scale``;
    a severely ill-conditioned cluster that yields no vector there falls
    back to the cut ``sqrt(tol) * scale``, so the cluster is never empty."""
    basis = eigenspace_basis(A, mu, tol=tol * scale)
    if basis.shape[1] == 0:
        basis = eigenspace_basis(A, mu, tol=math.sqrt(tol) * scale)
        if basis.shape[1] == 0:
            raise EigenSolverFailure(
                f"no eigenvector found for eigenvalue cluster near {mu}"
            )
    return basis


def eigendecompose(A):
    """Eigen decomposition with clustering, canonical phases and
    defectiveness flags: :func:`_pairs` of one LAPACK ``eig`` (:func:`_eig`).

    Returns a list of :class:`EigenPair`.  For a diagonalizable matrix the
    list has ``n`` entries; a defective eigenvalue cluster contributes only
    its geometric eigenspace (each basis vector once), flagged through the
    multiplicity fields.  A simple eigenvalue takes eig's eigenvector; a
    repeated cluster takes the SVD nullspace of A - mu I at the cluster
    mean mu, since there the geometric multiplicity is a rank decision.
    Every pair's eigenvalue is the Rayleigh quotient of its canonical
    vector, and its residual |A v - lambda v|.

    Complex pairs appear adjacently (positive imaginary part first), and the
    output is a deterministic function of the input bytes.
    """
    return _pairs(A, *_eig(A, vectors=True))


def _pairs(A, vals, vecs):
    """:func:`eigendecompose` of A from its :func:`_eig` output."""
    A = _as_matrix(A)
    cluster_tol = numeric.CLUSTER_TOL * max(1.0, _radius(vals))
    norm_scale = max(1.0, float(np.max(np.abs(A))) * A.shape[0])

    columns = []
    fields = []
    for number, (_, members) in enumerate(cluster(vals, numeric.CLUSTER_TOL)):
        algebraic = len(members)
        if algebraic == 1:
            basis = vecs[:, members]
        else:
            mu = realify(np.mean(vals[members]), cluster_tol)
            basis = _cluster_basis(A, mu, cluster_tol, norm_scale)
        geometric = min(basis.shape[1], algebraic)
        columns.append(basis[:, :geometric])
        fields.extend([(algebraic, geometric, number)] * geometric)
    if not fields:
        return []

    V = canonical_phases(np.hstack(columns))
    AV = numeric.mat_mul(A, V)
    lams = realify_all(numeric.column_dots(V, AV), cluster_tol)  # Rayleigh quotients
    residuals = numeric.column_norms(AV - V * lams)
    vectors = V.T.copy()
    vectors.setflags(write=False)
    pairs = [EigenPair(complex(lam), v, float(residual), algebraic=a, geometric=g,
                       cluster=c)
             for lam, v, residual, (a, g, c) in zip(lams, vectors, residuals, fields)]
    pairs.sort(key=lambda p: _eig_sort_key(p.eigenvalue))
    return pairs


def _radius(vals):
    """max |lambda| over the eigenvalues ``vals``; 0 for an empty matrix."""
    return float(np.max(np.abs(vals), initial=0.0))


def spectral_radius(A):
    """max |lambda| over the spectrum."""
    return _radius(eigenvalues(A))


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


def root_of_unity_exponent(value, q):
    """k with value = exp(2 pi i k / q) from the :func:`root_of_unity_order`
    d of value: (q / d) (round(d arg(value) / 2 pi) mod d); None unless d
    divides q."""
    d = root_of_unity_order(value, q)
    if d is None or q % d:
        return None
    return q // d * (int(round(d * np.angle(value) / (2 * np.pi))) % d)


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

    When rho(A) is within ``rho_tol`` of one, every peripheral eigenvalue
    lambda is tested, as lambda / rho, for a root-of-unity order up to the
    matrix dimension; theory guarantees such an order exists, so a miss
    raises :class:`~matword.exceptions.NotRootOfUnity`.
    """
    A = numeric.require_nonnegative(
        numeric.require_square(np.asarray(A, dtype=np.float64)))
    vals, vecs = _eig(A, vectors=True)
    return _peripheral_report(_pairs(A, vals, vecs), _radius(vals), A.shape[0], rho_tol)


def _peripheral_report(pairs, rho, n, rho_tol):
    """:func:`peripheral_period` from the :func:`eigendecompose` pairs of
    a nonnegative n x n matrix and its radius ``rho``, from one ``eig``."""
    scale = numeric.CLUSTER_TOL * max(1.0, rho)
    peripheral = tuple(p for p in pairs if abs(abs(p.eigenvalue) - rho) <= scale)
    if 0.0 < rho and abs(rho - 1.0) <= rho_tol:  # rho = 0 is subcritical in any band
        orders = []
        for p in peripheral:
            d = root_of_unity_order(p.eigenvalue / rho, max_order=n)
            if d is None:
                raise NotRootOfUnity(
                    f"peripheral eigenvalue {p.eigenvalue} of a spectral-radius-one "
                    f"nonnegative matrix has no order <= {n}"
                )
            orders.append(d)
        q_r = math.lcm(*orders) if orders else 1
        return PeripheralReport(rho, peripheral, tuple(orders), q_r)
    # q_r = 1 when strictly subcritical: every orbit contracts to the fixed point 0
    return PeripheralReport(rho, peripheral, (None,) * len(peripheral),
                            1 if rho < 1.0 else None)


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
    rho = _radius(vals)
    band = numeric.CLUSTER_TOL * max(1.0, rho)
    return int(np.sum(np.abs(np.abs(vals) - rho) <= band))

"""Commutativity structure of a matrix family and its common eigenvectors.

Implements the pair classifications (commuting, quasi-commuting, Shemesh
partial commuting, Laffey), simultaneous triangularization by deflation,
and the common-eigenvector refinement that produces the eigenvalue table
lambda[r, s], the modulus-one count kappa and the conjugate-pair set S2.
"""

from dataclasses import dataclass

import numpy as np

from . import numeric, spectral
from .exceptions import DimensionMismatch

#: matching tolerance for literal conjugate pairs after phase canonicalisation
CONJ_TOL = 1e-10


def commutator(A, B):
    """[A, B] = AB - BA."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return numeric.mat_mul(A, B) - numeric.mat_mul(B, A)


def _max_abs(M):
    return float(np.max(np.abs(M))) if np.asarray(M).size else 0.0


def shemesh_subspace(A, B, tol=None):
    """Orthonormal basis of the intersection of ker([A^k, B^l]) over
    1 <= k, l <= n-1, computed from the vertically stacked commutators.

    The subspace is nontrivial exactly when the pair has a common
    eigenvector; both matrices leave it invariant and commute on it.
    """
    A = numeric.require_square(np.asarray(A, dtype=np.float64))
    B = numeric.require_square(np.asarray(B, dtype=np.float64))
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    n = A.shape[0]
    if n == 1:
        return np.eye(1)
    a_powers = [numeric.mat_power(A, k) for k in range(1, n)]
    b_powers = [numeric.mat_power(B, l) for l in range(1, n)]
    stack = np.vstack([commutator(Ak, Bl) for Ak in a_powers for Bl in b_powers])
    scale = max(1.0, _max_abs(stack))
    if tol is None:
        tol = numeric.default_rank_tol(
            np.linalg.svd(stack, compute_uv=False), stack.shape[0]
        )
        tol = max(tol, 1e-10 * scale)
    _, basis = numeric.rank_and_nullspace(stack, tol=tol)
    return basis


@dataclass(frozen=True)
class PairClassification:
    commuting: bool
    quasi_commuting: bool
    laffey: bool
    shemesh_dimension: int
    commutator_rank: int

    @property
    def partially_commuting(self):
        return self.shemesh_dimension >= 1


def commutator_test(A, B, tol):
    """``(commuting, C, scale)``: whether C = [A, B] is at most
    ``tol * scale`` in max norm, with scale = max(1, |A| |B|)."""
    C = commutator(A, B)
    scale = max(1.0, _max_abs(A) * _max_abs(B))
    return _max_abs(C) <= tol * scale, C, scale


def _commutes_with_commutator(M, C, scale, tol):
    """The quasi-commuting side test for M, a member of the pair whose
    commutator test returned ``C`` and ``scale``."""
    return _max_abs(commutator(M, C)) <= tol * scale * max(1.0, _max_abs(M))


def classify_pair(A, B, tol=1e-10):
    """Classify one pair of matrices; see :class:`PairClassification`."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    commuting, C, scale = commutator_test(A, B, tol)
    quasi = (_commutes_with_commutator(A, C, scale, tol)
             and _commutes_with_commutator(B, C, scale, tol))
    rank, _ = numeric.rank_and_nullspace(C, tol=max(1e-10 * scale, numeric.EPS))
    basis = shemesh_subspace(A, B)
    return PairClassification(
        commuting=commuting,
        quasi_commuting=quasi,
        laffey=rank == 1,
        shemesh_dimension=basis.shape[1],
        commutator_rank=rank,
    )


def is_quasi_commuting(collection, tol=1e-10):
    """True when every pair commutes with its commutator.

    Returns ``(flag, witness)`` where the witness names the first violating
    triple (r, s, side) or is None.
    """
    names = collection.names
    for r in range(collection.N):
        for s in range(r + 1, collection.N):
            A, B = collection.matrices[r], collection.matrices[s]
            _, C, scale = commutator_test(A, B, tol)
            for side, M in ((r, A), (s, B)):
                if not _commutes_with_commutator(M, C, scale, tol):
                    return False, (names[r], names[s], names[side])
    return True, None


@dataclass(frozen=True)
class CommonEigenSystem:
    """The set E' of common eigenvectors of a collection.

    ``vectors[s]`` is a unit, phase-canonicalised complex n-vector;
    ``lambda_table[s, r]`` its eigenvalue for the r-th matrix.  Vectors are
    ordered with the modulus-one block first: ``s < kappa`` exactly when
    every ``|lambda_table[s, r]|`` is within tolerance of one.  ``s2_pairs``
    lists index pairs of literal conjugate vectors.
    """

    vectors: tuple
    lambda_table: np.ndarray
    kappa: int
    s2_pairs: tuple
    tol: float

    @property
    def d(self):
        return len(self.vectors)

    @property
    def paired_indices(self):
        out = set()
        for s1, s2 in self.s2_pairs:
            out.add(s1)
            out.add(s2)
        return out

    def basis_matrix(self):
        """n x d matrix with the common eigenvectors as columns."""
        if self.d == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        return np.column_stack(self.vectors)


def _realify(value, tol):
    value = complex(value)
    if abs(value.imag) <= tol:
        return complex(value.real, 0.0)
    return value


def _refine(collection, tol):
    """Candidate-subspace refinement.

    Start from the eigenspaces of the first matrix; against each further
    matrix A_r keep, inside each candidate span Q, only the directions c
    with A_r Q c = mu Q c for some eigenvalue mu of the compression
    Q* A_r Q.  Those are the kernel vectors of [compression - mu I]
    stacked on the out-of-span map (I - QQ*) A_r Q.

    Bases stay real as long as every eigenvalue on their refinement path
    is real, so conjugation-closed common eigenspaces come out with real
    bases and the complex ones appear in conjugate-tuple pairs.
    """
    first = collection.matrices[0]
    pairs = spectral.eigendecompose(first)
    clusters = {}
    for p in pairs:
        lam = _realify(p.eigenvalue, tol)
        for seen in clusters:
            if abs(seen - lam) <= tol * max(1.0, abs(seen)):
                break
        else:
            clusters[lam] = spectral.eigenspace_basis(
                first, lam, tol=tol * max(1.0, _max_abs(first)) * collection.n
            )
    subspaces = [(basis, [lam]) for lam, basis in clusters.items() if basis.shape[1]]

    for r in range(1, collection.N):
        A = collection.matrices[r]
        scale = max(1.0, _max_abs(A)) * collection.n
        survivors = []
        for Q, lams in subspaces:
            M = Q.conj().T @ (A @ Q)
            G = A @ Q - Q @ M
            seen = []
            for mu in spectral.eigenvalues(M):
                mu = _realify(mu, tol)
                if any(abs(mu - m) <= tol * max(1.0, abs(m)) for m in seen):
                    continue
                seen.append(mu)
                stacked = np.vstack([M - mu * np.eye(M.shape[0], dtype=M.dtype), G])
                _, Z = numeric.rank_and_nullspace(stacked, tol=tol * scale)
                if Z.shape[1]:
                    survivors.append((Q @ Z, lams + [mu]))
        subspaces = survivors
    return _pair_conjugate_subspaces(subspaces, tol)


def _pair_conjugate_subspaces(subspaces, tol):
    """Overwrite each complex-tuple subspace's conjugate partner with the
    literal conjugate basis, making the vector set conjugation-closed."""

    def is_real_tuple(lams):
        return all(l.imag == 0 for l in lams)

    def conj_match(lams_a, lams_b):
        return all(
            abs(np.conj(a) - b) <= tol * max(1.0, abs(a))
            for a, b in zip(lams_a, lams_b)
        )

    out = list(subspaces)
    done = [False] * len(out)
    for i, (Q_i, lams_i) in enumerate(out):
        if done[i] or is_real_tuple(lams_i):
            continue
        for j in range(i + 1, len(out)):
            Q_j, lams_j = out[j]
            if done[j] or Q_j.shape[1] != Q_i.shape[1]:
                continue
            if conj_match(lams_i, lams_j):
                out[j] = (np.conj(Q_i), [np.conj(l) for l in lams_i])
                done[i] = done[j] = True
                break
    return out


def _sort_key(lams, vector, kappa_member):
    # quantize the eigenvalue parts so the order is decided by genuine
    # differences, never by rounding noise; exact vector bytes break ties
    def q(value):
        return round(value, 6)

    parts = [0 if kappa_member else 1, q(-min(abs(l) for l in lams))]
    for lam in lams:
        parts.extend((q(-lam.real), q(-lam.imag)))
    parts.extend(q(-x) for x in vector.real)
    parts.extend(q(-x) for x in vector.imag)
    parts.append(vector.tobytes())
    return tuple(parts)


def common_eigenvectors(collection, tol=None):
    """Compute E', the eigenvalue table, kappa, and the conjugate pairs.

    The result is empty (d = 0) when the collection has no common
    eigenvectors; that is a value, not an error.
    """
    if tol is None:
        tol = spectral.CLUSTER_TOL
    subspaces = _refine(collection, tol)
    norms = [max(1.0, numeric.operator_norm(M)) for M in collection.matrices]

    entries = []
    for Q, _ in subspaces:
        for col in range(Q.shape[1]):
            v = spectral.canonical_phase(Q[:, col])
            lams = []
            ok = True
            for M, nrm in zip(collection.matrices, norms):
                image = numeric.mat_vec(M.astype(np.complex128), v)
                lam = complex(np.vdot(v, image))
                if abs(lam.imag) <= tol:
                    lam = complex(lam.real, 0.0)
                if np.linalg.norm(image - lam * v) > 10 * tol * nrm:
                    ok = False
                    break
                lams.append(lam)
            if ok:
                entries.append((v, lams))

    kappa_flags = [
        all(abs(abs(l) - 1.0) <= tol for l in lams) for _, lams in entries
    ]
    order = sorted(
        range(len(entries)),
        key=lambda i: _sort_key(entries[i][1], entries[i][0], kappa_flags[i]),
    )
    vectors = [entries[i][0] for i in order]
    table = np.array(
        [entries[i][1] for i in order], dtype=np.complex128
    ).reshape(len(order), collection.N)
    kappa = sum(kappa_flags)

    # literal conjugate pairs; enforce exact conjugacy on the second member
    s2 = []
    used = set()
    for s1 in range(len(vectors)):
        if s1 in used:
            continue
        v1 = vectors[s1]
        if np.max(np.abs(v1.imag)) <= CONJ_TOL:
            continue
        for s2_idx in range(s1 + 1, len(vectors)):
            if s2_idx in used:
                continue
            if np.max(np.abs(np.conj(v1) - vectors[s2_idx])) <= CONJ_TOL:
                vectors[s2_idx] = np.conj(v1)
                table[s2_idx] = np.conj(table[s1])
                s2.append((s1, s2_idx))
                used.update((s1, s2_idx))
                break
    return CommonEigenSystem(
        vectors=tuple(v.copy() for v in vectors),
        lambda_table=table,
        kappa=kappa,
        s2_pairs=tuple(s2),
        tol=tol,
    )


@dataclass(frozen=True)
class LCCoefficients:
    """Coefficients expressing a real vector over E' with the conjugate-pair
    and reality constraints of LC(E')."""

    alphas: np.ndarray
    residual: float


def lc_membership(x, system, tol=None):
    """Least-squares test of x against span(E') with the LC constraints.

    Returns :class:`LCCoefficients` when the residual is at most
    ``tol * (1 + ||x||)`` and the coefficients satisfy the conjugacy /
    reality constraints; otherwise None.
    """
    if system.d == 0:
        raise ValueError("common eigensystem is empty")
    if tol is None:
        tol = system.tol
    x = np.asarray(x, dtype=np.float64)
    V = system.basis_matrix()
    alphas, *_ = np.linalg.lstsq(V, x.astype(np.complex128), rcond=None)
    residual = float(np.linalg.norm(V @ alphas - x))
    atol = tol * (1.0 + float(np.linalg.norm(x)))
    if residual > atol:
        return None
    paired = system.paired_indices
    for s1, s2 in system.s2_pairs:
        if abs(alphas[s1] - np.conj(alphas[s2])) > atol:
            return None
    for s in range(system.d):
        if s not in paired and abs(alphas[s].imag) > atol:
            return None
    return LCCoefficients(alphas=alphas, residual=residual)


def _householder_unitary(v):
    """Hermitian unitary H mapping e_1 to a unit multiple of v.

    Any unit multiple works for deflation: H* A H then carries the
    eigenvalue of v in its (1, 1) corner with zeros below."""
    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    v = v / np.linalg.norm(v)
    pivot = v[0]
    alpha = 1.0 if pivot == 0 else pivot / abs(pivot)
    u = v + alpha * np.eye(n, dtype=np.complex128)[:, 0]
    nrm = np.linalg.norm(u)
    if nrm < 1e-14:  # unreachable for unit v, kept as a guard
        return np.eye(n, dtype=np.complex128)
    u = u / nrm
    return np.eye(n, dtype=np.complex128) - 2.0 * np.outer(u, u.conj())


def simultaneous_triangularization(collection, tol=None):
    """Unitary U with every U* A_r U upper triangular, or None.

    Deflation: find a common eigenvector of the (conjugated, deflated)
    family, rotate it to e_1, recurse on the trailing block.  Absence of a
    common eigenvector at any stage means no simultaneous triangularization
    is found by this route (for a McCoy family one always exists).
    """
    if tol is None:
        tol = spectral.CLUSTER_TOL
    n = collection.n
    U = np.eye(n, dtype=np.complex128)
    mats = [M.astype(np.complex128) for M in collection.matrices]
    for k in range(n - 1):
        blocks = [M[k:, k:] for M in mats]
        v = _common_eigenvector_of(blocks, tol)
        if v is None:
            return None
        H = _householder_unitary(v)
        full = np.eye(n, dtype=np.complex128)
        full[k:, k:] = H
        U = U @ full
        mats = [full.conj().T @ M @ full for M in mats]
    # verify triangularity below the diagonal
    for M in mats:
        lower = np.tril(M, k=-1)
        if _max_abs(lower) > 100 * tol * max(1.0, _max_abs(M)):
            return None
    return U


def _common_eigenvector_of(blocks, tol):
    """One common eigenvector of a list of complex square matrices, or None.

    Same refinement as :func:`common_eigenvectors` but over raw arrays (the
    deflated blocks are complex, so MatrixCollection does not apply)."""
    n = blocks[0].shape[0]
    if n == 1:
        return np.ones(1, dtype=np.complex128)
    first = blocks[0]
    scale0 = max(1.0, _max_abs(first)) * n
    seen = []
    subspaces = []
    for lam in spectral.eigenvalues(first):
        if any(abs(lam - m) <= tol * max(1.0, abs(m)) for m in seen):
            continue
        seen.append(lam)
        basis = spectral.eigenspace_basis(first, lam, tol=tol * scale0)
        if basis.shape[1]:
            subspaces.append(basis)
    for A in blocks[1:]:
        A = A.astype(np.complex128)
        scale = max(1.0, _max_abs(A)) * n
        survivors = []
        for Q in subspaces:
            M = Q.conj().T @ (A @ Q)
            G = A @ Q - Q @ M
            seen_mu = []
            for mu in spectral.eigenvalues(M):
                if any(abs(mu - m) <= tol * max(1.0, abs(m)) for m in seen_mu):
                    continue
                seen_mu.append(mu)
                stacked = np.vstack([M - mu * np.eye(M.shape[0]), G])
                _, Z = numeric.rank_and_nullspace(stacked, tol=tol * scale)
                if Z.shape[1]:
                    survivors.append(Q @ Z)
        subspaces = survivors
        if not subspaces:
            return None
    return spectral.canonical_phase(subspaces[0][:, 0])

"""Commutativity structure of a matrix family and its common eigenvectors.

Implements the pair classifications (commuting, quasi-commuting, Shemesh
partial commuting, Laffey) and the common-eigenvector refinement that
produces the eigenvalue table lambda[r, s], the modulus-one count kappa and
the conjugate-pair set S2.
"""

from dataclasses import dataclass

import numpy as np

from . import numeric, spectral
from .exceptions import DimensionMismatch, NonFiniteValue


def commutator(A, B):
    """[A, B] = AB - BA."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return numeric.mat_mul(A, B) - numeric.mat_mul(B, A)


def _max_abs(M):
    return float(np.max(np.abs(M))) if np.asarray(M).size else 0.0


def _compress(A, Q):
    """``(M, G)``: the compression M = Q* A Q of A to span(Q), and the
    out-of-span map G = A Q - Q M, which vanishes exactly when span(Q) is
    A-invariant (Q orthonormal)."""
    AQ = A @ Q
    M = Q.conj().T @ AQ
    return M, AQ - Q @ M


def shemesh_subspace(A, B):
    """Orthonormal basis of Shemesh's subspace N, the intersection of
    ker([A^k, B^l]) over 1 <= k, l <= n-1.

    N is the largest A,B-invariant subspace inside ker[A, B], so it is
    computed by refinement (:func:`_rank_and_shemesh`): start from
    V = ker[A, B] (singular values cut at ``RANK_TOL * max(1, |A||B|) * n``)
    and keep V <- {v in V : Av, Bv in V} until no direction is lost, with
    the out-of-span maps of A and B scaled by ``max(1, |M|) * n`` and cut
    at ``RANK_TOL``.  Each round loses a direction or stops, so the cost
    is one n x n SVD of [A, B] plus at most n SVDs of 2n x dim(V) stacks:
    O(n^4) flops at worst, O(n^3) when ker[A, B] is trivial.
    :func:`classify_pair` and the pair classes of ``validate`` run the
    same refinement from the same SVD, which also gives them the rank
    of [A, B], so a pair is factorised once.

    The subspace is nontrivial exactly when the pair has a common
    eigenvector; both matrices leave it invariant and commute on it.
    """
    A = numeric.require_square(np.asarray(A, dtype=np.float64))
    B = numeric.require_square(np.asarray(B, dtype=np.float64))
    return _rank_and_shemesh(A, B, commutator(A, B), _scale(A, B))[1]


def _rank_and_shemesh(A, B, C, scale):
    """``(rank of C, Shemesh basis)`` of the pair A, B with commutator C
    and :func:`_scale`, from one SVD of C cut at ``RANK_TOL * scale`` for
    the rank and at that cut times n for the start of the refinement
    that :func:`shemesh_subspace` describes."""
    tol = numeric.RANK_TOL
    n = A.shape[0]
    (rank, _), (_, V) = numeric._nullspaces(C, (tol * scale, tol * scale * n))
    scales = [max(1.0, _max_abs(M)) * n for M in (A, B)]
    while V.shape[1]:
        stacked = np.vstack([_compress(M, V)[1] / s for M, s in zip((A, B), scales)])
        _, Z = numeric.rank_and_nullspace(stacked, tol=tol)
        if Z.shape[1] == V.shape[1]:
            break
        V = V @ Z
    return rank, V


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


def _scale(A, B, pair=("A", "B")):
    """max(1, |A| |B|), the scale of every commutator test of the pair
    named ``pair``.  A scale that overflows would pass every commutator,
    so it raises :class:`NonFiniteValue` naming the pair."""
    scale = max(1.0, _max_abs(A) * _max_abs(B))
    if not np.isfinite(scale):
        raise NonFiniteValue(
            f"the commutator scale |{pair[0]}| |{pair[1]}| of the pair "
            f"{pair[0]}, {pair[1]} is not finite")
    return scale


def _commutes(C, scale, tol):
    """The commuting test: C = [A, B] at most ``tol * scale`` in max norm."""
    return _max_abs(C) <= tol * scale


def _commutes_with_commutator(M, C, scale, tol):
    """The quasi-commuting side test for M, a member of the pair with
    commutator ``C`` and :func:`_scale` ``scale``."""
    return _max_abs(commutator(M, C)) <= tol * scale * max(1.0, _max_abs(M))


def _classification(A, B, C, scale):
    """:class:`PairClassification` of the pair A, B from its commutator C
    and :func:`_scale`."""
    tol = numeric.RANK_TOL
    quasi = (_commutes_with_commutator(A, C, scale, tol)
             and _commutes_with_commutator(B, C, scale, tol))
    rank, basis = _rank_and_shemesh(A, B, C, scale)
    return PairClassification(
        commuting=_commutes(C, scale, tol),
        quasi_commuting=quasi,
        laffey=rank == 1,
        shemesh_dimension=basis.shape[1],
        commutator_rank=rank,
    )


def classify_pair(A, B, pair=("A", "B")):
    """Classify one pair of matrices, named ``pair`` in errors; see
    :class:`PairClassification`."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return _classification(A, B, commutator(A, B), _scale(A, B, pair))


def pair_table(collection):
    """``(products, commutators)``: the pair pass of a collection, formed
    once and shared by ``validate``, :func:`pair_classes`,
    :func:`is_quasi_commuting` and the q2 hypothesis check.

    ``products`` maps each two-letter word rs (r != s, r then s in letter
    order) to its product A_s A_r, each checked finite and named by its
    word.  ``commutators`` lists ``(r, s, C, scale)`` for each pair r < s:
    C = [A_r, A_s] is the product of sr minus that of rs, and scale is
    :func:`_scale`, checked only after every product, so an overflowing
    product is the first error an input reports.  The arrays are
    read-only.
    """
    return collection._memoised(("pair_table",), lambda: _pair_table(collection))


def _pair_table(collection):
    names, mats = collection.names, collection.matrices
    products = {}
    for r in range(collection.N):
        for s in range(collection.N):
            if r != s:
                word = names[r] + names[s]
                products[word] = numeric.require_finite(
                    numeric.mat_mul(mats[s], mats[r]),
                    what=f"the product of the two-letter word {word}")
    pairs = [(r, s) for r in range(collection.N) for s in range(r + 1, collection.N)]
    scales = [_scale(mats[r], mats[s], (names[r], names[s])) for r, s in pairs]
    commutators = tuple(
        (r, s, products[names[s] + names[r]] - products[names[r] + names[s]], scale)
        for (r, s), scale in zip(pairs, scales))
    for array in [*products.values(), *(C for _, _, C, _ in commutators)]:
        array.setflags(write=False)
    return products, commutators


def pair_classes(collection):
    """:class:`PairClassification` of each pair r < s of a collection, in
    :func:`pair_table` order, from its shared commutators; computed once
    per collection."""
    return collection._memoised(("pair_classes",), lambda: tuple(
        _classification(collection.matrices[r], collection.matrices[s], C, scale)
        for r, s, C, scale in pair_table(collection)[1]))


def is_quasi_commuting(collection):
    """True when every pair commutes with its commutator.

    Returns ``(flag, witness)`` where the witness names the first violating
    triple (r, s, side) or is None.
    """
    names = collection.names
    for r, s, C, scale in pair_table(collection)[1]:
        for side in (r, s):
            if not _commutes_with_commutator(collection.matrices[side], C, scale,
                                             numeric.RANK_TOL):
                return False, (names[r], names[s], names[side])
    return True, None


@dataclass(frozen=True)
class CommonEigenSystem:
    """The set E' of common eigenvectors of a collection.

    ``vectors[s]`` is a unit, phase-canonicalised complex n-vector;
    ``lambda_table[s, r]`` its eigenvalue for the r-th matrix.  Vectors are
    ordered with the modulus-one block first: ``s < kappa`` exactly when
    every ``|lambda_table[s, r]|`` is within tolerance of one.  ``s2_pairs``
    lists index pairs of literal conjugate vectors.  The arrays are
    read-only: a collection shares its system.
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
        return {s for pair in self.s2_pairs for s in pair}

    def basis_matrix(self):
        """n x d matrix with the common eigenvectors as columns."""
        if self.d == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        return np.column_stack(self.vectors)


def _first_basis(A, lam, group, cut):
    """Basis of the eigenspace of A at lam.  When ``group``, the eigenpairs
    of A near lam, is one whole cluster of its eigendecomposition, that is
    their vectors, made real when they are; a group that merges or splits
    clusters takes the SVD nullspace cut at ``cut``."""
    number, geometric = group[0].cluster, group[0].geometric
    if len(group) != geometric or any(p.cluster != number for p in group):
        return spectral.eigenspace_basis(A, lam, tol=cut)
    basis = np.column_stack([p.eigenvector for p in group])
    return basis if basis.imag.any() else basis.real


def _refine(matrices, tol, first_pairs):
    """Candidate-subspace refinement over a list of square matrices.

    Start from the eigenspaces of the first matrix, at the distinct
    eigenvalues of ``first_pairs``, its
    :func:`~matword.spectral.eigendecompose`, whose vectors they reuse
    (:func:`_first_basis`); against each further matrix A_r keep, inside
    each candidate span Q, only the directions c with A_r Q c = mu Q c for
    some eigenvalue mu of the compression Q* A_r Q.  Those are the kernel
    vectors of [compression - mu I] stacked on the out-of-span map
    (I - QQ*) A_r Q.  A single column is kept or dropped whole: kept when
    that (n+1) x 1 stack has norm at most the cut, which is the rank
    decision :func:`~matword.numeric.rank_and_nullspace` makes on it.

    Returns ``(basis, eigenvalue list)`` pairs.  Bases stay real as long
    as every eigenvalue on their refinement path is real, so
    conjugation-closed common eigenspaces come out with real bases and the
    complex ones appear in conjugate-tuple pairs.
    """
    first = matrices[0]
    n = first.shape[0]
    cut = tol * max(1.0, _max_abs(first)) * n
    subspaces = []
    for lam, members in spectral.cluster([p.eigenvalue for p in first_pairs], tol):
        basis = _first_basis(first, lam, [first_pairs[i] for i in members], cut)
        if basis.shape[1]:
            subspaces.append((basis, [lam]))

    for A in matrices[1:]:
        scale = max(1.0, _max_abs(A)) * n
        survivors = []
        for Q, lams in subspaces:
            M, G = _compress(A, Q)
            if Q.shape[1] == 1:
                mu = spectral.realify(M[0, 0], tol)
                stacked = numeric.require_finite(np.vstack([M - mu, G]))
                if numeric.vector_norm(stacked[:, 0]) <= tol * scale:
                    survivors.append((Q, lams + [mu]))
                continue
            for mu, _ in spectral.cluster(spectral.eigenvalues(M), tol):
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


def _sort_key(lams, kappa_member, vector):
    """An entry's sort key: the eigenvalue part rounded to 6 decimals as
    Python numbers, the vector components rounded alike as numpy floats
    (an array's ``round`` rounds each entry as ``round`` does a numpy
    float), so genuine differences decide, never rounding noise; then the
    exact vector bytes break the remaining ties."""
    lams = [complex(l) for l in lams]
    head = [0 if kappa_member else 1, round(-min(abs(l) for l in lams), 6)]
    head += [round(-part, 6) for lam in lams for part in (lam.real, lam.imag)]
    tail = (-np.concatenate((vector.real, vector.imag))).round(6).tolist()
    return tuple(head + tail + [vector.tobytes()])


def common_eigenvectors(collection, tol=numeric.CLUSTER_TOL):
    """Compute E', the eigenvalue table, kappa, and the conjugate pairs.

    The result is empty (d = 0) when the collection has no common
    eigenvectors; that is a value, not an error.  It is computed once per
    collection and ``tol``.
    """
    return collection._memoised(("common_eigenvectors", tol),
                                lambda: _common_eigenvectors(collection, tol))


def _common_eigenvectors(collection, tol):
    subspaces = _refine(collection.matrices, tol, collection._eigenpairs(0))
    V = spectral.canonical_phases(
        np.hstack([Q for Q, _ in subspaces]) if subspaces
        else np.zeros((collection.n, 0)))

    # Rayleigh quotients and residuals of every candidate column at once;
    # a column is kept when every matrix maps it within tolerance
    table = np.empty((V.shape[1], collection.N), dtype=np.complex128)
    ok = np.ones(V.shape[1], dtype=bool)
    for r, M in enumerate(collection.matrices):
        image = numeric.mat_mul(M.astype(np.complex128), V)
        table[:, r] = lams = spectral.realify_all(numeric.column_dots(V, image), tol)
        bound = numeric.SLACK * tol * max(1.0, numeric.vector_norm(M.ravel()))
        ok &= numeric.column_norms(image - V * lams) <= bound
    kept = np.flatnonzero(ok)
    table = table[kept]
    candidates = V.T[kept]

    kappa_flags = np.all(np.abs(np.abs(table) - 1.0) <= tol, axis=1)
    order = sorted(range(len(candidates)), key=lambda i: _sort_key(
        table[i], kappa_flags[i], candidates[i]))
    vectors = [candidates[i] for i in order]
    table = table[order]
    kappa = int(kappa_flags.sum())

    # literal conjugate pairs; enforce exact conjugacy on the second member
    s2 = []
    used = set()
    for s1 in range(len(vectors)):
        if s1 in used:
            continue
        v1 = vectors[s1]
        if np.max(np.abs(v1.imag)) <= numeric.CONJ_TOL:
            continue
        for s2_idx in range(s1 + 1, len(vectors)):
            if s2_idx in used:
                continue
            if np.max(np.abs(np.conj(v1) - vectors[s2_idx])) <= numeric.CONJ_TOL:
                vectors[s2_idx] = np.conj(v1)
                table[s2_idx] = np.conj(table[s1])
                s2.append((s1, s2_idx))
                used.update((s1, s2_idx))
                break
    vectors = tuple(v.copy() for v in vectors)
    for array in vectors + (table,):
        array.setflags(write=False)
    return CommonEigenSystem(
        vectors=vectors,
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
    tol = system.tol if tol is None else tol
    x = numeric.require_finite(np.asarray(x, dtype=np.float64), what="vector")
    V = numeric.require_finite(system.basis_matrix())
    alphas, *_ = np.linalg.lstsq(V, x.astype(np.complex128), rcond=None)
    residual = numeric.vector_norm(V @ alphas - x)
    atol = tol * (1.0 + numeric.vector_norm(x))
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

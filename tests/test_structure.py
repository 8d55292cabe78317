import numpy as np
import pytest

from matword import corpus, numeric, structure
from matword.collection import MatrixCollection

ENTRIES = corpus.build_corpus()


def brute_force_shemesh(A, B):
    """Independent oracle: stack every [A^k, B^l] and take the SVD nullspace."""
    n = A.shape[0]
    rows = []
    for k in range(1, n):
        for l in range(1, n):
            Ak = np.linalg.matrix_power(A, k)
            Bl = np.linalg.matrix_power(B, l)
            rows.append(Ak @ Bl - Bl @ Ak)
    stack = np.vstack(rows)
    _, s, Vh = np.linalg.svd(stack)
    keep = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    return Vh[keep:].conj().T


def test_commutator_examples():
    e2 = ENTRIES["example2"].collection
    assert np.max(np.abs(structure.commutator(e2["A"], e2["B"]))) <= 1e-12
    e7 = ENTRIES["example7"].collection
    C = structure.commutator(e7["A"], e7["B"])
    rank, _ = numeric.rank_and_nullspace(C)
    assert rank == 1
    A = e7["A"]
    assert np.max(np.abs(structure.commutator(A, A))) == 0.0


def test_shemesh_commuting_pair_full_space():
    e2 = ENTRIES["example2"].collection
    basis = structure.shemesh_subspace(e2["A"], e2["B"])
    assert basis.shape == (6, 6)


def test_shemesh_example7_line():
    e7 = ENTRIES["example7"].collection
    basis = structure.shemesh_subspace(e7["A"], e7["B"])
    oracle = brute_force_shemesh(np.asarray(e7["A"]), np.asarray(e7["B"]))
    assert basis.shape == (2, 1) and oracle.shape == (2, 1)
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(basis[:, 0] - target),
               np.linalg.norm(basis[:, 0] + target)) <= 1e-10
    assert abs(abs(np.vdot(oracle[:, 0], basis[:, 0])) - 1.0) <= 1e-10


def test_shemesh_example6_line():
    e6 = ENTRIES["example6"].collection
    basis = structure.shemesh_subspace(e6["A"], e6["B"])
    oracle = brute_force_shemesh(np.asarray(e6["A"]), np.asarray(e6["B"]))
    assert basis.shape[1] == 1
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-10)
    assert abs(abs(np.vdot(oracle[:, 0], basis[:, 0])) - 1.0) <= 1e-10


def test_shemesh_invariance_property():
    for name in ("example4", "example5", "example6", "example7"):
        coll = ENTRIES[name].collection
        A = np.asarray(coll["A"], dtype=float)
        B = np.asarray(coll["B"], dtype=float)
        Q = structure.shemesh_subspace(A, B)
        if Q.shape[1] == 0:
            continue
        P = np.eye(coll.n) - Q @ Q.conj().T
        assert np.max(np.abs(P @ (A @ Q))) <= 1e-9
        assert np.max(np.abs(P @ (B @ Q))) <= 1e-9
        assert np.max(np.abs((A @ B - B @ A) @ Q)) <= 1e-9


def test_classify_pair_example3_commuting():
    e3 = ENTRIES["example3"].collection
    cls = structure.classify_pair(e3["A"], e3["B"])
    assert cls.commuting and cls.quasi_commuting and not cls.laffey
    assert cls.shemesh_dimension == 7


def test_classify_pair_example7_laffey():
    e7 = ENTRIES["example7"].collection
    cls = structure.classify_pair(e7["A"], e7["B"])
    assert not cls.commuting and cls.laffey and cls.commutator_rank == 1
    assert cls.partially_commuting


def test_classify_pair_example4_partial():
    e4 = ENTRIES["example4"].collection
    cls = structure.classify_pair(e4["A"], e4["B"])
    assert not cls.commuting
    assert cls.shemesh_dimension >= 5


def test_quasi_commuting_collection():
    e2 = ENTRIES["example2"].collection
    flag, witness = structure.is_quasi_commuting(e2)
    assert flag and witness is None

    # the commuting non-diagonalizable pair of upper triangulars
    pair = MatrixCollection(
        names=("A", "B"),
        matrices=(np.array([[1.0, 1.0], [0.0, 1.0]]),
                  np.array([[1.0, 2.0], [0.0, 1.0]])),
    )
    flag, _ = structure.is_quasi_commuting(pair)
    assert flag

    e7 = ENTRIES["example7"].collection
    flag, witness = structure.is_quasi_commuting(e7)
    # direct oracle: [A, [A, B]] is visibly nonzero
    A, B = np.asarray(e7["A"]), np.asarray(e7["B"])
    C = A @ B - B @ A
    assert np.max(np.abs(A @ C - C @ A)) > 1e-3
    assert not flag and witness is not None


def test_common_eigenvectors_example2():
    entry = ENTRIES["example2"]
    system = structure.common_eigenvectors(entry.collection)
    assert system.d == 6
    assert system.kappa == 2
    # the v2 row: eigenvalue -1 for both letters
    idx = None
    for s in range(system.d):
        v = system.vectors[s]
        target = entry.vectors["v2"] / np.linalg.norm(entry.vectors["v2"])
        if np.linalg.norm(v - target * np.vdot(target, v) / abs(np.vdot(target, v) or 1)) <= 1e-8:
            idx = s
    assert idx is not None and idx < system.kappa
    np.testing.assert_allclose(system.lambda_table[idx], [-1.0, -1.0], atol=1e-9)
    # conjugate pair v3/v4 detected
    assert len(system.s2_pairs) == 1
    s1, s2 = system.s2_pairs[0]
    np.testing.assert_array_equal(system.vectors[s2], np.conj(system.vectors[s1]))


def test_common_eigenvectors_example4():
    system = structure.common_eigenvectors(ENTRIES["example4"].collection)
    assert system.d == 5
    assert system.kappa == 2


def test_common_eigenvectors_example5():
    system = structure.common_eigenvectors(ENTRIES["example5"].collection)
    assert system.d == 6
    assert system.kappa == 5
    moduli = np.abs(system.lambda_table)
    for s in range(system.d):
        if s < system.kappa:
            assert np.all(np.abs(moduli[s] - 1.0) <= 1e-8)
        else:
            assert np.any(moduli[s] < 1.0 - 1e-8)


def test_common_eigenvectors_residuals():
    for name in ("example2", "example3", "example4", "example5"):
        coll = ENTRIES[name].collection
        system = structure.common_eigenvectors(coll)
        for s, v in enumerate(system.vectors):
            for r, M in enumerate(coll.matrices):
                lam = system.lambda_table[s, r]
                res = np.linalg.norm(np.asarray(M, dtype=complex) @ v - lam * v)
                assert res <= 1e-7


def test_laffey_implies_common_eigenvector():
    system = structure.common_eigenvectors(ENTRIES["example7"].collection)
    assert system.d >= 1


def test_commuting_diagonalizable_full_basis():
    for name in ("example2", "example3"):
        coll = ENTRIES[name].collection
        system = structure.common_eigenvectors(coll)
        assert system.d == coll.n
        V = system.basis_matrix()
        assert np.linalg.matrix_rank(V) == coll.n


def test_unitary_conjugation_equivariance():
    rng = np.random.default_rng(17)
    coll = ENTRIES["example2"].collection
    base = structure.common_eigenvectors(coll)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    conj = MatrixCollection(
        names=coll.names,
        matrices=tuple(Q.T @ np.asarray(M) @ Q for M in coll.matrices),
    )
    # conjugated family is no longer nonnegative, but the computation is
    # purely spectral; compare the spans via the lambda tables
    moved = structure.common_eigenvectors(conj)
    assert moved.d == base.d
    for s in range(base.d):
        v = Q.T @ base.vectors[s]
        v = v / np.linalg.norm(v)
        assert any(
            np.linalg.norm(v - w * np.exp(1j * np.angle(np.vdot(w, v)))) <= 1e-8
            for w in moved.vectors
        )


def test_lc_membership_exact_combination():
    entry = ENTRIES["example2"]
    system = structure.common_eigenvectors(entry.collection)
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    coeffs = structure.lc_membership(x, system)
    assert coeffs is not None
    assert coeffs.residual <= 1e-10
    recon = system.basis_matrix() @ coeffs.alphas
    np.testing.assert_allclose(np.real(recon), x, atol=1e-10)
    assert np.max(np.abs(np.imag(recon))) <= 1e-10


def test_lc_membership_conjugate_pair():
    entry = ENTRIES["example2"]
    system = structure.common_eigenvectors(entry.collection)
    x = np.real(entry.vectors["v3"] + entry.vectors["v4"])
    np.testing.assert_allclose(x, [2, 0, -2, 0, 0, 0], atol=1e-12)
    coeffs = structure.lc_membership(x, system)
    assert coeffs is not None
    (s1, s2), = system.s2_pairs
    assert abs(coeffs.alphas[s1] - np.conj(coeffs.alphas[s2])) <= 1e-10


def test_lc_membership_rejects_noncommon_direction():
    entry = ENTRIES["example4"]
    system = structure.common_eigenvectors(entry.collection)
    e5 = np.zeros(6)
    e5[4] = 1.0
    # oracle: least squares against the five reference common eigenvectors
    V = np.column_stack([entry.vectors[k] for k in ("v1", "v2", "v3", "v4", "v5")])
    alphas, *_ = np.linalg.lstsq(V, e5.astype(complex), rcond=None)
    oracle_residual = np.linalg.norm(V @ alphas - e5)
    assert oracle_residual > 0.5  # bounded away from zero (= 1/sqrt(2))
    assert structure.lc_membership(e5, system) is None


def _unit_radius(M):
    return M / np.max(np.abs(np.linalg.eigvals(M)))


def _generic_pair(rng, n):
    return [_unit_radius(rng.uniform(size=(n, n))) for _ in range(2)], 0


def _circulant_block_pair(rng, n):
    """Block upper-triangular pair whose leading k x k blocks are commuting
    circulants, so span(e_1 .. e_k) is a common invariant subspace."""
    k = int(rng.integers(1, n))
    cycle = np.roll(np.eye(k), 1, axis=0)
    mats = []
    for _ in range(2):
        M = rng.uniform(size=(n, n))
        M[k:, :k] = 0.0
        M[:k, :k] = sum(w * np.linalg.matrix_power(cycle, j)
                        for j, w in enumerate(rng.uniform(0.1, 1.0, size=k)))
        mats.append(_unit_radius(M))
    return mats, k


def _oblique_block_pair(rng, n):
    """A planted k-dim common block in a random orthonormal frame: the
    leading blocks are two polynomials in one random k x k matrix."""
    k = int(rng.integers(1, n))
    R = rng.normal(size=(k, k))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mats = []
    for block in (R, R @ R - 0.5 * R + np.eye(k)):
        M = rng.normal(size=(n, n))
        M[k:, :k] = 0.0
        M[:k, :k] = block
        mats.append(_unit_radius(Q @ M @ Q.T))
    return mats, k


def _rank_two_commutator_pair(rng, n):
    """B = p(A) + u v^T with A leaving span(e_1 .. e_k) invariant and v
    orthogonal to it.  ker[A, B] = {x : v.x = v.Ax = 0} has dimension n - 2
    but is not A-invariant; the Shemesh subspace is the largest A-invariant
    subspace orthogonal to v, generically span(e_1 .. e_k)."""
    k = int(rng.integers(0, n - 1))
    A = rng.normal(size=(n, n))
    A[k:, :k] = 0.0
    u, v = rng.normal(size=(2, n))
    v[:k] = 0.0
    B = A @ A - 0.5 * A + np.eye(n) + np.outer(u, v)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return [_unit_radius(Q @ M @ Q.T) for M in (A, B)], k


@pytest.mark.parametrize("make", [_generic_pair, _circulant_block_pair,
                                  _oblique_block_pair, _rank_two_commutator_pair])
def test_shemesh_subspace_matches_stacked_commutator_oracle(make):
    rng = np.random.default_rng(31)
    for n in range(3, 10):
        for _ in range(4):
            (A, B), k = make(rng, n)
            V = structure.shemesh_subspace(A, B)
            W = brute_force_shemesh(A, B)
            assert V.shape[1] == W.shape[1] >= k
            assert np.max(np.abs(V @ V.T - W @ W.T)) <= 1e-8
            np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)
            if V.shape[1]:
                P = np.eye(n) - V @ V.T
                assert np.max(np.abs(P @ A @ V)) <= 1e-9
                assert np.max(np.abs(P @ B @ V)) <= 1e-9
                assert np.max(np.abs((A @ B - B @ A) @ V)) <= 1e-9


def test_analysis_sweep_is_pinned():
    """The seeded 185-family sweep of ``tests/analysis_sweep.py``.  The
    verdict hash covers discrete results only and must not move with the
    floating-point route; the bits hash pins the floats on this platform."""
    from analysis_sweep import digests, outcomes

    verdict, bits = digests(list(outcomes()))
    assert verdict == "31d4f1bd81228ee62b525afa4bf19869ffaccd92450a8f3f3798346fa4cf6195"
    assert bits == "c95fff911f00ab5370a98413d5969dc451db13f62969e5b8d9321ce609247fc9"

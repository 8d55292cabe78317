import os
import subprocess
import sys

import numpy as np
import pytest

import matword
from matword import corpus, spectral
from matword.exceptions import NotRootOfUnity, Reducible

ENTRIES = corpus.build_corpus()
J2 = corpus.J2
J3 = corpus.J3
J4 = corpus.J4


def test_example2_spectrum():
    A = ENTRIES["example2"].collection["A"]
    want = np.array([1, 1, -1, 1j, -1j, -1 / 3], dtype=complex)
    assert corpus.spectra_match(spectral.eigenvalues(A), want, 1e-8)


def test_j2_eigenpairs():
    pairs = spectral.eigendecompose(J2)
    assert corpus.spectra_match([p.eigenvalue for p in pairs], [1, -1], 1e-12)
    by_val = {round(p.eigenvalue.real): p.eigenvector for p in pairs}
    np.testing.assert_allclose(np.abs(by_val[1]), np.ones(2) / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(by_val[-1]), np.ones(2) / np.sqrt(2), atol=1e-12)


def test_defective_jordan_block_flagged():
    pairs = spectral.eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert len(pairs) == 1
    p = pairs[0]
    assert p.eigenvalue == pytest.approx(1.0)
    assert p.algebraic == 2 and p.geometric == 1 and p.defective
    np.testing.assert_allclose(np.abs(p.eigenvector), [1.0, 0.0], atol=1e-12)


def test_spectral_radius_example6_product():
    coll = ENTRIES["example6"].collection
    rho = spectral.spectral_radius(np.asarray(coll["A"]) @ np.asarray(coll["B"]))
    assert rho == pytest.approx((2 + np.sqrt(3)) / 3, rel=1e-9)


def test_spectral_radius_example7_product():
    coll = ENTRIES["example7"].collection
    product = np.asarray(coll["A"]) @ np.asarray(coll["B"])
    assert spectral.spectral_radius(product) == pytest.approx(1.0, rel=1e-9)
    assert corpus.spectra_match(spectral.eigenvalues(product), [1.0, 1 / 15], 1e-9)


def test_spectral_radius_diagonal():
    assert spectral.spectral_radius(np.diag([0.5, 1 / 3])) == pytest.approx(0.5)


def test_root_of_unity_order():
    assert spectral.root_of_unity_order(1j, 8) == 4
    omega = np.exp(2j * np.pi / 3)
    assert spectral.root_of_unity_order(omega, 8) == 3
    assert spectral.root_of_unity_order(0.9, 8) is None
    assert spectral.root_of_unity_order(-1.0, 1) is None
    assert spectral.root_of_unity_order(1.0, 1) == 1


def test_root_of_unity_exponent():
    """k with lambda = exp(2 pi i k / q), when lambda's order divides q."""
    assert spectral.root_of_unity_exponent(1j, 8) == 2
    assert spectral.root_of_unity_exponent(-1j, 4) == 3
    assert spectral.root_of_unity_exponent(np.exp(2j * np.pi * 5 / 6), 12) == 10
    assert spectral.root_of_unity_exponent(1.0, 3) == 0
    assert spectral.root_of_unity_exponent(1j, 6) is None  # order 4 does not divide 6
    assert spectral.root_of_unity_exponent(0.9, 4) is None


def test_zero_radius_is_subcritical_in_any_band():
    report = spectral.peripheral_period(np.zeros((2, 2)), rho_tol=1.0)
    assert report.rho == 0.0 and report.q_r == 1


def test_peripheral_period_example2():
    report = spectral.peripheral_period(ENTRIES["example2"].collection["A"])
    assert report.q_r == 4
    assert sorted(report.orders) == [1, 1, 2, 4, 4]
    report_b = spectral.peripheral_period(ENTRIES["example2"].collection["B"])
    assert report_b.q_r == 2


def test_peripheral_period_example3_B():
    report = spectral.peripheral_period(ENTRIES["example3"].collection["B"])
    assert report.q_r == 3


def test_peripheral_period_j2():
    report = spectral.peripheral_period(J2)
    assert report.q_r == 2
    assert report.rho == pytest.approx(1.0)


def test_peripheral_period_subcritical():
    report = spectral.peripheral_period(np.diag([0.5, 0.25]))
    assert report.q_r == 1


def test_peripheral_period_supercritical():
    report = spectral.peripheral_period(np.diag([2.0, 0.5]))
    assert report.q_r is None


def test_peripheral_period_rejects_negative():
    with pytest.raises(ValueError):
        spectral.peripheral_period(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_index_of_imprimitivity():
    assert spectral.index_of_imprimitivity(J4) == 4
    assert spectral.index_of_imprimitivity(J3) == 3
    assert spectral.index_of_imprimitivity(np.array([[1, 2], [2, 1]]) / 3.0) == 1


def test_index_of_imprimitivity_reducible():
    with pytest.raises(Reducible):
        spectral.index_of_imprimitivity(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_conjugate_closure_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        A = rng.uniform(size=(6, 6))
        vals = spectral.eigenvalues(A)
        assert corpus.spectra_match(vals, np.conj(vals), 1e-9)


def test_residual_bound_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        A = rng.uniform(size=(5, 5))
        norm = np.linalg.norm(A, 2)
        for p in spectral.eigendecompose(A):
            if p.algebraic == 1:
                assert p.residual <= 1e-9 * max(1.0, norm)


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(43)
    A = rng.uniform(size=(6, 6))
    first = spectral.eigendecompose(A)
    second = spectral.eigendecompose(A.copy())
    for p, q in zip(first, second):
        assert p.eigenvalue == q.eigenvalue
        assert p.eigenvector.tobytes() == q.eigenvector.tobytes()


def test_phase_canonicalization():
    rng = np.random.default_rng(44)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        canon = spectral.canonical_phases(v[:, None])[:, 0]
        assert np.linalg.norm(canon) == pytest.approx(1.0, abs=1e-12)
        idx = int(np.argmax(np.abs(canon)))
        assert canon[idx].imag == 0.0 and canon[idx].real > 0
        # canonicalisation of any rescaling agrees
        again = spectral.canonical_phases((v * (2.3 - 1.7j))[:, None])[:, 0]
        np.testing.assert_allclose(canon, again, atol=1e-12)


def test_peripheral_orders_satisfy_definition():
    for name in ("example2", "example3", "example5"):
        coll = ENTRIES[name].collection
        for M in coll.matrices:
            report = spectral.peripheral_period(M)
            for pair, order in zip(report.peripheral, report.orders):
                assert abs(pair.eigenvalue**order - 1.0) <= 1e-7


def test_no_root_of_unity_error_on_corpus():
    # spectral-radius-one nonnegative matrices in the corpus never trigger it
    for entry in ENTRIES.values():
        for M in entry.collection.matrices:
            try:
                spectral.peripheral_period(M)
            except NotRootOfUnity as exc:  # pragma: no cover
                pytest.fail(f"unexpected NotRootOfUnity on {entry.name}: {exc}")


def _closure_irreducible(A):
    """Oracle: (I + P)^(n-1) > 0 entrywise for the 0/1 pattern P."""
    n = A.shape[0]
    step = np.eye(n, dtype=np.int64) + (A != 0)
    reach = np.linalg.matrix_power(step, n - 1)
    return bool(np.all(reach > 0))


def test_is_irreducible_matches_transitive_closure():
    cases = [np.zeros((n, n)) for n in range(1, 5)] + [J2, J3, J4]
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        for density in (0.15, 0.3, 0.5):
            for _ in range(25):
                cases.append(rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < density))
    verdicts = [spectral.is_irreducible(A) for A in cases]
    assert verdicts == [_closure_irreducible(A) for A in cases]
    assert verdicts[:7] == [True, False, False, False, True, True, True]
    assert 0 < sum(verdicts) < len(verdicts)


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(matword.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    code = "import sys, matword; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _count_svds(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_simple_clusters_take_eigs_column(monkeypatch):
    """A simple spectrum costs one eig and no SVD, and each pair's vector
    is eig's column canonicalised, bit for bit."""
    calls = _count_svds(monkeypatch)
    rng = np.random.default_rng(45)
    for n in (1, 2, 5, 9):
        A = rng.uniform(size=(n, n))
        pairs = spectral.eigendecompose(A)
        vals, vecs = np.linalg.eig(A)
        assert len(pairs) == n
        for p in pairs:
            assert (p.algebraic, p.geometric) == (1, 1)
            j = int(np.argmin(np.abs(vals - p.eigenvalue)))
            assert same_bytes(p.eigenvector,
                              spectral.canonical_phases(vecs[:, j:j + 1])[:, 0])
        assert len({p.cluster for p in pairs}) == n
    assert calls[0] == 0


def test_repeated_clusters_keep_the_rank_decision(monkeypatch):
    """Repeated clusters still take an SVD nullspace: a Jordan block stays
    defective and the identity keeps geometric multiplicity n."""
    calls = _count_svds(monkeypatch)
    pairs = spectral.eigendecompose(np.array([[1.0, 1.0, 0.0],
                                              [0.0, 1.0, 0.0],
                                              [0.0, 0.0, 0.5]]))
    assert [(p.algebraic, p.geometric, p.defective) for p in pairs] == [
        (2, 1, True), (1, 1, False)]
    assert calls[0] == 1
    pairs = spectral.eigendecompose(np.eye(4))
    assert [(p.algebraic, p.geometric, p.cluster) for p in pairs] == [(4, 4, 0)] * 4
    np.testing.assert_allclose(np.column_stack([p.eigenvector for p in pairs]).conj().T
                               @ np.column_stack([p.eigenvector for p in pairs]),
                               np.eye(4), atol=1e-15)
    assert calls[0] == 2


def test_conjugate_eigenpairs_are_literal_conjugates():
    """Equal values entry by entry; both pivots carry a +0 imaginary part."""
    rng = np.random.default_rng(46)
    seen = 0
    for _ in range(25):
        pairs = spectral.eigendecompose(rng.uniform(size=(6, 6)))
        for p, q in zip(pairs, pairs[1:]):
            if p.eigenvalue.imag > 0:
                assert q.eigenvalue == p.eigenvalue.conjugate()
                assert np.array_equal(q.eigenvector, np.conj(p.eigenvector))
                seen += 1
    assert seen >= 25


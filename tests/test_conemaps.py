import warnings

import numpy as np
import pytest

from helpers import bits_equal, random_commuting_collection, random_covering_word
from matword import conemaps, corpus, numeric, structure, words
from matword.collection import MatrixCollection
from matword.exceptions import BoundaryPoint, NotPeriodic
from test_acceptance import SEED_SPECTRAL_VS_ITERATIVE

ENTRIES = corpus.build_corpus()


def test_log_map_trivials():
    np.testing.assert_array_equal(conemaps.log_map(np.ones(4)), np.zeros(4))
    np.testing.assert_array_equal(conemaps.exp_map(np.zeros(3)), np.ones(3))
    y = np.array([np.e, np.e**2, np.e**3])
    np.testing.assert_allclose(conemaps.exp_map(conemaps.log_map(y)), y,
                               rtol=1e-12)


def test_log_map_boundary_error():
    with pytest.raises(BoundaryPoint):
        conemaps.log_map(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(BoundaryPoint):
        conemaps.log_map(np.array([1.0, -0.5]))


def test_cone_apply_example8_point():
    A = ENTRIES["example8"].collection["A"]
    got = conemaps.cone_apply(A, np.array([1.0, 2, 3, 4, 5, 6]))
    want = np.array([2, 3, 4, 1, 180 ** (1 / 3), 150 ** (1 / 3)])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_cone_apply_all_ones_fixed():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        np.testing.assert_allclose(conemaps.cone_apply(A, np.ones(n)), np.ones(n),
                                   atol=1e-14)


def test_cone_apply_boundary_zero_coordinate():
    # positive exponent on a zero coordinate forces that component to zero
    A = ENTRIES["example9"].collection["A"]
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 7.0])
    out = conemaps.cone_apply(A, y)
    assert out[5] == 0.0  # row 6 has exponent 1/2 on coordinate 6
    assert np.all(out[:5] > 0)


def test_cone_apply_x_to_zero_power_is_one():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = conemaps.cone_apply(A, np.array([0.0, 3.0]))
    np.testing.assert_array_equal(out, [3.0, 1.0])


def test_monomial_matches_log_path_interior():
    rng = np.random.default_rng(62)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        cm = conemaps.ConeMap(A)
        y = np.exp(rng.uniform(-3, 3, size=n))
        np.testing.assert_allclose(cm.apply(y), cm.monomial_apply(y), rtol=1e-12)


def test_underflow_flush_flagged():
    cm = conemaps.ConeMap(np.array([[400.0]]))
    value = cm.apply(np.array([1e-2]))
    assert value[0] == 0.0


def test_cone_limit_example8_period_two():
    entry = ENTRIES["example8"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    y = entry.data["point"]
    w = words.Word.from_names("ABB", coll)
    result = conemaps.cone_limit(coll, w, y, q=4, system=system)
    assert result.converged
    assert result.path_agreement <= 1e-8
    assert conemaps.cone_point_period(coll, w, result.eta, 4) == 2


def test_cone_limit_example9_period_six():
    entry = ENTRIES["example9"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    y = entry.data["point"]
    w = words.Word.from_names("AB", coll)
    result = conemaps.cone_limit(coll, w, y, q=6, system=system)
    assert result.converged and result.path_agreement <= 1e-8
    assert conemaps.cone_point_period(coll, w, result.eta, 6) == 6


def test_cone_limit_all_ones():
    coll = ENTRIES["example8"].collection
    system = structure.common_eigenvectors(coll)
    w = words.Word.from_names("AB", coll)
    result = conemaps.cone_limit(coll, w, np.ones(6), q=4, system=system)
    assert result.converged
    np.testing.assert_allclose(result.eta, np.ones(6), atol=1e-12)


def test_cone_limit_warns_off_lc():
    entry = ENTRIES["example4"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    y = np.exp(np.array([0.0, 0, 0, 0, 1.0, -1.0]))  # log y has a non-common part
    w = words.Word.from_names("AB", coll)
    with pytest.warns(UserWarning):
        conemaps.cone_limit(coll, w, y, q=4, system=system)


def test_conjugation_identity():
    rng = np.random.default_rng(63)
    coll = ENTRIES["example2"].collection
    w = words.Word.from_names("ABB", coll)
    M = words.word_product(coll, w)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=6)
        y = np.exp(x)
        lhs = y.copy()
        for k in range(1, 5):
            lhs = conemaps.word_cone_apply(coll, w, lhs)
            rhs = np.exp(numeric.mat_vec(numeric.mat_power(M, k), x))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_scaling_law_and_order_preservation():
    rng = np.random.default_rng(64)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        A = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        cm = conemaps.ConeMap(A)
        s = cm.row_sums
        y = np.exp(rng.uniform(-2, 2, size=n))
        lam = float(rng.uniform(0.1, 3.0))
        np.testing.assert_allclose(cm.apply(lam * y), lam**s * cm.apply(y),
                                   rtol=1e-12)
        smaller = y * rng.uniform(0.2, 1.0, size=n)
        assert np.all(cm.apply(smaller) <= cm.apply(y) * (1 + 1e-12))


def test_periodicity_transfer():
    entry = ENTRIES["example9"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    w = words.Word.from_names("AB", coll)
    result = conemaps.cone_limit(coll, w, entry.data["point"], q=6, system=system)
    assert result.converged
    z = result.eta.copy()
    for _ in range(6):
        z = conemaps.word_cone_apply(coll, w, z)
    np.testing.assert_allclose(z, result.eta, atol=1e-8)


def test_homogeneity_report_cases():
    B1 = np.asarray(ENTRIES["example2"].collection["B"])[:4, :4]
    report = conemaps.homogeneity_report(conemaps.ConeMap(B1))
    assert report.homogeneous_degree_one and report.subhomogeneous_certified

    Ap = np.array([[0.2, 1 / 6], [1 / 6, 0.2]])
    report = conemaps.homogeneity_report(conemaps.ConeMap(Ap))
    assert report.subhomogeneous_certified and not report.homogeneous_degree_one
    np.testing.assert_allclose(report.exponents, [11 / 30, 11 / 30])

    fast = np.array([[0.0, 2.0], [0.5, 0.0]])
    report = conemaps.homogeneity_report(conemaps.ConeMap(fast))
    assert not report.subhomogeneous_certified
    np.testing.assert_allclose(report.exponents, [2.0, 0.5])


def test_row_stochastic_diagonal_ray():
    # commuting row-stochastic family: the diagonal ray is fixed by both the
    # linear and the cone dynamics, so the two limits coincide
    rng = np.random.default_rng(65)
    n = 4
    P = np.eye(n)[list(range(1, n)) + [0]]
    weights = rng.uniform(size=n)
    weights /= weights.sum()
    C = sum(w * np.linalg.matrix_power(P, k) for k, w in enumerate(weights))
    coll = MatrixCollection(names=("P", "C"), matrices=(P, C))
    system = structure.common_eigenvectors(coll)
    cert = words.global_period(coll)
    x = np.full(n, 2.5)
    w = words.Word.from_names("PC", coll)
    linear = words.limit_point(coll, w, x, cert.q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cone = conemaps.cone_limit(coll, w, x, cert.q, system=system)
    assert linear.converged and cone.converged
    assert np.max(np.abs(linear.xi - cone.eta)) <= 1e-9


def test_cone_limit_and_limit_point_share_the_max_iter_rule():
    entry = ENTRIES["example8"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    w = words.Word.from_names("AB", coll)
    with pytest.raises(ValueError, match="max_iter"):
        conemaps.cone_limit(coll, w, entry.data["point"], q=4, max_iter=0,
                            system=system)
    with pytest.raises(ValueError, match="max_iter"):
        words.limit_point(coll, w, np.log(entry.data["point"]), 4, max_iter=0)


def test_limits_match_spectral_limit_to_rounding():
    """xi, and eta = exp(xi), agree with the closed-form spectral limit to
    1e-12 relative on the families of acceptance criterion 10e."""
    rng = np.random.default_rng(SEED_SPECTRAL_VS_ITERATIVE)
    for _ in range(500):
        coll = random_commuting_collection(rng)
        system = structure.common_eigenvectors(coll)
        cert = words.global_period(coll)
        x = rng.normal(size=coll.n)
        closed = words.spectral_limit(system, structure.lc_membership(x, system, tol=1e-7))
        w = random_covering_word(rng, coll.N)
        xi = words.limit_point(coll, w, x, cert.q).xi
        assert np.max(np.abs(xi - closed)) <= 1e-12 * (1.0 + np.max(np.abs(xi)))
        cone = conemaps.cone_limit(coll, w, np.exp(x), cert.q, system=system)
        assert cone.converged
        gap = np.max(np.abs(cone.eta - np.exp(closed)))
        assert gap <= 1e-12 * (1.0 + np.max(np.abs(cone.eta)))


def test_cone_limit_takes_the_conjugated_route():
    entry = ENTRIES["example8"]
    coll = entry.collection
    w = words.Word.from_names("ABB", coll)
    y = entry.data["point"]
    linear = words.limit_point(coll, w, np.log(y), 4)
    result = conemaps.cone_limit(coll, w, y, q=4)
    assert result.converged and result.iterations == linear.iterations
    assert np.array_equal(result.eta, np.exp(linear.xi))
    assert result.path_agreement == result.residual / (1.0 + np.max(result.eta))


def iterated_cone_limit(coll, word, y, q, max_iter):
    """The q-block iteration, with its agreement against exp(xi)."""
    maps = [conemaps.ConeMap(M) for M in coll.matrices]
    tol, bound = numeric.CONVERGENCE_TOL, numeric.BOUND
    z, iterations, residual, status = words.iterate_to_fixed_point(
        conemaps._block_map(maps, word, q), y, tol, max_iter, bound)
    linear = words.limit_point(coll, word, np.log(y), q, max_iter=max_iter)
    agreement = float("nan")
    if status == "converged" and linear.converged:
        eta_lin = np.exp(linear.xi)
        agreement = float(np.max(np.abs(z - eta_lin)) / (1.0 + np.max(np.abs(eta_lin))))
    return conemaps.ConeLimitResult(z, iterations, residual, status, agreement)


def miss_the_certificate(monkeypatch):
    monkeypatch.setattr(conemaps.ConeMap, "monomial_apply", lambda self, y: 2.0 * y)


FALLBACKS = {
    # the linear route stops at max_iter
    "max-iter": ("example7", [2.0, 1.0], 2, 3, None),
    # the monomial pass misses eta
    "certificate": ("example2", [1.0, 2, 1, 2, 3, 1], 4, numeric.MAX_ITER,
                    miss_the_certificate),
    # log(y) at log(TINY): the route that would take 1e-300 stands down
    "log-tiny": ("example2", [conemaps.TINY, 2, 1, 2, 3, 1], 4, numeric.MAX_ITER, None),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_cone_limit_falls_back_to_the_iteration(name, monkeypatch):
    example, y, q, max_iter, patch = FALLBACKS[name]
    coll = ENTRIES[example].collection
    w = words.Word.from_names("AB", coll)
    y = np.array(y)
    expected = iterated_cone_limit(coll, w, y, q, max_iter)
    if patch is not None:
        patch(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # example7 is not commuting
        got = conemaps.cone_limit(coll, w, y, q, max_iter=max_iter)
    assert bits_equal(got.eta, expected.eta)
    assert (got.iterations, got.status) == (expected.iterations, expected.status)
    assert got.residual == expected.residual
    assert got.path_agreement == expected.path_agreement or (
        np.isnan(got.path_agreement) and np.isnan(expected.path_agreement))
    assert got.status == ("max_iter" if name == "max-iter" else "converged")


def test_cone_limit_past_bound_diverges():
    coll = MatrixCollection(names=("A",), matrices=(np.full((2, 2), 0.5),))
    result = conemaps.cone_limit(coll, words.Word((0,)), np.array([1e13, 2e13]), 1)
    assert result.status == "diverged"


def test_cone_point_period_raises_when_not_periodic():
    coll = MatrixCollection(names=("A",), matrices=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
    w = words.Word.from_names("A", coll)
    assert conemaps.cone_point_period(coll, w, np.array([1.0, 2.0]), 2) == 2
    with pytest.raises(NotPeriodic, match="not 1-periodic"):
        conemaps.cone_point_period(coll, w, np.array([1.0, 2.0]), 1)


def test_word_maps_ignore_an_unused_negative_letter():
    """Only the word's own letters need a cone map: a negative matrix
    elsewhere in the collection is never read, so ``cone_limit`` of AA on
    (swap, -swap) is that on {swap}, and one in the word raises."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    coll = MatrixCollection(names=("A", "B"), matrices=(swap, -swap))
    w = words.Word.from_names("AA", coll)
    y = np.array([1.0, 2.0])
    assert bits_equal(conemaps.word_cone_apply(coll, w, y), y)
    assert conemaps.cone_point_period(coll, words.Word.from_names("A", coll), y, 2) == 2
    single = MatrixCollection(names=("A",), matrices=(swap,))
    got, expected = (conemaps.cone_limit(c, w, y, 2) for c in (coll, single))
    assert got.converged and bits_equal(got.eta, expected.eta)
    assert ((got.iterations, got.residual, got.path_agreement)
            == (expected.iterations, expected.residual, expected.path_agreement))
    with pytest.raises(ValueError, match="negative entry"):
        conemaps.word_cone_apply(coll, words.Word.from_names("AB", coll), y)


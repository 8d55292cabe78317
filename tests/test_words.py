import warnings

import numpy as np
import pytest

from matword import corpus, numeric, spectral, structure, words
from matword.collection import MatrixCollection
from matword.exceptions import InvalidLetter, NotPeriodic, SpectralRadiusViolation

ENTRIES = corpus.build_corpus()


def test_word_product_order():
    e2 = ENTRIES["example2"].collection
    w = words.Word.from_names("AB", e2)
    got = words.word_product(e2, w)
    np.testing.assert_array_equal(got, numeric.mat_mul(e2["B"], e2["A"]))


def test_word_product_repeated_letter():
    e7 = ENTRIES["example7"].collection
    w = words.Word((0, 0, 0))
    np.testing.assert_allclose(
        words.word_product(e7, w), np.linalg.matrix_power(np.asarray(e7["A"]), 3)
    )


def test_word_product_example7_noncommuting():
    e7 = ENTRIES["example7"].collection
    ab = words.word_product(e7, words.Word.from_names("AB", e7))
    ba = words.word_product(e7, words.Word.from_names("BA", e7))
    assert np.max(np.abs(ab - ba)) > 1e-3


def test_word_validation():
    e7 = ENTRIES["example7"].collection
    with pytest.raises(InvalidLetter):
        words.Word((0, 5)).validate(e7)
    with pytest.raises(InvalidLetter):
        words.Word(())
    with pytest.raises(InvalidLetter):
        words.Word.from_names("AC", e7)


def test_global_period_examples():
    assert words.global_period(ENTRIES["example2"].collection).q == 4
    assert words.global_period(ENTRIES["example3"].collection).q == 6
    assert words.global_period(ENTRIES["example1"].collection).q == 2


def test_global_period_letter_subset():
    e2 = ENTRIES["example2"].collection
    cert = words.word_period(e2, words.Word.from_names("AA", e2))
    assert cert.q == 4 and cert.letters == (0,)
    cert = words.word_period(e2, words.Word.from_names("B", e2))
    assert cert.q == 2


def test_global_period_radius_violation():
    coll = MatrixCollection(names=("A",), matrices=(np.diag([2.0, 1.0]),))
    with pytest.raises(SpectralRadiusViolation):
        words.global_period(coll)


def test_shared_results_are_read_only():
    coll = ENTRIES["example2"].collection
    system = structure.common_eigenvectors(coll)
    shared = [coll._eigenpairs(0)[0].eigenvector, system.lambda_table,
              system.vectors[0]]
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_period_key_holds_rho_tol_and_errors_are_not_kept():
    """rho(A) = 1 + 5e-8 lies outside the default band and inside 1e-7;
    each call with the default band raises afresh."""
    A = np.array([[0.0, 1.00000005], [1.00000005, 0.0]])
    coll = MatrixCollection(names=("A", "B"), matrices=(A, np.eye(2)))
    with pytest.raises(SpectralRadiusViolation, match="exceeds 1 \\+ 1e-08"):
        words.global_period(coll)
    assert words.global_period(coll, rho_tol=1e-7).q == 2
    with pytest.raises(SpectralRadiusViolation, match="exceeds 1 \\+ 1e-08"):
        words.global_period(coll)
    with pytest.raises(SpectralRadiusViolation, match="rho\\(A\\)"):
        words.global_period(coll, letters=("A",))


def test_orbit_bounded_example6():
    entry = ENTRIES["example6"]
    coll = entry.collection
    product = numeric.mat_mul(np.asarray(coll["A"]), np.asarray(coll["B"]))
    perron = max(spectral.eigendecompose(product), key=lambda p: abs(p.eigenvalue))
    v = np.real(perron.eigenvector)
    report = words.orbit_bounded(coll, words.Word.from_names("BA", coll), v,
                                 horizon=200, bound=1e12)
    assert not report.bounded_so_far
    assert report.exceeded_at is not None and report.exceeded_at <= 200


def test_orbit_bounded_lc_point():
    entry = ENTRIES["example2"]
    coll = entry.collection
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"] + entry.vectors["v5"])
    for text in ("AB", "BA", "ABB"):
        report = words.orbit_bounded(coll, words.Word.from_names(text, coll), x,
                                     horizon=10_000, bound=1e6)
        assert report.bounded_so_far


def test_orbit_bounded_permutation():
    coll = ENTRIES["example1"].collection
    report = words.orbit_bounded(coll, words.Word((0,)), np.array([0.0, 1.0]))
    assert report.bounded_so_far and report.max_norm == 1.0


@pytest.mark.parametrize("x, bound, step", [
    ((np.nan, 0.0), 1e6, 1),      # a NaN orbit is past every bound
    ((1.0, 0.0), np.inf, 1024),   # 2^1024 overflows to inf
])
def test_orbit_bounded_diverges_as_limit_point_does(x, bound, step):
    """A non-finite orbit is unbounded, the divergence rule of limit_point."""
    coll = MatrixCollection(names=("A",), matrices=(np.diag([2.0, 0.0]),))
    w, x = words.Word((0,)), np.array(x)
    report = words.orbit_bounded(coll, w, x, bound=bound)
    assert not report.bounded_so_far and report.exceeded_at == step
    assert words.limit_point(coll, w, x, 1, bound=bound).status == "diverged"


def test_limit_point_example1():
    coll = ENTRIES["example1"].collection
    result = words.limit_point(coll, words.Word((0,)), np.array([0.0, 1.0]), q=2)
    assert result.converged
    np.testing.assert_allclose(result.xi, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        numeric.mat_vec(coll["A"], result.xi), [1.0, 0.0], atol=1e-12
    )


def test_limit_point_decaying_block():
    entry = ENTRIES["example2"]
    coll = entry.collection
    x = np.real(0.7 * entry.vectors["v5"] + 0.3 * entry.vectors["v6"])
    result = words.limit_point(coll, words.Word.from_names("AB", coll), x, q=4)
    assert result.converged
    np.testing.assert_allclose(result.xi, np.zeros(6), atol=1e-8)


def test_limit_point_fixed_point():
    entry = ENTRIES["example2"]
    coll = entry.collection
    x = np.real(entry.vectors["v1"])
    result = words.limit_point(coll, words.Word.from_names("AB", coll), x, q=4)
    assert result.converged and result.iterations == 1
    np.testing.assert_allclose(result.xi, x, atol=1e-12)


def test_limit_point_divergence_detected():
    coll = ENTRIES["example6"].collection
    product = numeric.mat_mul(np.asarray(coll["A"]), np.asarray(coll["B"]))
    perron = max(spectral.eigendecompose(product), key=lambda p: abs(p.eigenvalue))
    v = np.real(perron.eigenvector)
    result = words.limit_point(coll, words.Word.from_names("BA", coll), v, q=1,
                               bound=1e9)
    assert result.status == "diverged"


# ---------------------------------------------------------------------------
# limits by repeated squaring


def single(M):
    return MatrixCollection(names=("A",), matrices=(np.asarray(M, dtype=float),))


def stepped(M, x, max_iter=numeric.MAX_ITER):
    """The q-block stepping that the doubling loop replaces (q = 1)."""
    return words.iterate_to_fixed_point(lambda z: numeric.mat_vec(M, z), x,
                                        numeric.CONVERGENCE_TOL, max_iter,
                                        numeric.BOUND)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("top", [1.0, 1e200])
def test_doubling_never_passes_max_iter(max_iter, top):
    # top = 1e200 overflows the first square; with top = 1 the stepping
    # takes over before a doubling would reach the cap
    coll = single(np.diag([top, 0.999]))
    result = words.limit_point(coll, words.Word((0,)), np.array([0.0, 1.0]), 1,
                               max_iter=max_iter)
    assert result.status == "max_iter" and result.iterations == max_iter


def test_slow_mixing_converges_under_the_default_cap():
    # 1 - lambda = 3e-4: stepping settles after ~50,000 blocks, past the
    # last doubling (65,536 blocks) that fits under MAX_ITER = 100,000
    B = np.array([[1.0 - 3e-4]])
    x = np.array([1.0])
    result = words.limit_point(single(B), words.Word((0,)), x, 1)
    z, steps, _, status = stepped(B, x)
    assert status == "converged" and steps < 2 ** 16
    assert result.converged and result.iterations == 2 ** 16 + 1
    assert 0.0 < result.xi[0] <= z[0]  # no farther from the limit 0


def test_doubling_keeps_a_growing_direction_at_zero():
    B = np.diag([2.0, 0.5])
    x = np.array([0.0, 1.0])
    result = words.limit_point(single(B), words.Word((0,)), x, 1)
    z, _, _, status = stepped(B, x)
    assert result.converged and status == "converged"
    assert result.xi[0] == 0.0 and abs(result.xi[1]) <= numeric.CONVERGENCE_TOL
    assert z[0] == 0.0 and abs(z[1]) <= numeric.CONVERGENCE_TOL


def test_doubling_hands_over_when_the_square_overflows():
    B = np.diag([1e200, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = words.limit_point(single(B), words.Word((0,)), np.array([0.0, 1.0]), 1)
        # one block, then the stepping from B x with the blocks left
        z, steps, residual, status = stepped(B, np.array([0.0, 0.5]),
                                             numeric.MAX_ITER - 1)
        grown = words.limit_point(single([[2.0]]), words.Word((0,)), np.array([1.0]),
                                  1, bound=np.inf)
    assert result.converged and status == "converged"
    assert result.iterations == 1 + steps and result.residual == residual
    assert np.array_equal(result.xi, z) and np.max(np.abs(z)) <= numeric.CONVERGENCE_TOL
    assert grown.status == "diverged"


def test_doubling_does_not_hide_an_eigenvalue_minus_one():
    # B^2 = I fixes every z_k with k >= 1; one more block shows the swap
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([0.0, 1.0])
    result = words.limit_point(single(swap), words.Word((0,)), x, 1, max_iter=64)
    assert result.status == "max_iter" and result.iterations == 64
    assert stepped(swap, x, 64)[3] == "max_iter"


def test_limit_fixedness_invariant():
    entry = ENTRIES["example3"]
    coll = entry.collection
    cert = words.global_period(coll)
    x = entry.data["x"] + 0.25 * np.array([0, 0, 0, 0, 0, 1.0, 1.0])
    for text in ("AB", "ABB", "BA"):
        w = words.Word.from_names(text, coll)
        result = words.limit_point(coll, w, x, cert.q)
        assert result.converged
        M = words.word_product(coll, w)
        Mq = numeric.mat_power(M, cert.q)
        assert np.max(np.abs(numeric.mat_vec(Mq, result.xi) - result.xi)) <= 1e-9


def test_spectral_limit_matches_iteration():
    entry = ENTRIES["example2"]
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"] + entry.vectors["v5"])
    coeffs = structure.lc_membership(x, system)
    xi_closed = words.spectral_limit(system, coeffs)
    np.testing.assert_allclose(xi_closed, np.real(entry.vectors["v1"] + entry.vectors["v2"]),
                               atol=1e-9)
    result = words.limit_point(coll, words.Word.from_names("AB", coll), x, q=4)
    assert result.converged
    np.testing.assert_allclose(xi_closed, result.xi, atol=1e-7)


def test_spectral_limit_zero_coeffs():
    system = structure.common_eigenvectors(ENTRIES["example2"].collection)
    coeffs = structure.LCCoefficients(
        alphas=np.zeros(system.d, dtype=complex), residual=0.0
    )
    np.testing.assert_array_equal(words.spectral_limit(system, coeffs), np.zeros(6))


def test_spectral_limit_example3_identity_on_kappa_block():
    entry = ENTRIES["example3"]
    system = structure.common_eigenvectors(entry.collection)
    x = entry.data["x"]
    coeffs = structure.lc_membership(x, system)
    np.testing.assert_allclose(words.spectral_limit(system, coeffs), x, atol=1e-9)


def test_point_period_example2_words():
    entry = ENTRIES["example2"]
    coll = entry.collection
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    odd = words.word_product(coll, words.Word.from_names("ABB", coll))
    assert words.point_period(odd, x, 4) == 2
    # an even-length word multiplies x's period-2 component by (-1)^2 = 1,
    # so the limit point is already fixed
    even = words.word_product(coll, words.Word.from_names("AB", coll))
    assert words.point_period(even, x, 4) == 1


def test_point_period_example3():
    entry = ENTRIES["example3"]
    coll = entry.collection
    M = words.word_product(coll, words.Word.from_names("AB", coll))
    assert words.point_period(M, entry.data["x"], 6) == 6


def test_point_period_fixed_point():
    entry = ENTRIES["example2"]
    coll = entry.collection
    M = words.word_product(coll, words.Word.from_names("AB", coll))
    assert words.point_period(M, np.real(entry.vectors["v1"]), 4) == 1


def test_point_period_divides_q():
    entry = ENTRIES["example3"]
    coll = entry.collection
    cert = words.global_period(coll)
    rng = np.random.default_rng(51)
    system = structure.common_eigenvectors(coll)
    for _ in range(20):
        x = rng.normal(size=7)
        w = words.Word(tuple(rng.integers(0, 2, size=rng.integers(2, 6)).tolist()))
        if set(w.letters) != {0, 1}:
            continue
        result = words.limit_point(coll, w, x, cert.q)
        assert result.converged
        period = words.point_period(words.word_product(coll, w), result.xi, cert.q)
        assert cert.q % period == 0


def test_point_period_not_periodic():
    coll = ENTRIES["example1"].collection
    with pytest.raises(NotPeriodic):
        words.point_period(np.asarray(coll["A"]), np.array([1.0, 0.0]), 1)


def test_symmetric_commuting_periods_at_most_two():
    # symmetric pairwise-commuting spectral-radius-one family: all real
    # eigenvalues on the unit circle are +-1, so periods are 1 or 2
    rng = np.random.default_rng(52)
    P = corpus.J2
    for _ in range(10):
        t = rng.uniform(0.2, 0.8)
        A = np.block([[P, np.zeros((2, 2))], [np.zeros((2, 2)), t * np.eye(2)]])
        B = np.block([[np.eye(2), np.zeros((2, 2))],
                      [np.zeros((2, 2)), rng.uniform(0.1, 0.9) * P]])
        coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
        cert = words.global_period(coll)
        x = rng.normal(size=4)
        for text in ("AB", "BA", "ABB"):
            w = words.Word.from_names(text, coll)
            result = words.limit_point(coll, w, x, cert.q)
            assert result.converged
            period = words.point_period(words.word_product(coll, w), result.xi,
                                        cert.q)
            assert period in (1, 2)


def test_single_letter_words_always_converge():
    # diagonalizable nonnegative rho = 1: every orbit limit exists under q-blocks
    rng = np.random.default_rng(53)
    coll = ENTRIES["example2"].collection
    cert = words.global_period(coll)
    for _ in range(10):
        x = rng.normal(size=6)
        for letter in (0, 1):
            w = words.Word((letter,))
            result = words.limit_point(coll, w, x, cert.q)
            assert result.converged
            period = words.point_period(words.word_product(coll, w), result.xi,
                                        cert.q)
            assert cert.q % period == 0

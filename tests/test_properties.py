"""Hypothesis property tests for the numeric substrate and the cone maps."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matword import conemaps, numeric, spectral

finite_entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                           allow_infinity=False)
log_coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                       allow_infinity=False)


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_parse_entry_matches_fraction(num, den):
    got = numeric.parse_entry(f"{num}/{den}")
    assert got == float(Fraction(num, den))


@given(arrays(np.float64, (4, 4), elements=finite_entries),
       arrays(np.float64, (4, 4), elements=finite_entries))
def test_mat_mul_matches_reference(A, B):
    np.testing.assert_allclose(numeric.mat_mul(A, B), A @ B,
                               rtol=1e-12, atol=1e-9)


@given(arrays(np.float64, (5, 5), elements=finite_entries))
def test_rank_plus_nullity(M):
    rank, basis = numeric.rank_and_nullspace(M)
    assert rank + basis.shape[1] == 5
    if basis.shape[1]:
        gram = basis.conj().T @ basis
        np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-12)


@given(arrays(np.float64, st.integers(1, 6).map(lambda n: (n,)),
              elements=log_coords))
@settings(max_examples=200)
def test_exp_log_round_trip(x):
    y = conemaps.exp_map(x)
    np.testing.assert_allclose(conemaps.exp_map(conemaps.log_map(y)), y,
                               rtol=1e-12)
    np.testing.assert_allclose(conemaps.log_map(conemaps.exp_map(x)), x,
                               atol=1e-12)


@given(st.integers(0, 11), st.integers(1, 12))
def test_root_of_unity_order_definition(k, q):
    lam = np.exp(2j * np.pi * k / q)
    order = spectral.root_of_unity_order(lam, max_order=12, tol=1e-9)
    assert order is not None
    assert abs(lam**order - 1.0) <= 1e-9
    # minimality: no smaller exponent reaches one
    for d in range(1, order):
        assert abs(lam**d - 1.0) > 1e-9


@given(arrays(np.float64, (3, 3),
              elements=st.floats(min_value=0.0, max_value=2.0)),
       arrays(np.float64, (3,), elements=log_coords),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=200)
def test_cone_scaling_law(A, x, lam):
    cm = conemaps.ConeMap(A)
    y = np.exp(x / 4.0)
    lhs = cm.apply(lam * y)
    rhs = lam ** cm.row_sums * cm.apply(y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


@given(arrays(np.float64, (4, 4),
              elements=st.floats(min_value=0.0, max_value=1.5)))
def test_cone_map_fixes_ones(A):
    np.testing.assert_allclose(conemaps.cone_apply(A, np.ones(4)), np.ones(4),
                               atol=1e-13)

"""The exp/log conjugation of a nonnegative matrix.

For a nonnegative A the map f = exp . A . log on the interior of the
nonnegative orthant has the monomial product form

    f(y)_i = prod_j y_j ** a_ij,

which extends continuously to the boundary with the conventions y**0 = 1
and 0**a = 0 for a > 0.  Row sums are the per-coordinate homogeneity
exponents: f(lam * y)_i = lam ** s_i * f(y)_i.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import numeric, structure, words
from .exceptions import BoundaryPoint

#: positive doubles below this are flushed to zero by the monomial form
TINY = float(np.finfo(np.float64).tiny)
_LOG_TINY = float(np.log(TINY))


def log_map(y):
    """Componentwise logarithm; defined only on the strict interior."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        idx = int(np.argmax(y <= 0))
        raise BoundaryPoint(f"coordinate {idx} = {y[idx]} is not strictly positive")
    return np.log(y)


def exp_map(x):
    """Componentwise exponential; lands in the strict interior."""
    return np.exp(np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class ConeMap:
    """f = exp . A . log for a nonnegative matrix A."""

    matrix: np.ndarray

    def __post_init__(self):
        M = numeric.require_square(np.asarray(self.matrix, dtype=np.float64))
        bad = numeric.first_negative_entry(M)
        if bad is not None:
            raise ValueError(f"cone map matrix has a negative entry at {bad}")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def row_sums(self):
        return self.matrix.sum(axis=1)

    def apply(self, y):
        value, _ = self.apply_detailed(y)
        return value

    def apply_detailed(self, y):
        """Evaluate f(y); returns ``(value, underflow_mask)``.

        Interior points go through the log domain (accurate when the
        coordinates span many magnitudes); points with zero coordinates use
        the monomial form, the only continuous extension.  Components whose
        log-domain value falls below the smallest normal double are flushed
        to exact zero and flagged, matching the boundary-limit semantics.
        """
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0):
            idx = int(np.argmax(y < 0))
            raise ValueError(f"coordinate {idx} = {y[idx]} is negative")
        if np.all(y > 0):
            exponents = numeric.mat_vec(self.matrix, np.log(y))
            underflow = exponents < _LOG_TINY
            value = np.where(underflow, 0.0, np.exp(exponents))
            return value, underflow
        value, underflow = self._monomial(y)
        return value, underflow

    def monomial_apply(self, y):
        """The product form directly; cross-check path for the interior."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0):
            raise ValueError("monomial form is defined on the nonnegative orthant")
        value, _ = self._monomial(y)
        return value

    def _monomial(self, y):
        n = self.matrix.shape[0]
        out = np.ones(n, dtype=np.float64)
        underflow = np.zeros(n, dtype=bool)
        for i in range(n):
            acc = 1.0
            hit_zero = False
            for j in range(n):
                a = self.matrix[i, j]
                if a == 0.0:
                    continue  # y ** 0 == 1, including at y == 0
                if y[j] == 0.0:
                    acc = 0.0
                    hit_zero = True
                    break
                acc *= y[j] ** a
            if not hit_zero and acc < TINY:
                underflow[i] = True
                acc = 0.0
            out[i] = acc
        return out, underflow


def cone_apply(matrix, y):
    """Functional form of :meth:`ConeMap.apply`."""
    return ConeMap(matrix).apply(y)


def word_cone_apply(collection, word, y):
    """f_w(y): apply the letter maps f_{w_1}, f_{w_2}, ... in word order."""
    word.validate(collection)
    out = np.asarray(y, dtype=np.float64)
    for letter in word.letters:
        out = ConeMap(collection.matrices[letter]).apply(out)
    return out


@dataclass(frozen=True)
class ConeLimitResult:
    eta: np.ndarray
    iterations: int
    residual: float
    status: str  # converged | diverged | max_iter
    path_agreement: float

    @property
    def converged(self):
        return self.status == "converged"


def cone_limit(collection, word, y, q, tol=1e-10, max_iter=100_000,
               bound=1e12, system=None):
    """Limit of f_w^{k q}(y), computed twice and cross-checked.

    The iterative route applies f_w in q-blocks under the convergence rule
    of :func:`~matword.words.iterate_to_fixed_point`; the conjugated route
    exponentiates the linear limit of log(y).  ``path_agreement`` records
    their relative sup-norm distance (must be small whenever both converge).

    Convergence is guaranteed when log(y) lies in LC(E'); if a common
    eigensystem is supplied (or computable) and the membership test fails,
    a warning is emitted and the iteration proceeds anyway.
    """
    y = np.asarray(y, dtype=np.float64)
    x = log_map(y)
    if system is None:
        system = structure.common_eigenvectors(collection)
    if system.d == 0 or structure.lc_membership(x, system) is None:
        warnings.warn(
            "log(y) is not in LC(E'); cone limit may not converge",
            stacklevel=2,
        )

    maps = [ConeMap(M) for M in collection.matrices]

    def f_word_q(z):
        for _ in range(int(q)):
            for letter in word.letters:
                z = maps[letter].apply(z)
        return z

    z, iterations, residual, status = words.iterate_to_fixed_point(
        f_word_q, y, tol, max_iter, bound)

    agreement = float("nan")
    if status == "converged":
        linear = words.limit_point(collection, word, x, q, tol=tol,
                                   max_iter=max_iter, bound=bound)
        if linear.converged:
            eta_lin = exp_map(linear.xi)
            agreement = float(
                np.max(np.abs(z - eta_lin)) / (1.0 + np.max(np.abs(eta_lin)))
            )
    return ConeLimitResult(z, iterations, residual, status, agreement)


def cone_point_period(collection, word, eta, q, tol=1e-8):
    """Smallest divisor d of q with f_w^d(eta) = eta (relative sup norm)."""
    eta = np.asarray(eta, dtype=np.float64)
    atol = tol * (1.0 + float(np.max(np.abs(eta))))
    return words.first_period(lambda z: word_cone_apply(collection, word, z),
                              eta, q, atol)


@dataclass(frozen=True)
class HomogeneityReport:
    """Per-coordinate homogeneity exponents (the row sums) and what they
    certify.  The subhomogeneity inequality lam f(y) <= f(lam y) for
    lam in [0, 1] holds exactly when every exponent is at most one."""

    exponents: np.ndarray
    subhomogeneous_certified: bool
    homogeneous_degree_one: bool


def homogeneity_report(cone_map):
    s = cone_map.row_sums
    return HomogeneityReport(
        exponents=s,
        subhomogeneous_certified=bool(np.all(s <= 1.0 + 1e-12)),
        homogeneous_degree_one=bool(np.all(np.abs(s - 1.0) <= 1e-12)),
    )

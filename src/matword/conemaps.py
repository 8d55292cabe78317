"""The exp/log conjugation of a nonnegative matrix.

For a nonnegative A the map f = exp . A . log on the interior of the
nonnegative orthant has the monomial product form

    f(y)_i = prod_j y_j ** a_ij,

which extends continuously to the boundary with the conventions y**0 = 1
and 0**a = 0 for a > 0.  Row sums are the per-coordinate homogeneity
exponents: f(lam * y)_i = lam ** s_i * f(y)_i.
"""

import math
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
        M = numeric.require_nonnegative(M, "cone map matrix").copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def row_sums(self):
        return self.matrix.sum(axis=1)

    def apply(self, y):
        """Evaluate f(y).

        Interior points go through the log domain (accurate when the
        coordinates span many magnitudes); points with zero coordinates use
        the monomial form, the only continuous extension.  Components whose
        log-domain value falls below the smallest normal double are flushed
        to exact zero, matching the boundary-limit semantics.
        """
        y = np.asarray(y, dtype=np.float64)
        if (y > 0).all():
            return _log_domain(self.matrix, y)
        if np.any(y < 0):
            idx = int(np.argmax(y < 0))
            raise ValueError(f"coordinate {idx} = {y[idx]} is negative")
        return self._monomial(y)

    def monomial_apply(self, y):
        """The product form directly; cross-check path for the interior."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0):
            raise ValueError("monomial form is defined on the nonnegative orthant")
        return self._monomial(y)

    def _monomial(self, y):
        # Python floats: the same libm pow and IEEE products as numpy
        # scalars, without a numpy scalar per entry.  Where pow overflows
        # Python raises and numpy gives inf.  Which NaN a product of two
        # NaNs keeps depends on whether CPython has specialised the
        # multiply, so a NaN row is formed again with numpy scalars, whose
        # operand order is fixed.
        ys = y.tolist()
        out = []
        for i, row in enumerate(self.matrix.tolist()):
            acc = 1.0
            for a, yj in zip(row, ys):
                if a == 0.0:
                    continue  # y ** 0 == 1, including at y == 0
                if yj == 0.0:
                    acc = 0.0
                    break
                try:
                    acc = yj ** a * acc
                except OverflowError:
                    acc = math.inf * acc
            if acc != acc:  # a NaN row has no zero y_j under a nonzero a
                acc = 1.0
                with np.errstate(all="ignore"):
                    for a, yj in zip(self.matrix[i], y):
                        if a != 0.0:
                            acc *= yj ** a
                acc = float(acc)
            out.append(0.0 if acc < TINY else acc)
        return np.array(out, dtype=np.float64)


def _log_domain(matrix, y):
    """exp(A log y) for y > 0, with every exponent below log(TINY) flushed
    to exact zero."""
    exponents = numeric.mat_vec(matrix, np.log(y))
    value = np.exp(exponents)
    underflow = exponents < _LOG_TINY
    if underflow.any():
        value[underflow] = 0.0
    return value


def cone_apply(matrix, y):
    """Functional form of :meth:`ConeMap.apply`."""
    return ConeMap(matrix).apply(y)


def word_cone_apply(collection, word, y):
    """f_w(y): apply the letter maps f_{w_1}, f_{w_2}, ... in word order."""
    return _word_map(collection, word)(np.asarray(y, dtype=np.float64))


def _letter_maps(collection, word):
    """A cone map for each of the word's own letters, by letter index: a
    letter the word never uses is not read."""
    word.validate(collection)
    return {l: ConeMap(collection.matrices[l]) for l in word.letters}


def _word_map(collection, word):
    """f_w as a :func:`_block_map` of :func:`_letter_maps`."""
    return _block_map(_letter_maps(collection, word), word, 1)


def _block_map(maps, word, q):
    """f_w^q as one flat block of letter maps, :meth:`ConeMap.apply` per
    letter."""
    block = [maps[letter] for letter in word.letters] * int(q)

    def f_word_q(z):
        for cone_map in block:
            z = cone_map.apply(z)
        return z

    return f_word_q


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


def _conjugated_limit(maps, word, q, x, linear, tol, bound):
    """eta = exp(xi) from the linear limit xi of x = log(y), certified by
    one monomial pass of f_w^q; None when the route does not apply."""
    if not (linear.converged and x.min() > _LOG_TINY and linear.xi.min() > _LOG_TINY):
        return None
    with np.errstate(all="ignore"):
        eta = exp_map(linear.xi)
        size = float(eta.max())
        if not size <= bound:
            return None
        image = eta
        for cone_map in [maps[letter] for letter in word.letters] * int(q):
            image = cone_map.monomial_apply(image)
        residual = float(abs(image - eta).max())
    if not residual <= tol * (1.0 + size):
        return None
    return ConeLimitResult(eta, linear.iterations, residual, "converged",
                           residual / (1.0 + size))


def cone_limit(collection, word, y, q, tol=numeric.CONVERGENCE_TOL,
               max_iter=numeric.MAX_ITER, bound=numeric.BOUND, system=None):
    """Limit eta of f_w^{k q}(y): the conjugated linear limit, certified
    by the monomial form, else the q-block iteration.

    In the interior f_w^q = exp . (A_w)^q . log holds exactly, so the
    linear limit xi of log(y) (:func:`~matword.words.limit_point`) gives
    eta = exp(xi).  That eta is the result when xi converged, log(y) and
    xi stay above log(TINY) (no coordinate is flushed), |eta| <= bound,
    and one pass of f_w^q in the monomial product form (no logs) lands
    within ``tol * (1 + |eta|)`` of eta.  Then ``residual`` is that
    distance, ``path_agreement`` is residual / (1 + |eta|) and
    ``iterations`` is xi's q-block count.  On this route
    ``path_agreement`` is a fixed-point certificate (at most ``tol`` by
    construction), not a comparison of two independent limits.

    Otherwise f_w is iterated in q-blocks from y under the rule of
    :func:`~matword.words.iterate_to_fixed_point`, and ``path_agreement``
    is the relative sup-norm distance of its limit from exp(xi) when both
    converged (NaN otherwise).

    Convergence is guaranteed when log(y) lies in LC(E'); if a common
    eigensystem is supplied (or computable) and the membership test fails,
    a warning is emitted and the computation proceeds anyway.
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

    linear = words.limit_point(collection, word, x, q, tol=tol,
                               max_iter=max_iter, bound=bound)
    maps = _letter_maps(collection, word)
    conjugated = _conjugated_limit(maps, word, q, x, linear, tol, bound)
    if conjugated is not None:
        return conjugated

    z, iterations, residual, status = words.iterate_to_fixed_point(
        _block_map(maps, word, q), y, tol, max_iter, bound)
    agreement = float("nan")
    if status == "converged" and linear.converged:
        eta_lin = exp_map(linear.xi)
        agreement = float(
            np.max(np.abs(z - eta_lin)) / (1.0 + np.max(np.abs(eta_lin)))
        )
    return ConeLimitResult(z, iterations, residual, status, agreement)


def cone_point_period(collection, word, eta, q):
    """Smallest divisor d of q with f_w^d(eta) = eta:
    :func:`~matword.words.first_period` of f_w."""
    return words.first_period(_word_map(collection, word), eta, q)


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
        subhomogeneous_certified=bool(np.all(s <= 1.0 + numeric.EXPONENT_TOL)),
        homogeneous_degree_one=bool(np.all(np.abs(s - 1.0) <= numeric.EXPONENT_TOL)),
    )

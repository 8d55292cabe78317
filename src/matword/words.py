"""Finite words, word products, orbit limits and periodic points.

The word (w_1 ... w_p) acts right-to-left: its product applies A_{w_1}
first, so the matrix is A_{w_p} x ... x A_{w_1}.  Letters are 0-based
indices into a :class:`~matword.collection.MatrixCollection`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numeric, spectral
from .exceptions import InvalidLetter, NotPeriodic, SpectralRadiusViolation

_LARGEST = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Word:
    """A finite word over the letters {0, ..., N-1}."""

    letters: tuple

    def __post_init__(self):
        letters = tuple(int(l) for l in self.letters)
        if len(letters) == 0:
            raise InvalidLetter("a word must have at least one letter")
        if any(l < 0 for l in letters):
            raise InvalidLetter(f"negative letter in {letters}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_names(cls, text, collection):
        """Build a word from a string of matrix names, leftmost applied first."""
        return cls(tuple(collection.letter_index(ch) for ch in text))

    @property
    def p(self):
        return len(self.letters)

    def present_letters(self):
        return tuple(sorted(set(self.letters)))

    def names(self, collection):
        return "".join(collection.names[l] for l in self.letters)

    def validate(self, collection):
        for l in self.letters:
            if l >= collection.N:
                raise InvalidLetter(
                    f"letter {l} outside collection of size {collection.N}"
                )
        return self


def word_product(collection, word):
    """The matrix A_w = A_{w_p} ... A_{w_1} (first letter applied first)."""
    word.validate(collection)
    out = collection.matrices[word.letters[0]].copy()
    for letter in word.letters[1:]:
        out = numeric.mat_mul(collection.matrices[letter], out)
    return out


@dataclass(frozen=True)
class PeriodCertificate:
    """Per-letter periods q_r and their least common multiple q."""

    letters: tuple
    q_r: tuple
    q: int


def global_period(collection, letters=None, rho_tol=numeric.CLUSTER_TOL):
    """q_r for each requested matrix via the peripheral spectrum, and
    q = lcm.

    ``letters`` restricts the computation to the letters actually present
    in a word (None means the whole collection).  A matrix with spectral
    radius beyond ``1 + rho_tol`` has no period and raises
    :class:`~matword.exceptions.SpectralRadiusViolation`; a strictly
    subcritical matrix contributes q_r = 1 (its only limit is 0).

    The certificate is computed once per collection, letters and
    ``rho_tol``, from each letter's shared eigendecomposition.
    """
    letters = tuple(range(collection.N)) if letters is None else tuple(letters)
    return collection._memoised(
        ("global_period", letters, rho_tol),
        lambda: _global_period(collection, letters, rho_tol))


def _global_period(collection, letters, rho_tol):
    qs = []
    for l in letters:
        index = collection.letter_index(l)
        numeric.require_nonnegative(collection.matrices[index])
        report = spectral._peripheral_report(
            collection._eigenpairs(index),
            spectral._radius(collection._spectrum(index)[0]), collection.n, rho_tol)
        if report.q_r is None:
            raise SpectralRadiusViolation(
                f"rho({collection.names[index]}) = {report.rho} exceeds 1 + {rho_tol}"
            )
        qs.append(report.q_r)
    return PeriodCertificate(letters=letters, q_r=tuple(qs), q=math.lcm(*qs))


def word_period(collection, word, rho_tol=numeric.CLUSTER_TOL):
    """Period certificate restricted to the letters present in the word."""
    return global_period(collection, letters=word.present_letters(), rho_tol=rho_tol)


@dataclass(frozen=True)
class OrbitBoundReport:
    bounded_so_far: bool
    exceeded_at: int | None
    max_norm: float


def orbit_bounded(collection, word, x, horizon=10_000, bound=1e6):
    """Iterate x -> A_w x and report the first step whose sup-norm is past
    ``bound`` or not finite, as :func:`iterate_to_fixed_point` diverges,
    or that the orbit stayed bounded over the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    M = word_product(collection, word)
    z = np.asarray(x, dtype=np.float64).copy()
    max_norm = float(np.max(np.abs(z))) if z.size else 0.0
    limit = bound if bound < _LARGEST else _LARGEST
    for k in range(1, int(horizon) + 1):
        z = numeric.mat_vec(M, z)
        nrm = float(np.max(np.abs(z)))
        max_norm = max(max_norm, nrm)
        if not nrm <= limit:
            return OrbitBoundReport(False, k, max_norm)
    return OrbitBoundReport(True, None, max_norm)


@dataclass(frozen=True)
class LimitResult:
    xi: np.ndarray
    iterations: int
    residual: float
    status: str  # converged | diverged | max_iter

    @property
    def converged(self):
        return self.status == "converged"


def iterate_to_fixed_point(step, z, tol, max_iter, bound):
    """Iterate z -> step(z) one block at a time until it settles: the
    stepping rule, which :func:`limit_point` falls back on and the cone
    iteration follows.

    Convergence: sup-norm step difference at most ``tol * (1 + |z|)``.
    A non-finite iterate or one past ``bound`` in sup norm is divergence.
    Returns ``(z, iterations, residual, status)`` with status one of
    converged, diverged or max_iter; only ``max_iter < 1`` raises.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    z = np.asarray(z, dtype=np.float64).copy()
    # |z| <= limit fails for a NaN or infinite |z| as well as past bound
    limit = bound if bound < _LARGEST else _LARGEST
    size = abs(z).max()
    for k in range(1, int(max_iter) + 1):
        z_next = step(z)
        residual = float(abs(z_next - z).max())
        size_next = abs(z_next).max()
        if not size_next <= limit:
            return z_next, k, residual, "diverged"
        if residual <= tol * (1.0 + float(size)):
            return z_next, k, residual, "converged"
        z, size = z_next, size_next
    return z, int(max_iter), residual, "max_iter"


def first_period(step, z, q):
    """Smallest divisor d of q with step^d(z) within ``TUPLE_TOL * (1 + |z|)``
    of z in sup norm; :class:`~matword.exceptions.NotPeriodic` when even
    d = q fails, i.e. z was not a q-periodic point to begin with."""
    z = np.asarray(z, dtype=np.float64)
    atol = numeric.TUPLE_TOL * (1.0 + float(np.max(np.abs(z))))
    image = z
    for d in range(1, int(q) + 1):
        image = step(image)
        if q % d == 0 and float(np.max(np.abs(image - z))) <= atol:
            return d
    raise NotPeriodic(f"vector is not {q}-periodic within tolerance {atol}")


def limit_point(collection, word, x, q, tol=numeric.CONVERGENCE_TOL,
                max_iter=numeric.MAX_ITER, bound=numeric.BOUND):
    """The limit point xi of x under z -> (A_w)^q z, by repeated squaring.

    With B = (A_w)^q, z_{-1} = x and z_k = B^(2^k) x, where B^(2^k) is
    formed by squaring: the limit has converged at the first k with
    |z_k - z_{k-1}| <= tol * (1 + |z_{k-1}|) in sup norm, once one more
    block moves z_k by at most tol * (1 + |z_k|) (which rejects a
    doubling that only hides a negative or 2^j-th root eigenvalue).
    ``iterations`` counts q-blocks, 2^k; a fixed point reports 1, and the
    residual is the step across the last doubling.  |z_k| past ``bound``
    (or not finite) is divergence.  Doubling stops before it would reach
    ``max_iter`` blocks, or when B^(2^k) overflows while z_k is bounded;
    then :func:`iterate_to_fixed_point` steps on from z_k one block at a
    time with the blocks left, so every orbit that stepping settles within
    ``max_iter`` blocks still converges.  Every outcome is a status, never
    an exception; only ``q`` or ``max_iter`` below one raises.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    B = numeric.mat_power(word_product(collection, word), q)
    x = np.asarray(x, dtype=np.float64)
    limit = bound if bound < _LARGEST else _LARGEST
    power, blocks = B, 1
    z, size = x, abs(x).max()
    with np.errstate(all="ignore"):
        while True:
            z_next = numeric.mat_vec(power, x)
            residual = float(abs(z_next - z).max())
            size_next = abs(z_next).max()
            if not size_next <= limit:
                return LimitResult(z_next, blocks, residual, "diverged")
            if (residual <= tol * (1.0 + float(size))
                    and abs(numeric.mat_vec(B, z_next) - z_next).max()
                    <= tol * (1.0 + float(size_next))):
                return LimitResult(z_next, blocks, residual, "converged")
            z, size = z_next, size_next
            if 2 * blocks < max_iter:
                power = numeric.mat_mul(power, power)
                if np.isfinite(power).all():
                    blocks *= 2
                    continue
            if blocks == max_iter:
                return LimitResult(z, blocks, residual, "max_iter")
            z, steps, residual, status = iterate_to_fixed_point(
                lambda v: numeric.mat_vec(B, v), z, tol, max_iter - blocks, bound)
            return LimitResult(z, blocks + steps, residual, status)


def spectral_limit(system, coeffs):
    """The closed-form limit: the kappa-truncated combination of common
    eigenvectors.  Real by the conjugate-pair constraints."""
    if system.d == 0:
        raise ValueError("common eigensystem is empty")
    n = system.vectors[0].shape[0]
    out = np.zeros(n, dtype=np.complex128)
    for s in range(system.kappa):
        out += coeffs.alphas[s] * system.vectors[s]
    return np.real(out)


def point_period(M, xi, q):
    """Smallest divisor d of q with M^d xi = xi: :func:`first_period` of M."""
    M = numeric.require_square(np.asarray(M))
    return first_period(lambda z: numeric.mat_vec(M, z), xi, q)

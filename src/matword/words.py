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

    def covers_all(self, N):
        return set(self.letters) >= set(range(N))

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


def global_period(collection, letters=None, rho_tol=None):
    """q_r for each requested matrix via the peripheral spectrum, and
    q = lcm.

    ``letters`` restricts the computation to the letters actually present
    in a word (None means the whole collection).  A matrix with spectral
    radius beyond ``1 + rho_tol`` has no period and raises
    :class:`~matword.exceptions.SpectralRadiusViolation`; a strictly
    subcritical matrix contributes q_r = 1 (its only limit is 0).
    """
    if rho_tol is None:
        rho_tol = spectral.CLUSTER_TOL
    if letters is None:
        letters = tuple(range(collection.N))
    qs = []
    for l in letters:
        M = collection.matrices[collection.letter_index(l)]
        bad = numeric.first_negative_entry(M)
        if bad is not None:
            raise ValueError(
                f"matrix {collection.names[l]} has a negative entry at {bad}"
            )
        report = spectral.peripheral_period(M, rho_tol=rho_tol)
        if report.q_r is None:
            raise SpectralRadiusViolation(
                f"rho({collection.names[l]}) = {report.rho} exceeds 1 + {rho_tol}"
            )
        qs.append(report.q_r)
    return PeriodCertificate(letters=tuple(letters), q_r=tuple(qs), q=math.lcm(*qs))


def word_period(collection, word, rho_tol=None):
    """Period certificate restricted to the letters present in the word."""
    return global_period(collection, letters=word.present_letters(), rho_tol=rho_tol)


@dataclass(frozen=True)
class OrbitBoundReport:
    bounded_so_far: bool
    exceeded_at: int | None
    max_norm: float


def orbit_bounded(collection, word, x, horizon=10_000, bound=1e6):
    """Iterate x -> A_w x and report the first step whose sup-norm exceeds
    ``bound``, or that the orbit stayed bounded over the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    M = word_product(collection, word)
    z = np.asarray(x, dtype=np.float64).copy()
    max_norm = float(np.max(np.abs(z))) if z.size else 0.0
    for k in range(1, int(horizon) + 1):
        z = numeric.mat_vec(M, z)
        nrm = float(np.max(np.abs(z)))
        max_norm = max(max_norm, nrm)
        if nrm > bound:
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
    """Iterate z -> step(z) until it settles; the one convergence policy.

    Convergence: sup-norm step difference at most ``tol * (1 + |z|)``.
    A non-finite iterate or one past ``bound`` in sup norm is divergence.
    Returns ``(z, iterations, residual, status)`` with status one of
    converged, diverged or max_iter; only ``max_iter < 1`` raises.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    z = np.asarray(z, dtype=np.float64).copy()
    for k in range(1, int(max_iter) + 1):
        z_next = step(z)
        residual = float(np.max(np.abs(z_next - z)))
        if not np.all(np.isfinite(z_next)) or np.max(np.abs(z_next)) > bound:
            return z_next, k, residual, "diverged"
        if residual <= tol * (1.0 + float(np.max(np.abs(z)))):
            return z_next, k, residual, "converged"
        z = z_next
    return z, int(max_iter), residual, "max_iter"


def first_period(step, z, q, atol):
    """Smallest divisor d of q with step^d(z) within ``atol`` of z in sup
    norm, or None when even d = q fails."""
    image = z
    for d in range(1, int(q) + 1):
        image = step(image)
        if q % d == 0 and float(np.max(np.abs(image - z))) <= atol:
            return d
    return None


def limit_point(collection, word, x, q, tol=1e-10, max_iter=100_000, bound=1e12):
    """Iterate z -> (A_w)^q z to the limit point xi.

    Convergence and divergence follow :func:`iterate_to_fixed_point`;
    both are reported through the status, never raised.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    Bq = numeric.mat_power(word_product(collection, word), q)
    return LimitResult(*iterate_to_fixed_point(
        lambda z: numeric.mat_vec(Bq, z), x, tol, max_iter, bound))


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


def point_period(M, xi, q, tol=1e-10):
    """Smallest divisor d of q with M^d xi = xi (sup-norm tolerance).

    Raises :class:`~matword.exceptions.NotPeriodic` when even d = q fails,
    i.e. xi was not a q-periodic point to begin with.
    """
    M = numeric.require_square(np.asarray(M))
    xi = np.asarray(xi, dtype=np.float64)
    scale = float(np.max(np.abs(xi))) if xi.size else 0.0
    atol = tol * (1.0 + scale)
    period = first_period(lambda z: numeric.mat_vec(M, z), xi, q, atol)
    if period is None:
        raise NotPeriodic(f"vector is not {q}-periodic within tolerance {atol}")
    return period


def skew_product_step(collection, tau, x):
    """One step of the skew product T((tau, x)) = (shift(tau), A_{tau_1} x)."""
    head = tau.letter(0)
    if head >= collection.N:
        raise InvalidLetter(f"letter {head} outside collection of size {collection.N}")
    return tau.shift(), numeric.mat_vec(collection.matrices[head], np.asarray(x))

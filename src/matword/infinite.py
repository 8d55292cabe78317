"""Infinite words, prefix orbit tuples, letter counts, and the congruence
certificate for commuting diagonalizable collections.

For an infinite word tau covering all N letters by time m, the prefix
products A_{tau^[p]} send the limit point xi around a cycle of length at
most q.  Collecting the prefix lengths whose orbit tuples coincide yields
integer exponent data whose letter-count differences vanish mod q.
"""

from dataclasses import dataclass

import numpy as np

from . import numeric, spectral, structure, words
from .exceptions import (
    BudgetExhausted,
    HypothesesNotMet,
    InvalidLetter,
    NotRootOfUnity,
    ParseError,
)

#: default cap on the number of prefix evaluations
MAX_BUDGET = 100_000

#: scan cap while locating the first-coverage time m of a seeded stream
COVERAGE_SCAN_CAP = 100_000


class _SeededStream:
    """Deterministic pseudo-random letter source, grown lazily."""

    def __init__(self, seed, N):
        self.seed = int(seed)
        self.N = int(N)
        self._rng = np.random.default_rng(self.seed)
        self._cache = []

    def letter(self, i):
        while len(self._cache) <= i:
            self._cache.append(int(self._rng.integers(0, self.N)))
        return self._cache[i]


@dataclass(frozen=True)
class InfiniteWord:
    """An infinite letter sequence over {0, ..., N-1}.

    Backed either by an eventually-periodic description (preperiod +
    cycle) or by a seeded pseudo-random stream; ``offset`` implements the
    shift map without copying.  ``m`` is the first p by which all N
    letters of the collection have appeared.
    """

    N: int
    preperiod: tuple = ()
    cycle: tuple = ()
    stream: _SeededStream | None = None
    offset: int = 0

    def __post_init__(self):
        if self.stream is None and len(self.cycle) == 0:
            raise ParseError("an eventually-periodic word needs a nonempty cycle")
        for l in tuple(self.preperiod) + tuple(self.cycle):
            if not 0 <= int(l) < self.N:
                raise InvalidLetter(f"letter {l} outside [0, {self.N})")

    @classmethod
    def periodic(cls, cycle, N, preperiod=()):
        return cls(N=N, preperiod=tuple(preperiod), cycle=tuple(cycle))

    @classmethod
    def from_seed(cls, seed, N):
        return cls(N=N, stream=_SeededStream(seed, N))

    @classmethod
    def from_names(cls, cycle_text, collection, preperiod_text=""):
        pre = tuple(collection.letter_index(c) for c in preperiod_text)
        cyc = tuple(collection.letter_index(c) for c in cycle_text)
        return cls.periodic(cyc, collection.N, preperiod=pre)

    def letter(self, i):
        """0-based letter access (tau_1 is letter(0))."""
        i = int(i) + self.offset
        if self.stream is not None:
            return self.stream.letter(i)
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.cycle[(i - len(self.preperiod)) % len(self.cycle)]

    def shift(self, k=1):
        return InfiniteWord(
            N=self.N,
            preperiod=self.preperiod,
            cycle=self.cycle,
            stream=self.stream,
            offset=self.offset + int(k),
        )

    def prefix(self, p):
        """The finite word of the first p letters."""
        if p < 1:
            raise ValueError("prefix length must be at least 1")
        return words.Word(tuple(self.letter(i) for i in range(int(p))))

    @property
    def m(self):
        """First p by which all N letters have appeared."""
        seen = set()
        cap = COVERAGE_SCAN_CAP
        if self.stream is None:
            cap = len(self.preperiod) + len(self.cycle)
        for i in range(cap):
            seen.add(self.letter(i))
            if len(seen) == self.N:
                return i + 1
        raise InvalidLetter(
            f"word never covers all {self.N} letters within {cap} positions"
        )

    def description(self):
        if self.stream is not None:
            base = f"seed:{self.stream.seed}"
        else:
            pre = "".join(str(l) for l in self.preperiod)
            cyc = "".join(str(l) for l in self.cycle)
            base = f"periodic:{pre}|{cyc}" if pre else f"periodic:{cyc}"
        return base if self.offset == 0 else f"{base}+{self.offset}"


def phi(tau, p):
    """Letter counts Phi_{tau, r}(p) over the first p letters."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return phi_table(tau, p)[int(p)]


def phi_table(tau, p_max):
    """Cumulative letter counts: row p is Phi(p), for p = 0 .. p_max."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    table = np.zeros((int(p_max) + 1, tau.N), dtype=np.int64)
    for p in range(1, int(p_max) + 1):
        table[p] = table[p - 1]
        table[p, tau.letter(p - 1)] += 1
    return table


def _orbit_rows(M, xi, q):
    """(xi, M xi, ..., M^{q-1} xi) stacked as a q x n array."""
    rows = [xi]
    for _ in range(int(q) - 1):
        rows.append(numeric.mat_vec(M, rows[-1]))
    return np.array(rows)


@dataclass(frozen=True)
class OrbitTuple:
    """(xi, A_w xi, ..., A_w^{q-1} xi) stacked as a q x n array."""

    components: np.ndarray
    q: int

    @property
    def xi(self):
        return self.components[0]


def a_tilde(collection, word, q, x, tol=1e-10, max_iter=100_000, bound=1e12):
    """The orbit tuple of the limit point of x under (A_w)^q.

    Non-convergence of the underlying limit propagates as
    :class:`~matword.exceptions.HypothesesNotMet`.
    """
    result = words.limit_point(collection, word, x, q, tol=tol,
                               max_iter=max_iter, bound=bound)
    if not result.converged:
        raise HypothesesNotMet(
            f"limit of x under word {word.letters} did not converge "
            f"(status {result.status})"
        )
    M = words.word_product(collection, word)
    return OrbitTuple(components=_orbit_rows(M, result.xi, q), q=int(q))


def _check_q2_hypotheses(collection, tol):
    for r in range(collection.N):
        for s in range(r + 1, collection.N):
            commuting, _, _ = structure.commutator_test(
                collection.matrices[r], collection.matrices[s], tol)
            if not commuting:
                raise HypothesesNotMet(
                    f"matrices {collection.names[r]} and {collection.names[s]} "
                    "do not commute"
                )
    for name, M in zip(collection.names, collection.matrices):
        for pair in spectral.eigendecompose(M):
            if pair.defective:
                raise HypothesesNotMet(f"matrix {name} is not diagonalizable")


@dataclass(frozen=True)
class Q2Certificate:
    """Witness of the mod-q congruence of letter-count differences.

    ``p_gammas`` are the selected prefix lengths (increasing, all >= m);
    ``lambdas[r, j]`` the integer exponents with lambda_(r,j) =
    exp(2 pi i lambdas[r, j] / q) on the support of xi.  Components of the
    modulus-one block missing from xi are unconstrained by tuple equality,
    so their column carries the trivial exponent 0; the witness is not
    unique.  ``residues[k, j]`` re-checks the congruence of p_gammas[k+1]
    against p_gammas[0]; all entries are 0.  Pairwise congruences follow
    because each one is a difference of two rows of this table.
    """

    p_gammas: tuple
    lambdas: np.ndarray
    residues: np.ndarray
    q: int
    kappa: int
    m: int
    support: tuple

    def verify(self, tau):
        """Exact integer re-check of every pairwise congruence.

        All pairwise differences vanish mod q exactly when the weighted
        counts sum_r lambdas[r, j] * Phi_r(p) agree mod q across the whole
        sequence, which is what is checked (integer arithmetic only).
        """
        if len(self.p_gammas) < 2 or self.kappa == 0:
            return True
        table = phi_table(tau, max(self.p_gammas))
        weighted = (table[list(self.p_gammas)] @ self.lambdas) % self.q
        return bool(np.all(weighted == weighted[0]))


def _tuple_groups(tuples, tol_scale):
    """Group indices of componentwise-equal tuples (sup norm within scale)."""
    reps = []
    groups = []
    for idx, T in enumerate(tuples):
        for g, rep in enumerate(reps):
            if float(np.max(np.abs(T - rep))) <= tol_scale:
                groups[g].append(idx)
                break
        else:
            reps.append(T)
            groups.append([idx])
    return groups


def q2_certificate(collection, tau, x, search_budget=None, tol=1e-8,
                   limit_tol=1e-10):
    """Search for prefix lengths with equal orbit tuples and extract the
    congruence witness.

    Requires the collection to be pairwise commuting with every matrix
    diagonalizable; then xi and the tuple sequence are well defined for
    every x, the tuple takes at most q**kappa values, and a budget of
    q**kappa + 1 evaluations always finds a repeat.
    """
    _check_q2_hypotheses(collection, tol=tol * 10)
    system = structure.common_eigenvectors(collection)
    cert = words.global_period(collection)
    q, kappa = cert.q, system.kappa
    m = tau.m

    coeffs = structure.lc_membership(x, system, tol=1e-6)
    if coeffs is None:
        raise HypothesesNotMet(
            "x is not expressible over the common eigenvectors; the "
            "collection hypotheses must have been violated"
        )
    scale_x = 1.0 + float(np.max(np.abs(x)))
    support = tuple(
        j for j in range(kappa) if abs(coeffs.alphas[j]) > 1e-6 * scale_x
    )

    if search_budget is None:
        search_budget = min(q**kappa + 1, MAX_BUDGET)
    search_budget = int(search_budget)
    if search_budget < 1:
        raise ValueError("search_budget must be at least 1")

    # xi via the defining iterative route, on the first covering prefix
    first = a_tilde(collection, tau.prefix(m), q, x, tol=limit_tol)
    xi = first.xi
    tol_scale = tol * (1.0 + float(np.max(np.abs(xi))))

    tuples = [first.components]
    M_p = words.word_product(collection, tau.prefix(m))
    for p in range(m + 1, m + search_budget):
        M_p = numeric.mat_mul(collection.matrices[tau.letter(p - 1)], M_p)
        tuples.append(_orbit_rows(M_p, xi, q))

    groups = _tuple_groups(tuples, tol_scale)
    groups.sort(key=lambda g: (-len(g), g[0]))
    best = groups[0]
    if len(best) < 2:
        raise BudgetExhausted(
            f"no repeated orbit tuple among {search_budget} prefixes; "
            f"q**kappa + 1 = {q**kappa + 1} evaluations always suffice"
        )
    p_gammas = tuple(m + i for i in best)

    lambdas = np.zeros((collection.N, kappa), dtype=np.int64)
    for j in range(kappa):
        if j not in support:
            continue  # column stays 0: trivial exponent for absent components
        for r in range(collection.N):
            lam = system.lambda_table[j, r]
            k = int(round(q * np.angle(lam) / (2 * np.pi))) % q
            if abs(lam - np.exp(2j * np.pi * k / q)) > 1e-8:
                raise NotRootOfUnity(
                    f"eigenvalue {lam} of matrix {collection.names[r]} is not "
                    f"a {q}-th root of unity"
                )
            lambdas[r, j] = k

    table = phi_table(tau, p_gammas[-1])
    deltas = table[list(p_gammas[1:])] - table[p_gammas[0]]
    residues = (deltas @ lambdas) % q if kappa else np.zeros((len(p_gammas) - 1, 0),
                                                             dtype=np.int64)
    return Q2Certificate(
        p_gammas=p_gammas,
        lambdas=lambdas,
        residues=residues,
        q=q,
        kappa=kappa,
        m=m,
        support=support,
    )


def tuple_first_component_stability(collection, tau, x, p_range, tol=1e-8,
                                    limit_tol=1e-10):
    """True when the first orbit-tuple component stays xi_x across the
    prefix lengths in ``p_range``.

    Each prefix's limit is recomputed independently; a non-convergent
    limit is a hypothesis violation and raises rather than returning a
    bool.
    """
    _check_q2_hypotheses(collection, tol=tol * 10)
    cert = words.global_period(collection)
    ps = sorted(int(p) for p in p_range)
    if not ps:
        raise ValueError("p_range must be nonempty")
    reference = None
    for p in ps:
        tup = a_tilde(collection, tau.prefix(p), cert.q, x, tol=limit_tol)
        if reference is None:
            reference = tup.xi
            scale = 1.0 + float(np.max(np.abs(reference)))
            continue
        if float(np.max(np.abs(tup.xi - reference))) > tol * scale:
            return False
    return True

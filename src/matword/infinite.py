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
from .numeric import MAX_BUDGET

#: scan cap while locating the first-coverage time m of a seeded stream
COVERAGE_SCAN_CAP = 100_000


class _SeededStream:
    """Deterministic pseudo-random letter source, grown lazily.

    The cache grows by blocks ``rng.integers(0, N, size=k)``, k doubling,
    which draw the same letters as k scalar draws ``rng.integers(0, N)``.
    """

    def __init__(self, seed, N):
        self.seed = int(seed)
        self.N = int(N)
        self._rng = np.random.default_rng(self.seed)
        self._cache = []

    def letter(self, i):
        while len(self._cache) <= i:
            block = max(len(self._cache), 64)
            self._cache.extend(self._rng.integers(0, self.N, size=block).tolist())
        return self._cache[i]

    def letters(self, start, count):
        if count > 0:
            self.letter(start + count - 1)
        return np.array(self._cache[start:start + count], dtype=np.int64)


@dataclass(frozen=True)
class InfiniteWord:
    """An infinite letter sequence over {0, ..., N-1}.

    Backed either by an eventually-periodic description (preperiod +
    cycle) or by a seeded pseudo-random stream.  ``m`` is the first p by
    which all N letters of the collection have appeared.
    """

    N: int
    preperiod: tuple = ()
    cycle: tuple = ()
    stream: _SeededStream | None = None

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
        i = int(i)
        if self.stream is not None:
            return self.stream.letter(i)
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.cycle[(i - len(self.preperiod)) % len(self.cycle)]

    def letters(self, start, count):
        """Letters ``start .. start + count - 1`` as an int64 array: the
        bulk form of :meth:`letter`."""
        first, count = int(start), int(count)
        if self.stream is not None:
            return self.stream.letters(first, count)
        i = np.arange(first, first + count)
        pre = len(self.preperiod)
        out = np.array(self.cycle, dtype=np.int64)[(i - pre) % len(self.cycle)]
        head = i < pre
        out[head] = np.array(self.preperiod, dtype=np.int64)[i[head]]
        return out

    def prefix(self, p):
        """The finite word of the first p letters."""
        if p < 1:
            raise ValueError("prefix length must be at least 1")
        return words.Word(tuple(self.letters(0, p).tolist()))

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
            return f"seed:{self.stream.seed}"
        pre = "".join(str(l) for l in self.preperiod)
        cyc = "".join(str(l) for l in self.cycle)
        return f"periodic:{pre}|{cyc}" if pre else f"periodic:{cyc}"


def phi(tau, p):
    """Letter counts Phi_{tau, r}(p) over the first p letters."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return phi_table(tau, p)[int(p)]


def phi_table(tau, p_max):
    """Cumulative letter counts: row p is Phi(p), for p = 0 .. p_max."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    p_max = int(p_max)
    steps = np.zeros((p_max + 1, tau.N), dtype=np.int64)
    steps[np.arange(1, p_max + 1), tau.letters(0, p_max)] = 1
    return np.cumsum(steps, axis=0)


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


def a_tilde(collection, word, q, x, tol=numeric.CONVERGENCE_TOL,
            max_iter=numeric.MAX_ITER, bound=numeric.BOUND):
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


def _check_q2_hypotheses(collection):
    for r, s, C, scale in structure.pair_table(collection)[1]:
        if not structure._commutes(C, scale):
            raise HypothesesNotMet(
                f"matrices {collection.names[r]} and {collection.names[s]} "
                "do not commute"
            )
    for index, name in enumerate(collection.names):
        if any(pair.defective for pair in collection._eigenpairs(index)):
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
        p_gammas = np.array(self.p_gammas)
        table = phi_table(tau, int(p_gammas.max()))
        weighted = (table[p_gammas] @ self.lambdas) % self.q
        return bool(np.all(weighted == weighted[0]))


def _check_fixed_by_letters(collection, xi, q, tol_scale):
    """Raise HypothesesNotMet unless |A_r^q xi - xi| <= tol_scale for every
    letter r (sup norm, NaN included)."""
    for name, A in zip(collection.names, collection.matrices):
        z = xi
        for _ in range(q):
            z = numeric.mat_vec(A, z)
        gap = float(np.max(np.abs(z - xi)))
        if not gap <= tol_scale:
            raise HypothesesNotMet(
                f"matrix {name} does not fix the limit point: "
                f"|{name}^{q} xi - xi| = {gap:.3g} exceeds {tol_scale:.3g}"
            )


def _class_tuples(collection, xi, q, residues):
    """Orbit tuples of xi under M_e = prod_r A_r^{e_r}, one for each residue
    vector e in ``residues``, as a (len(residues), q, n) array.

    M_e is assembled from the powers A_r^k, k < q, tabulated once per
    letter; the tuple is :func:`_orbit_rows` of M_e.
    """
    n = xi.shape[0]
    powers = []
    for A in collection.matrices:
        table = [np.eye(n), A]
        for _ in range(2, q):
            table.append(numeric.mat_mul(A, table[-1]))
        powers.append(table)
    tuples = []
    for e in residues:
        M = powers[0][e[0]]
        for table, k in zip(powers[1:], e[1:]):
            M = numeric.mat_mul(table[k], M)
        tuples.append(_orbit_rows(M, xi, q))
    return np.array(tuples)


#: codes stay below this bound, so ``code * q + residue`` cannot overflow int64
_CODE_LIMIT = 2**62


def _renumber(values):
    """(count, labels): each value's rank among the distinct values."""
    distinct, labels = np.unique(values, return_inverse=True)
    return len(distinct), labels.reshape(-1)


def _row_codes(rows, q):
    """One int64 code per row of a (B, k) array with entries in [0, q):
    two codes are equal exactly when their rows are.

    The code is the row read as a base-q number, one column at a time.
    Before a column would push the codes past ``_CODE_LIMIT``, the codes
    so far (and, for q beyond the limit, the column) are renumbered by
    rank, which keeps them below B and keeps equality.  k = 0 codes every
    row 0.
    """
    codes, size = np.zeros(len(rows), dtype=np.int64), 1
    for column in np.asarray(rows, dtype=np.int64).T:
        width = int(q)
        if size * width > _CODE_LIMIT:
            size, codes = _renumber(codes)
        if size * width > _CODE_LIMIT:
            width, column = _renumber(column)
        codes = codes * width + column
        size *= width
    return codes


def _choose_prefixes(residue_rows, exponents, q):
    """(chosen, classes) for a (B, N) array of residue vectors Phi(p) mod q
    and the (N, k) integer exponents of the support.

    ``chosen`` are the indices of the largest group of equal keys
    e lambda mod q, increasing; among groups of that size, the one whose
    first index comes first.  ``classes`` are the first indices of the
    residue classes in that group, increasing.

    Only the codes of the residue rows and one sort of them touch every
    row.  The keys are formed once per class, which is exact because
    Phi(p) lambda = (Phi(p) mod q) lambda (mod q), and the classes are
    grouped by key.  The int64 key products stay below N (q - 1)^2, far
    from overflow: q2's float check forms N q matrix powers, so q never
    comes near.
    """
    _, first, labels, counts = np.unique(
        _row_codes(residue_rows, q), return_index=True, return_inverse=True,
        return_counts=True)
    order = np.argsort(first)  # classes by first index
    keys = (residue_rows[first[order]] @ exponents) % q
    groups, group_of = _renumber(_row_codes(keys, q))
    totals = np.zeros(groups, dtype=np.int64)
    np.add.at(totals, group_of, counts[order])
    # the first class, by first index, of a group of the largest total
    winner = group_of[np.argmax(totals[group_of] == totals.max())]
    members = order[group_of == winner]
    in_group = np.zeros(len(first), dtype=bool)
    in_group[members] = True
    return np.flatnonzero(in_group[labels.reshape(-1)]), first[members]


def check_budget(search_budget):
    """``search_budget`` as an int, after checking that it lies in
    [1, MAX_BUDGET]: the search tabulates the letter counts of that many
    prefixes, so a larger budget would only end in a failed allocation."""
    budget = int(search_budget)
    if not 1 <= budget <= MAX_BUDGET:
        raise ValueError(f"search_budget {budget} must be from 1 to {MAX_BUDGET}")
    return budget


def q2_certificate(collection, tau, x, search_budget=None,
                   limit_tol=numeric.CONVERGENCE_TOL, rho_tol=numeric.CLUSTER_TOL,
                   max_iter=numeric.MAX_ITER, bound=numeric.BOUND):
    """Search for prefix lengths with equal orbit tuples and extract the
    congruence witness.

    Requires the collection to be pairwise commuting, by the test of
    ``validate``, with every matrix diagonalizable; then xi and the tuple
    sequence are well defined for every x, the tuple takes at most
    q**kappa values, and q**kappa + 1 evaluations always find a repeat.

    Integer keys decide and floats check: the orbit tuple at prefix p
    depends only on the key sum_r lambdas[r, j] * Phi_r(p) mod q, so the
    chosen prefixes are the largest group of equal keys, ties going to the
    earliest first prefix.  The key is a function of the residue vector
    Phi(p) mod q, so the B prefixes of a budget fall into at most
    min(B, q**N) residue classes.  One O(B N) pass codes each prefix's
    residue vector as one exact int64 (:func:`_row_codes`), and one sort
    of the codes gives the classes with their counts and first prefixes:
    O(B N + B log B) array work, with no Python step per prefix.  The keys
    are then formed and grouped once per class (:func:`_choose_prefixes`).

    Floats check one tuple per residue class.  Every letter must fix xi
    under its q-th power, |A_r^q xi - xi| <= TUPLE_TOL * (1 + |xi|); then,
    the family commuting, the tuple at prefix p depends only on its residue
    class.  Each class of the chosen group, in order of first prefix, has
    its tuple formed from powers A_r^k with k < q, and it must lie within
    TUPLE_TOL * (1 + |xi|) of the first chosen prefix's.  A miss of either
    check raises HypothesesNotMet.  The float work is O(N * q + classes * N)
    matrix products whatever the budget.

    ``rho_tol`` is the radius band of :func:`~matword.words.global_period`,
    which gives q; ``limit_tol``, ``max_iter`` and ``bound`` are those of
    the limit xi (:func:`a_tilde`).  The default budget is
    min(q**kappa + 1, MAX_BUDGET); an explicit one outside [1, MAX_BUDGET]
    raises ValueError (:func:`check_budget`) before any work is done.
    """
    if search_budget is not None:
        search_budget = check_budget(search_budget)
    _check_q2_hypotheses(collection)
    system = structure.common_eigenvectors(collection)
    cert = words.global_period(collection, rho_tol=rho_tol)
    q, kappa = cert.q, system.kappa
    m = tau.m

    coeffs = structure.lc_membership(x, system)
    if coeffs is None:
        raise HypothesesNotMet(
            "x is not expressible over the common eigenvectors; the "
            "collection hypotheses must have been violated"
        )
    scale_x = 1.0 + float(np.max(np.abs(x)))
    support = tuple(
        j for j in range(kappa) if abs(coeffs.alphas[j]) > numeric.LC_TOL * scale_x
    )

    if search_budget is None:
        search_budget = min(q**kappa + 1, MAX_BUDGET)

    # xi via the defining iterative route, on the first covering prefix
    first = a_tilde(collection, tau.prefix(m), q, x, tol=limit_tol,
                    max_iter=max_iter, bound=bound)
    xi = first.xi
    tol_scale = numeric.TUPLE_TOL * (1.0 + float(np.max(np.abs(xi))))

    lambdas = np.zeros((collection.N, kappa), dtype=np.int64)
    for j in support:  # columns off the support stay 0, the trivial exponent
        for r in range(collection.N):
            lam = system.lambda_table[j, r]
            k = spectral.root_of_unity_exponent(lam, q)
            if k is None:
                raise NotRootOfUnity(
                    f"eigenvalue {lam} of matrix {collection.names[r]} is not "
                    f"a {q}-th root of unity"
                )
            lambdas[r, j] = k

    table = phi_table(tau, m + search_budget - 1)
    residue_rows = table[m:] % q
    # columns off the support are 0 and add nothing to the keys
    chosen, classes = _choose_prefixes(residue_rows, lambdas[:, list(support)], q)
    if len(chosen) < 2:
        raise BudgetExhausted(
            f"no repeated orbit tuple among {search_budget} prefixes; "
            f"q**kappa + 1 = {q**kappa + 1} evaluations always suffice"
        )
    p_gammas = tuple((m + chosen).tolist())

    _check_fixed_by_letters(collection, xi, q, tol_scale)
    tuples = _class_tuples(collection, xi, q, residue_rows[classes].tolist())
    gaps = np.abs(tuples - tuples[0]).max(axis=(1, 2))
    for p, gap in zip((m + classes).tolist(), gaps.tolist()):
        if not gap <= tol_scale:  # NaN included
            raise HypothesesNotMet(
                f"orbit tuples at prefixes {p_gammas[0]} and {p} "
                f"differ by {gap:.3g} although their letter-count keys agree"
            )

    phis = table[m + chosen]
    residues = ((phis[1:] - phis[0]) @ lambdas) % q
    return Q2Certificate(
        p_gammas=p_gammas,
        lambdas=lambdas,
        residues=residues,
        q=q,
        kappa=kappa,
        m=m,
        support=support,
    )


def tuple_first_component_stability(collection, tau, x, p_range):
    """True when the first orbit-tuple component stays xi_x across the
    prefix lengths in ``p_range``.

    Each prefix's limit is recomputed independently; a non-convergent
    limit is a hypothesis violation and raises rather than returning a
    bool.
    """
    _check_q2_hypotheses(collection)
    cert = words.global_period(collection)
    ps = sorted(int(p) for p in p_range)
    if not ps:
        raise ValueError("p_range must be nonempty")
    reference = None
    for p in ps:
        tup = a_tilde(collection, tau.prefix(p), cert.q, x)
        if reference is None:
            reference = tup.xi
            scale = 1.0 + float(np.max(np.abs(reference)))
            continue
        if float(np.max(np.abs(tup.xi - reference))) > numeric.TUPLE_TOL * scale:
            return False
    return True

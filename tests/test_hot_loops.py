"""Oracles for the hot loops: every fast kernel against the plain loop it
replaces, compared bit for bit where the two compute the same floats.

The oracles are the straightforward per-element forms: the sequential
prefix chain M_p = A_{tau_p} M_{p-1} with the greedy tuple grouping
(against q2's integer keys and, within the tuple tolerance, its residue
class tuples), the per-prefix dict loop that grouped q2's keys and
classes (against the per-class selection), the class tuples' products
looped one at a time,
per-letter count tables, one letter map at a time, the monomial form in
numpy scalars, and the
fixed-point loop written with the numpy reductions.  A collection's
shared spectral results are checked against the same calls on fresh
collections, and a request's LAPACK calls are counted by wrapping
``np.linalg``.  The common eigenvectors' sort key, which rounds the
vector part as one numpy array, is checked against the key formed one
Python ``round`` at a time, and the one-column refinement step against
the rank decision of ``numeric.rank_and_nullspace``.
"""

import io
import json
import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import test_golden
from helpers import bits_equal, random_commuting_collection, random_covering_word
from matword import (cli, conemaps, corpus, infinite, numeric, reporting, spectral,
                     structure, words)
from matword.collection import MatrixCollection
from matword.exceptions import BudgetExhausted

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402


# ---------------------------------------------------------------------------
# q2 prefix grouping and class tuples


def chain_tuples(coll, tau, m, xi, q, budget):
    """Orbit tuples at prefixes p = m .. m + budget - 1 from the sequential
    chain M_p = A_{tau_p} M_{p-1}, one prefix at a time."""
    M = words.word_product(coll, tau.prefix(m))
    tuples = [infinite._orbit_rows(M, xi, q)]
    for letter in tau.letters(m, budget - 1).tolist():
        M = numeric.mat_mul(coll.matrices[letter], M)
        tuples.append(infinite._orbit_rows(M, xi, q))
    return np.array(tuples)


def greedy_groups(tuples, tol_scale):
    """Each tuple joins the first earlier representative within the scale."""
    reps, groups = [], []
    for idx, T in enumerate(tuples):
        for g, rep in enumerate(reps):
            if float(np.max(np.abs(T - rep))) <= tol_scale:
                groups[g].append(idx)
                break
        else:
            reps.append(T)
            groups.append([idx])
    return groups


def q2_cases(seed):
    """(collection, tau, x, budget) on four seeded commuting families:
    periodic and seeded taus, x with one or two nonzero entries, small
    budgets."""
    rng = np.random.default_rng(seed)
    for _ in range(4):
        coll = random_commuting_collection(rng, max_n=6)
        cycle = random_covering_word(rng, coll.N, 5).letters
        taus = [infinite.InfiniteWord.periodic(cycle, N=coll.N),
                infinite.InfiniteWord.from_seed(int(rng.integers(0, 1000)), coll.N)]
        for tau in taus:
            for nonzero in (1, 2):
                x = np.zeros(coll.n)
                x[rng.choice(coll.n, size=min(nonzero, coll.n), replace=False)] = 1.0
                for budget in (2, 3, 5, 9):
                    yield coll, tau, x, budget


@pytest.mark.parametrize("seed", range(6))
def test_tuple_groups_match_greedy_oracle(seed):
    """q2's integer keys pick the largest group of the greedy float
    grouping of the orbit tuples, ties going to the earliest group."""
    ties = exhausted = 0
    for coll, tau, x, budget in q2_cases(seed):
        q, m = words.global_period(coll).q, tau.m
        xi = infinite.a_tilde(coll, tau.prefix(m), q, x).xi
        tol_scale = numeric.TUPLE_TOL * (1.0 + float(np.max(np.abs(xi))))
        tuples = chain_tuples(coll, tau, m, xi, q, budget)
        groups = greedy_groups(list(tuples), tol_scale)
        best = min(groups, key=lambda g: (-len(g), g[0]))
        if len(best) < 2:
            exhausted += 1
            with pytest.raises(BudgetExhausted):
                infinite.q2_certificate(coll, tau, x, search_budget=budget)
            continue
        ties += sum(len(g) == len(best) for g in groups) > 1
        cert = infinite.q2_certificate(coll, tau, x, search_budget=budget)
        assert cert.p_gammas == tuple(m + i for i in best)
    assert ties and exhausted


@pytest.mark.parametrize("seed", range(6))
def test_class_tuples_match_the_prefix_chain(seed):
    """Every prefix's chain tuple lies within the tuple tolerance of the
    tuple of its residue class Phi(p) mod q."""
    shared = 0
    for coll, tau, x, budget in q2_cases(seed):
        q, m = words.global_period(coll).q, tau.m
        xi = infinite.a_tilde(coll, tau.prefix(m), q, x).xi
        tol_scale = numeric.TUPLE_TOL * (1.0 + float(np.max(np.abs(xi))))
        residues = infinite.phi_table(tau, m + budget - 1)[m:] % q
        distinct, index = np.unique(residues, axis=0, return_inverse=True)
        expected = infinite._class_tuples(coll, xi, q, distinct.tolist())
        got = chain_tuples(coll, tau, m, xi, q, budget)
        assert np.abs(got - expected[index.ravel()]).max() <= tol_scale
        shared += len(distinct) < budget
    assert shared  # some class holds several prefixes


def dict_selection(keys, residues):
    """The per-prefix loop the array selection replaced: the largest group
    of equal key rows, ties going to the earliest first index, then the
    first index of each distinct residue row within it, in order of first
    occurrence."""
    groups = {}  # insertion order: by first index
    for i, key in enumerate(map(tuple, keys.tolist())):
        groups.setdefault(key, []).append(i)
    best = max(groups.values(), key=len)
    classes = {}
    for i, e in zip(best, map(tuple, residues[best].tolist())):
        classes.setdefault(e, i)
    return best, list(classes.values())


def exact_keys(residues, exponents, q):
    """Key rows residues @ exponents mod q in Python integers."""
    return (residues.astype(object) @ exponents.astype(object)) % q


def class_selection(residues, exponents, q):
    chosen, classes = infinite._choose_prefixes(residues, exponents, q)
    return chosen.tolist(), classes.tolist()


def pooled_rows(rng, count, width, q, pool):
    """``count`` rows drawn from ``pool`` random rows whose column j takes
    one of ten random values in [0, q), so that many rows differ in one
    column only; ``pool`` None makes every row distinct."""
    if pool is None:
        codes = rng.choice(q**width, size=count, replace=False)
        return np.stack(np.unravel_index(codes, (q,) * width), axis=1)
    values = rng.integers(0, q, size=(10, width), dtype=np.int64)
    rows = values[rng.integers(0, 10, size=(pool, width)), np.arange(width)]
    return rows[rng.integers(0, pool, size=count)]


#: name -> (budget B, N, kappa, q, distinct residue rows drawn from)
SELECTION_CASES = {
    "small": (60, 2, 3, 5, 12),
    "kappa-0": (30, 2, 0, 4, 3),
    "all-distinct": (50, 3, 3, 7, None),
    "max-budget": (infinite.MAX_BUDGET, 3, 5, 6, 150),
    "q^kappa-past-2^62": (5000, 2, 3, 2**40, 300),
    "q-past-2^62/B": (3000, 2, 2, 2**61, 100),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SELECTION_CASES))
def test_selection_matches_dict_oracle(name, seed, monkeypatch):
    """The per-class selection picks exactly the dict loop's prefixes and
    class representatives from residue rows and exponents, the loop fed
    the exact key rows: random group sizes, and every class repeated three
    times.  Where q**N or q**kappa passes 2^62 the codes are renumbered on
    the way."""
    B, N, kappa, q, pool = SELECTION_CASES[name]
    rng = np.random.default_rng(seed)
    coding, renumbered = [], []
    row_codes, renumber = infinite._row_codes, infinite._renumber

    def coded(rows, q):
        coding.append(True)
        try:
            return row_codes(rows, q)
        finally:
            coding.pop()

    def counted(values):
        renumbered.extend(coding)  # the codes' renumbering, not the grouping's
        return renumber(values)

    monkeypatch.setattr(infinite, "_row_codes", coded)
    monkeypatch.setattr(infinite, "_renumber", counted)
    # exponents small enough that the int64 key products cannot overflow
    exponents = rng.integers(0, min(q, 2**63 // (N * q)), size=(N, kappa))
    residues = pooled_rows(rng, B, N, q, pool)
    distinct = rng.permutation(np.unique(residues, axis=0))[:40]
    tied = rng.permutation(np.repeat(distinct, 3, axis=0))
    for rows in (residues, tied):
        keys = exact_keys(rows, exponents, q)
        assert class_selection(rows, exponents, q) == dict_selection(keys, rows)
    assert bool(renumbered) == (q**N > 2**62 or q**kappa > 2**62)


#: key (e_0 + e_1) mod 3: classes (0, 1) and (1, 0) have key 1, (0, 0)
#: and (1, 2) key 0
TIED_CLASSES = {
    # key 1 first: its two classes of two tie with key 0's three plus one,
    # and win the tie
    "key-1-first": ([(0, 1), (0, 0), (0, 0), (1, 0), (0, 0), (1, 2), (0, 1), (1, 0)],
                    [0, 3, 6, 7], [0, 3]),
    # key 0 first: the same counts, and the tie goes the other way
    "key-0-first": ([(0, 0), (0, 1), (0, 0), (1, 0), (0, 0), (1, 2), (0, 1), (1, 0)],
                    [0, 2, 4, 5], [0, 5]),
}


@pytest.mark.parametrize("name", sorted(TIED_CLASSES))
def test_tied_key_groups_of_different_classes(name):
    """Two key groups of equal total count, made of different residue
    classes: the group of the earliest first prefix wins, whichever holds
    the largest class, and its classes come in first-prefix order."""
    rows, chosen, classes = TIED_CLASSES[name]
    residues, exponents = np.array(rows), np.array([[1], [1]])
    assert class_selection(residues, exponents, 3) == (chosen, classes)
    assert dict_selection(exact_keys(residues, exponents, 3), residues) == (
        chosen, classes)


def test_row_codes_keep_rows_apart_past_int64():
    """q = 2^61: first entries k and k + 2^60 (k < 8) against 16 second
    entries, every pair twice.  Read in base q, or with either the codes
    or the column left unrenumbered, some distinct rows wrap onto one
    int64 code; the codes must match the rows exactly."""
    q = 2**61
    first = np.concatenate([np.arange(8), np.arange(8) + 2**60])
    rows = np.stack(np.meshgrid(first, np.arange(16)), axis=-1).reshape(-1, 2)
    rows = np.random.default_rng(0).permutation(np.concatenate([rows, rows]))
    _, by_row = np.unique(rows, axis=0, return_inverse=True)
    _, by_code = np.unique(infinite._row_codes(rows, q), return_inverse=True)
    assert by_code.max() == 255
    assert np.array_equal(by_code.ravel(), by_row.ravel())


def test_q2_at_max_budget_matches_dict_oracle():
    """Swap and identity along ABAB...: at the budget cap the keys split the
    prefixes by the parity of the A count, two groups of 50,000, and the
    tie goes to the group of the first prefix."""
    coll = MatrixCollection(names=("A", "B"),
                            matrices=(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)))
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    B = infinite.MAX_BUDGET
    cert = infinite.q2_certificate(coll, tau, np.array([1.0, 0.5]), search_budget=B)
    table = infinite.phi_table(tau, cert.m + B - 1)
    keys = (table[cert.m:] @ cert.lambdas) % cert.q
    best, _ = dict_selection(keys, table[cert.m:] % cert.q)
    assert len(cert.p_gammas) == 50_000
    assert cert.p_gammas == tuple(cert.m + i for i in best)
    assert cert.verify(tau)


def looped_class_tuple(matrices, xi, q, e):
    """Orbit rows of xi under M_e = A_{N-1}^{e_{N-1}} ... A_0^{e_0}, one
    product at a time: A^k = A A^{k-1}, each letter's power multiplied on
    from the left, each row one mat_vec."""
    M = None
    for A, k in zip(matrices, e):
        P = np.eye(len(xi)) if k == 0 else A
        for _ in range(k - 1):
            P = numeric.mat_mul(A, P)
        M = P if M is None else numeric.mat_mul(P, M)
    rows = [xi]
    for _ in range(q - 1):
        rows.append(numeric.mat_vec(M, rows[-1]))
    return np.array(rows)


@pytest.mark.parametrize("n", range(1, 17))
def test_mat_vec_batch_bit_equal_to_mat_vec(n):
    """q2's batch of matrix-vector products, once ``mat_vec_batch`` over
    the prefix chain, is now ``_class_tuples``: one orbit tuple per residue
    class, from power tables.  Each tuple equals the looped products bit
    for bit, at dimensions 1..16, one to 33 classes and any matrices."""
    rng = np.random.default_rng(100 + n)
    for count in (1, 2, 33):
        N, q = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        matrices = tuple(rng.normal(size=(n, n)) * rng.choice([1e-3, 1.0, 1e5])
                         for _ in range(N))
        coll = MatrixCollection(names=tuple("ABC"[:N]), matrices=matrices)
        xi = rng.normal(size=n)
        residues = rng.integers(0, q, size=(count, N)).tolist()
        got = infinite._class_tuples(coll, xi, q, residues)
        expected = np.array([looped_class_tuple(matrices, xi, q, e) for e in residues])
        assert bits_equal(got, expected)


# ---------------------------------------------------------------------------
# letter counts and bulk letters


def looped_phi_table(tau, p_max):
    table = np.zeros((p_max + 1, tau.N), dtype=np.int64)
    for p in range(1, p_max + 1):
        table[p] = table[p - 1]
        table[p, tau.letter(p - 1)] += 1
    return table


def sample_words():
    periodic = infinite.InfiniteWord.periodic((0, 1, 1), N=2)
    preperiodic = infinite.InfiniteWord.periodic((2, 0), N=3, preperiod=(1, 1, 0, 2))
    seeded = infinite.InfiniteWord.from_seed(7, N=3)
    return {
        "periodic": periodic,
        "preperiodic": preperiodic,
        "seeded": seeded,
        "single": infinite.InfiniteWord.periodic((0,), N=1),
    }


@pytest.mark.parametrize("name", sorted(sample_words()))
def test_letters_and_phi_table_match_per_letter_loop(name):
    tau = sample_words()[name]
    for start, count in [(0, 0), (0, 1), (0, 40), (3, 17), (9, 1), (50, 300)]:
        got = tau.letters(start, count)
        assert got.dtype == np.int64
        assert got.tolist() == [tau.letter(start + i) for i in range(count)]
    for p_max in (0, 1, 7, 400):
        table = infinite.phi_table(tau, p_max)
        assert table.dtype == np.int64
        assert np.array_equal(table, looped_phi_table(tau, p_max))
    assert tau.prefix(13).letters == tuple(tau.letter(i) for i in range(13))


# ---------------------------------------------------------------------------
# the fused cone block


def cone_collection(rng, n, zeros):
    mats = []
    for _ in range(2):
        M = rng.uniform(0.0, 1.5, size=(n, n))
        M[rng.random(size=(n, n)) < zeros] = 0.0
        mats.append(M)
    return MatrixCollection(names=("A", "B"), matrices=tuple(mats))


CONE_STARTS = {
    "interior": lambda rng, n: rng.uniform(0.2, 5.0, size=n),
    # exponents below log(TINY): flushed to zero, then the monomial form
    "underflow": lambda rng, n: rng.uniform(0.5, 2.0, size=n) * 1e-300,
    "boundary": lambda rng, n: np.where(np.arange(n) == 0, 0.0,
                                        rng.uniform(0.2, 5.0, size=n)),
    "nan": lambda rng, n: np.where(np.arange(n) == n - 1, np.nan,
                                   rng.uniform(0.2, 5.0, size=n)),
}


def looped_cone_apply(M, y):
    """One letter map, dispatched as the plain loop does: a negative
    coordinate raises, an interior point goes through the log domain with
    its flush written as ``np.where``, any other point (a zero or a NaN
    coordinate) through the monomial form."""
    if np.any(y < 0):
        raise ValueError("negative coordinate")
    if np.all(y > 0):
        exponents = numeric.mat_vec(M, np.log(y))
        return np.where(exponents < conemaps._LOG_TINY, 0.0, np.exp(exponents))
    return conemaps.ConeMap(M).monomial_apply(y)


def looped_word_cone_apply(collection, word, y):
    """f_w(y) one letter map at a time."""
    out = np.asarray(y, dtype=np.float64)
    for letter in word.letters:
        out = looped_cone_apply(collection.matrices[letter], out)
    return out


@pytest.mark.parametrize("start", sorted(CONE_STARTS))
@pytest.mark.parametrize("seed", range(4))
def test_cone_block_bit_equal_to_word_cone_apply(start, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    coll = cone_collection(rng, n, zeros=0.3 * (seed % 2))
    word = words.Word(tuple(int(l) for l in rng.integers(0, 2, size=rng.integers(1, 4))))
    q = int(rng.integers(1, 5))
    y = CONE_STARTS[start](rng, n)
    maps = [conemaps.ConeMap(M) for M in coll.matrices]
    step = conemaps._block_map(maps, word, q)
    with np.errstate(all="ignore"):
        fused = expected = y
        for _ in range(3):
            assert bits_equal(conemaps.word_cone_apply(coll, word, expected),
                              looped_word_cone_apply(coll, word, expected))
            fused = step(fused)
            for _ in range(q):
                expected = looped_word_cone_apply(coll, word, expected)
            assert bits_equal(fused, expected)


def numpy_scalar_monomial(M, y):
    """The monomial form one numpy scalar at a time: ``y[j] ** M[i, j]``
    and the running product as numpy float64 scalars."""
    n = M.shape[0]
    out = np.ones(n, dtype=np.float64)
    for i in range(n):
        acc = 1.0
        for j in range(n):
            a = M[i, j]
            if a == 0.0:
                continue
            if y[j] == 0.0:
                acc = 0.0
                break
            acc *= y[j] ** a
        out[i] = 0.0 if acc < conemaps.TINY else acc
    return out


#: coordinates for the monomial oracle: zeros, e^+-30, overflowing and
#: underflowing powers, NaN and infinity
MONOMIAL_STARTS = {
    "zeros": lambda rng, n: rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.6),
    "e^+-30": lambda rng, n: np.exp(rng.uniform(-30.0, 30.0, size=n)),
    "e^+-700": lambda rng, n: np.exp(rng.uniform(-700.0, 700.0, size=n)),
    "nan": lambda rng, n: np.where(rng.random(n) < 0.2, np.nan,
                                   np.exp(rng.uniform(-400.0, 400.0, size=n))),
    "inf": lambda rng, n: np.where(rng.random(n) < 0.2, np.inf,
                                   rng.uniform(0.0, 1e-300, size=n)),
}


@pytest.mark.parametrize("start", sorted(MONOMIAL_STARTS))
def test_monomial_bit_equal_to_numpy_scalars(start):
    """The Python-float monomial form gives the numpy-scalar loop's bits,
    NaN signs included, at quarter-step and at random exponents."""
    rng = np.random.default_rng(sorted(MONOMIAL_STARTS).index(start))
    with np.errstate(all="ignore"):
        for trial in range(400):
            n = int(rng.integers(1, 7))
            M = rng.integers(0, 12, size=(n, n)) / 4.0
            if trial % 3 == 0:
                M = rng.uniform(0.0, 3.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
            y = MONOMIAL_STARTS[start](rng, n)
            assert bits_equal(conemaps.ConeMap(M).monomial_apply(y),
                              numpy_scalar_monomial(M, y))


#: the NaN sign of the monomial form on the first call of a fresh
#: interpreter and after CPython has specialised the float multiply
FRESH_NAN = """
import numpy as np
from matword import conemaps
M, y = np.ones((2, 2)), np.array([np.nan, -np.nan])
print(*sorted({conemaps.ConeMap(M).monomial_apply(y).tobytes().hex()
               for _ in range(300)}))
"""


def test_monomial_nan_sign_independent_of_warm_up():
    src = str(pathlib.Path(conemaps.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, "-c", FRESH_NAN], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    want = numpy_scalar_monomial(np.ones((2, 2)), np.array([np.nan, -np.nan]))
    assert proc.stdout.split() == [want.tobytes().hex()]


def test_log_domain_step_matches_the_where_form():
    # exponents between log(TINY) ~ -708 and -745 give subnormal exp values,
    # which the step must flush to exact zero
    rng = np.random.default_rng(5)
    flushed = 0
    for n in range(1, 7):
        M = rng.uniform(0.0, 1.0, size=(n, n))
        M *= rng.uniform(1.0, 1.1, size=(n, 1)) / M.sum(axis=1, keepdims=True)
        for y in (rng.uniform(0.5, 2.0, size=n) * 1e-300, rng.uniform(0.2, 5.0, size=n)):
            exponents = numeric.mat_vec(M, np.log(y))
            underflow = exponents < conemaps._LOG_TINY
            value = conemaps._log_domain(M, y)
            assert bits_equal(value, np.where(underflow, 0.0, np.exp(exponents)))
            flushed += int((underflow & (np.exp(exponents) > 0.0)).sum())
    assert flushed > 0


def test_cone_block_meets_the_boundary():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    coll = MatrixCollection(names=("A",), matrices=(A,))
    y = np.array([3.0, 1e-200])
    step = conemaps._block_map([conemaps.ConeMap(A)], words.Word((0,)), 2)
    z = step(y)
    assert z[1] == 0.0 and z[0] > 0.0
    assert bits_equal(step(z), conemaps.word_cone_apply(
        coll, words.Word((0, 0)), z))


# ---------------------------------------------------------------------------
# the fixed-point loop


def reduction_loop(step, z, tol, max_iter, bound):
    """The fixed-point loop written with np.max / np.isfinite."""
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


def after(k, value, rate=0.5):
    """A contraction that puts ``value`` into entry 0 at step k."""
    count = [0]

    def step(z):
        count[0] += 1
        out = rate * z
        if count[0] == k:
            out[0] = value
        return out

    return step


FIXED_POINT_CASES = {
    "nan": (lambda: after(3, np.nan), 1e12),
    "inf": (lambda: after(2, np.inf), 1e12),
    "minus-inf": (lambda: after(4, -np.inf), 1e12),
    "past-bound": (lambda: after(5, 2e12), 1e12),
    "at-bound": (lambda: after(5, 1e12), 1e12),
    "inf-with-infinite-bound": (lambda: after(2, np.inf), np.inf),
    "nan-bound": (lambda: after(3, 1e300), np.nan),
    "growth": (lambda: (lambda z: 3.0 * z), 1e12),
    "converges": (lambda: (lambda z: 0.5 * z), 1e12),
    "slow": (lambda: (lambda z: 0.9999 * z), 1e12),
}


@pytest.mark.parametrize("name", sorted(FIXED_POINT_CASES))
def test_fixed_point_loop_matches_reduction_loop(name):
    make, bound = FIXED_POINT_CASES[name]
    z0 = np.array([1.0, -2.0, 0.25])
    with np.errstate(all="ignore"):
        got = words.iterate_to_fixed_point(make(), z0, 1e-10, 200, bound)
        expected = reduction_loop(make(), z0, 1e-10, 200, bound)
    assert bits_equal(got[0], expected[0])
    assert got[1:2] == expected[1:2] and got[3] == expected[3]
    assert got[2] == expected[2] or (math.isnan(got[2]) and math.isnan(expected[2]))
    if name in ("nan", "inf", "minus-inf", "past-bound", "inf-with-infinite-bound",
                "growth"):
        assert got[3] == "diverged"


# ---------------------------------------------------------------------------
# spectral results shared by a collection


def lapack_calls(monkeypatch):
    """The arguments of every later ``np.linalg`` eig, eigvals and svd
    call, by name: LAPACK work counted where it runs, not at a seam."""
    calls = {"eig": [], "eigvals": [], "svd": []}

    def recorded(name, original):
        def wrapper(a, *args, **kwargs):
            calls[name].append(np.array(a))
            return original(a, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    return calls


def letter_matrices(calls, coll):
    """The arguments in ``calls`` that are letters of ``coll``."""
    return [M for M in calls
            if any(M.shape == A.shape and np.array_equal(M, A) for A in coll.matrices)]


def test_collection_analyses_each_matrix_once(monkeypatch):
    """A slow-mixing request's calls share one LAPACK eig per matrix and
    one common-eigenvector refinement, and each result is bit for bit the
    same call's result on a fresh collection."""
    path = test_golden.GOLDEN / "slow-mixing.json"

    def fresh():
        return reporting.load_collection(path)[0]

    word = words.Word((0, 0, 1))
    x = numeric.parse_vector("2,-1,1,0.5,-0.5,1,3,-2,1")
    tau = infinite.InfiniteWord.periodic(word.letters, N=2)
    q = 6
    calls = {
        "global_period": lambda c: words.global_period(c),
        "common_eigenvectors": lambda c: structure.common_eigenvectors(c),
        "limit_point": lambda c: words.limit_point(c, word, x, q),
        "cone_limit": lambda c: conemaps.cone_limit(c, word, np.exp(x), q),
        "q2_certificate": lambda c: infinite.q2_certificate(c, tau, x),
    }
    expected = {name: pickle.dumps(call(fresh())) for name, call in calls.items()}

    counts = {"_refine": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(structure, "_refine")
    lapack = lapack_calls(monkeypatch)
    coll = fresh()
    got = {name: pickle.dumps(call(coll)) for name, call in calls.items()}
    assert counts == {"_refine": 1}
    assert len(letter_matrices(lapack["eig"], coll)) == len(lapack["eig"]) == coll.N
    assert words.global_period(coll).q == q
    assert got == expected


def test_slow_mixing_request_decomposes_each_letter_once(monkeypatch):
    """The slow-mixing golden request (validation, limit, period,
    cone-limit and q2) makes one eig per letter, which validation's radii
    share, no eigvals of a letter, and 6 SVDs, where one separate eigvals
    per letter and an SVD per letter for the common-eigenvector residual
    scale made 2 eig, 5 eigvals and 8 SVDs."""
    coll = reporting.load_collection(test_golden.GOLDEN / "slow-mixing.json")[0]
    lapack = lapack_calls(monkeypatch)
    code, _ = test_golden._analyze_slow_mixing()
    assert code == 0
    assert len(letter_matrices(lapack["eig"], coll)) == len(lapack["eig"]) == coll.N
    assert letter_matrices(lapack["eigvals"], coll) == []
    assert len(lapack["svd"]) <= 6


def test_classify_and_eigensystem_decompose_each_letter_once(monkeypatch, tmp_path):
    """``analyze --query classify --query eigensystem`` on a generic pair
    at n = 8 makes one eig per letter; eigvals runs once, for the product
    of the two-letter word AB, whose radius BA shares, and 1 SVD remains,
    of the commutator (1 eig, 4 eigvals and 4 SVDs before validation
    shared the letters' eig, then 2 eigvals and 2 SVDs before the pair
    pass was shared)."""
    family = gen.generic_pair(np.random.default_rng(8), 8)
    coll = MatrixCollection(names=("A", "B"), matrices=tuple(family.matrices))
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"dimension": coll.n, "matrices": {
        name: M.tolist() for name, M in zip(coll.names, coll.matrices)}}))
    A, B = coll.matrices
    lapack = lapack_calls(monkeypatch)
    code = cli.main(["analyze", str(path), "--force", "--query", "classify",
                     "--query", "eigensystem", "--format", "machine"],
                    stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    assert len(letter_matrices(lapack["eig"], coll)) == len(lapack["eig"]) == 2
    assert [M.tobytes() for M in lapack["eigvals"]] == [numeric.mat_mul(B, A).tobytes()]
    assert [M.tobytes() for M in lapack["svd"]] == [structure.commutator(A, B).tobytes()]


def mat_mul_calls(monkeypatch):
    """The operands of every later ``numeric.mat_mul`` call."""
    calls = []
    original = numeric.mat_mul

    def wrapper(A, B):
        calls.append((np.array(A), np.array(B)))
        return original(A, B)

    monkeypatch.setattr(numeric, "mat_mul", wrapper)
    return calls


@pytest.mark.parametrize("make, svds", [(gen.generic_pair, 1), (gen.planted_pair, 2)],
                         ids=["generic", "planted"])
def test_validate_forms_each_pair_once(monkeypatch, make, svds):
    """``validate`` of a pair at n = 8 makes 4 products: the two of its
    two-letter words, whose difference is the commutator C, and one side
    of the quasi-commuting test.  C takes one SVD, and a planted block one
    more for its refinement round.  Before the pair pass was shared this
    was 8 products and 2 or 3 SVDs.  A second ``validate`` reads the pass
    and multiplies nothing."""
    family = make(np.random.default_rng(8), 8)
    coll = MatrixCollection(names=("A", "B"), matrices=tuple(family.matrices))
    A, B = coll.matrices
    C = structure.commutator(A, B)
    lapack = lapack_calls(monkeypatch)
    products = mat_mul_calls(monkeypatch)
    first = reporting.validate(coll)
    assert len(products) == 4
    assert [(X.tobytes(), Y.tobytes()) for X, Y in products[:2]] == [
        (B.tobytes(), A.tobytes()), (A.tobytes(), B.tobytes())]
    assert len(lapack["svd"]) == svds and lapack["svd"][0].tobytes() == C.tobytes()
    assert (first["pair_classifications"][0]["shemesh_dimension"] > 0) == (svds > 1)
    assert reporting.validate(coll) == first
    assert len(products) == 4 and len(lapack["svd"]) == svds


def test_classify_and_q2_form_no_commutator_after_validate(monkeypatch, tmp_path):
    """``analyze --query classify --query q2`` on the commuting example 2
    multiplies no pair of letters in both orders, and takes no SVD of
    their commutator, once validation has returned: the classify query
    and q2's commuting check read the collection's pair pass."""
    coll = corpus.build_corpus()["example2"].collection
    path = tmp_path / "example2.json"
    path.write_text(json.dumps({"dimension": coll.n, "matrices": {
        name: M.tolist() for name, M in zip(coll.names, coll.matrices)}}))
    C = structure.commutator(*coll.matrices).tobytes()
    validate = reporting.validate

    def validate_then_record(*args, **kwargs):
        report = validate(*args, **kwargs)
        lapack["svd"].clear()
        products.clear()
        return report

    monkeypatch.setattr(reporting, "validate", validate_then_record)
    lapack = lapack_calls(monkeypatch)
    products = mat_mul_calls(monkeypatch)
    code = cli.main(["analyze", str(path), "--query", "classify", "--query",
                     "q2 --tau periodic:AB --x 2,0,2,0,0,0", "--format", "machine"],
                    stdout=io.StringIO(), stderr=io.StringIO())
    assert code == 0
    letters = [M.tobytes() for M in coll.matrices]
    pairs = {(letters.index(X.tobytes()), letters.index(Y.tobytes()))
             for X, Y in products
             if X.tobytes() in letters and Y.tobytes() in letters}
    assert products and not any((s, r) in pairs for r, s in pairs if r != s)
    assert all(M.tobytes() != C for M in lapack["svd"])


# ---------------------------------------------------------------------------
# common eigenvectors: entry order and the one-column refinement step


def full_sort_key(lams, vector, kappa_member):
    """The complete sort key of a common-eigenvector entry, every part
    formed up front."""
    def q(value):
        return round(value, 6)

    parts = [0 if kappa_member else 1, q(-min(abs(l) for l in lams))]
    for lam in lams:
        parts.extend((q(-lam.real), q(-lam.imag)))
    parts.extend(q(-x) for x in vector.real)
    parts.extend(q(-x) for x in vector.imag)
    parts.append(vector.tobytes())
    return tuple(parts)


@pytest.mark.parametrize("seed", range(20))
def test_entry_order_matches_the_full_key(seed):
    """Eigenvalues from a small set force tied eigenvalue parts; vectors
    that round alike leave only the exact bytes to decide.  Equal keys give
    the full key's order."""
    rng = np.random.default_rng(seed)
    values = [1.0, -1.0, 1j, -1j, 0.5, 0.5 + 1e-9]
    count, N = int(rng.integers(1, 12)), int(rng.integers(1, 4))
    lams = [[complex(values[k]) for k in rng.integers(0, len(values), size=N)]
            for _ in range(count)]
    flags = [bool(rng.integers(0, 2)) for _ in range(count)]
    base = rng.normal(size=3) + 1j * rng.normal(size=3)
    vectors = np.array([base + rng.choice([0.0, 1e-12, 1e-3]) * rng.normal(size=3)
                        for _ in range(count)])
    keys = [full_sort_key(l, v, f) for l, v, f in zip(lams, vectors, flags)]
    assert [structure._sort_key(l, f, v)
            for l, v, f in zip(lams, vectors, flags)] == keys


def test_entry_order_of_the_corpus_matches_the_full_key():
    entries = corpus.build_corpus()
    for name in ("example2", "example3", "example5"):
        system = structure.common_eigenvectors(entries[name].collection)
        keys = [full_sort_key(row, v, s < system.kappa)
                for s, (row, v) in enumerate(zip(system.lambda_table, system.vectors))]
        assert keys == sorted(keys)


@pytest.mark.parametrize("factor", [0.0, 0.5, 0.999999, 1.000001, 2.0])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_one_column_step_matches_the_rank_decision(factor, dtype):
    """A one-column candidate survives the next matrix exactly when
    rank_and_nullspace finds a kernel in its (n+1) x 1 stack."""
    n, tol = 3, numeric.CLUSTER_TOL
    first = np.diag([1.0, 2.0, 3.0])
    A = np.diag([5.0, 6.0, 7.0]).astype(dtype)
    cut = tol * max(1.0, float(np.max(np.abs(A)))) * n
    A[1, 0] = factor * cut * (1.0 if dtype is np.float64 else 0.6 + 0.8j)
    Q = np.eye(n)[:, :1]
    M, G = structure._compress(A, Q)
    mu = spectral.realify(M[0, 0], tol)
    rank, _ = numeric.rank_and_nullspace(np.vstack([M - mu, G]), tol=cut)
    kept = [lams for basis, lams in
            structure._refine([first, A], tol, spectral.eigendecompose(first))
            if lams[0] == 1.0]
    assert (kept == [[1.0, mu]]) == (rank == 0)
    assert rank == (factor > 1.0)


@pytest.mark.parametrize("tol, gap, svds, dims", [
    (numeric.CLUSTER_TOL, 0.0, 0, [2, 1]),  # a repeated cluster: its vectors
    (1e-3, 1e-5, 1, [2, 1]),                # two simple clusters in one group
    (1e-14, 1e-10, 2, [1, 1, 1]),           # one cluster split into two groups
], ids=["whole-cluster", "merged", "split"])
def test_refinement_reuses_only_whole_clusters(monkeypatch, tol, gap, svds, dims):
    """The first matrix's eigenspaces are its eigenpairs' vectors when a
    group of near-equal eigenvalues is one whole cluster, and an SVD
    nullspace when the group merges or splits clusters."""
    A = np.diag([1.0, 1.0 + gap, 0.5])
    pairs = spectral.eigendecompose(A)
    calls = [0]
    basis = spectral.eigenspace_basis

    def counted(*args, **kwargs):
        calls[0] += 1
        return basis(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigenspace_basis", counted)
    subspaces = structure._refine([A], tol, pairs)
    assert calls[0] == svds
    assert [Q.shape[1] for Q, _ in subspaces] == dims

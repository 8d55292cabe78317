"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain
arrays plus the facts its construction guarantees (period q, modulus-one
count kappa, a planted Shemesh dimension, ...).  The benchmark checks the
program's answers against those facts, so nothing here calls matword.

The constructions are kept in this directory on purpose: the workloads
must not change when the test suite's helpers do.
"""

import json
import math
from fractions import Fraction

import numpy as np

NAMES = "ABC"


def cycle_matrix(size):
    """Cyclic shift e_j -> e_{j+1 mod size}."""
    P = np.zeros((size, size))
    for j in range(size):
        P[(j + 1) % size, j] = 1.0
    return P


def circulant(weights):
    """sum_j weights[j] * P^j for the cyclic shift P."""
    size = len(weights)
    P = cycle_matrix(size)
    out = np.zeros((size, size))
    power = np.eye(size)
    for w in weights:
        out += w * power
        power = P @ power
    return out


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    return out


def spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def covering_word(rng, N, max_len):
    """Letters 0..N-1 each at least once, shuffled, length N..max_len."""
    length = int(rng.integers(N, max_len + 1))
    letters = list(range(N)) + [int(rng.integers(0, N)) for _ in range(length - N)]
    rng.shuffle(letters)
    return tuple(letters)


class Family:
    """A generated matrix family and the facts its construction fixes."""

    def __init__(self, matrices, **facts):
        self.matrices = tuple(matrices)
        self.facts = facts

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @property
    def N(self):
        return len(self.matrices)

    @property
    def names(self):
        return NAMES[:self.N]


def _cycle_family(rng, N, cycle_sizes, generic_first, extra_blocks):
    """Matrices block-diagonal in shared cycles plus per-matrix extra blocks.

    Matrix r applies its own power of each cycle; every cycle contributes
    its size to kappa (its Fourier modes have unit eigenvalues for every
    matrix) and q is the lcm of the orders c / gcd(c, power).
    """
    mats = []
    orders = []
    for r in range(N):
        blocks = []
        for c in cycle_sizes:
            power = 1 if (generic_first and r == 0) else int(rng.integers(0, c))
            orders.append(c // math.gcd(c, power))
            blocks.append(np.linalg.matrix_power(cycle_matrix(c), power))
        blocks.append(extra_blocks[r])
        mats.append(block_diag(blocks))
    return mats, math.lcm(*orders), sum(cycle_sizes)


#: (first cycle, second cycle or None, N) with the weights of the test-suite
#: construction: first cycle uniform on 1..4, a second cycle (uniform on
#: 1..3) half of the time, N uniform on {2, 3}.  One round of the
#: commuting-dynamics workload takes each entry once.
COMMUTING_CONFIGS = [(c1, c2, N) for c1 in range(1, 5)
                     for c2 in (None, None, None, 1, 2, 3) for N in (2, 3)]


def commuting_family(rng, c1, c2, N, max_n=8):
    """Commuting, diagonalizable, nonnegative, each spectral radius one.

    Shared permutation cycles (each matrix applies its own random power)
    plus a substochastic circulant block of random size (total mass
    0.3..0.9, so its eigenvalues stay strictly inside the unit disc).
    Circulants of one size commute and are normal, hence diagonalizable.
    """
    cycle_sizes = [c1] if c2 is None else [c1, c2]
    sub_size = int(rng.integers(1, max_n - sum(cycle_sizes) + 1))
    extra = []
    for _ in range(N):
        w = rng.uniform(0.05, 1.0, size=sub_size)
        extra.append(circulant(w * rng.uniform(0.3, 0.9) / w.sum()))
    mats, q, kappa = _cycle_family(rng, N, cycle_sizes, False, extra)
    return Family(mats, q=q, kappa=kappa)


def slow_mixing_family(rng, L):
    """Commuting pair whose non-peripheral spectrum hugs the unit circle.

    Cycles of sizes 2 and 3 (the first matrix applies both generators, so
    q = 6 and kappa = 5) plus a lazy circulant walk of size L with
    laziness >= 0.999, scaled by a mass just below one so that it adds no
    unit eigenvalue.  Limits take on the order of a thousand q-blocks.
    """
    extra = []
    for _ in range(2):
        laziness = rng.uniform(0.999, 0.9993)
        w = rng.uniform(0.2, 1.0, size=L - 1)
        weights = np.concatenate([[laziness], (1.0 - laziness) * w / w.sum()])
        extra.append(rng.uniform(0.9987, 0.9989) * circulant(weights))
    mats, q, kappa = _cycle_family(rng, 2, [2, 3], True, extra)
    return Family(mats, q=q, kappa=kappa)


def generic_pair(rng, n):
    """Dense uniform nonnegative pair, each scaled to spectral radius one.

    With probability one such a pair has no common eigenvector, so its
    Shemesh subspace is {0} and it is classified 'none'.
    """
    mats = []
    for _ in range(2):
        M = rng.uniform(0.0, 1.0, size=(n, n))
        mats.append(M / spectral_radius(M))
    return Family(mats, shemesh_min=0, shemesh_max=0, common_min=0, common_max=0)


def planted_pair(rng, n):
    """Block upper-triangular pair with a planted common invariant block.

    The leading k x k blocks are circulants, which commute, so span(e_1 ..
    e_k) is invariant under both matrices and they commute on it: the
    Shemesh subspace has dimension at least k, and the k Fourier vectors
    padded with zeros are common eigenvectors.
    """
    k = int(rng.integers(2, n // 2 + 1))
    mats = []
    for _ in range(2):
        M = np.zeros((n, n))
        M[:k, :k] = circulant(rng.uniform(0.1, 1.0, size=k))
        M[:k, k:] = rng.uniform(0.0, 1.0, size=(k, n - k))
        M[k:, k:] = rng.uniform(0.0, 1.0, size=(n - k, n - k))
        mats.append(M / spectral_radius(M))
    return Family(mats, shemesh_min=k, shemesh_max=n, common_min=k, common_max=n)


def document(family, entries=None):
    """The CLI input document (JSON text) of a family.

    Floats are written with ``repr`` so the program parses back exactly
    the generated doubles; ``entries`` may supply exact string entries.
    """
    matrices = {}
    for idx, (name, M) in enumerate(zip(family.names, family.matrices)):
        if entries is not None:
            matrices[name] = entries[idx]
        else:
            matrices[name] = [[float(v) for v in row] for row in M]
    return json.dumps({"dimension": family.n, "matrices": matrices})


# ---------------------------------------------------------------------------
# The seven distinct collections of the built-in example corpus, frozen here
# as exact entries together with their known invariants.

def _rows(text_rows):
    return [[str(v) for v in row] for row in text_rows]


def _perm(cols):
    n = len(cols)
    P = [["0"] * n for _ in range(n)]
    for j, c in enumerate(cols):
        P[c - 1][j] = "1"
    return P


def _bd(*blocks):
    n = sum(len(b) for b in blocks)
    out = [["0"] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(b)] = row
        k += len(b)
    return out


_S7 = repr(math.sqrt(7.0) / 10.0)
_J2, _J3, _J4 = _perm([2, 1]), _perm([3, 1, 2]), _perm([4, 1, 2, 3])
_HALF_ALT = _rows([[0, "1/2", 0, "1/2"], ["1/2", 0, "1/2", 0],
                   [0, "1/2", 0, "1/2"], ["1/2", 0, "1/2", 0]])
_I3 = _rows(np.eye(3, dtype=int))
_I2 = _rows(np.eye(2, dtype=int))


def corpus_collections():
    """name -> (entries per matrix, facts).

    ``real_lc`` spans the real vectors of LC(E') (None: every vector);
    limits of those vectors converge for every covering word.
    """
    e = np.eye(7)
    return {
        "example1": ([_J2], dict(classification="single", q=2, kappa=2, d=2,
                                 real_lc=None, q2=True)),
        "example2": ([_bd(_J4, _rows([["1/3", "2/3"], ["2/3", "1/3"]])),
                      _bd(_HALF_ALT, [["3/10", _S7], [_S7, "3/10"]])],
                     dict(classification="commuting", q=4, kappa=2, d=6,
                          real_lc=None, q2=True)),
        "example3": ([_bd(_I3, _J2, [["1/2", "0"], ["0", "1/3"]]),
                      _bd(_J3, _I2, [["1/5", "0"], ["0", "1/6"]])],
                     dict(classification="commuting", q=6, kappa=5, d=7,
                          real_lc=None, q2=True)),
        "example4": ([_bd(_J4, [["1/5", "1/6"], ["1/6", "1/5"]]),
                      _bd(_HALF_ALT, [["1/7", "1/8"], ["1/7", "1/8"]])],
                     dict(classification="laffey", q=4, kappa=2, d=5, q2=False,
                          real_lc=[[1, 1, 1, 1, 0, 0], [1, -1, 1, -1, 0, 0],
                                   [0, 0, 0, 0, 1, 1], [1, 0, -1, 0, 0, 0],
                                   [0, 1, 0, -1, 0, 0]])),
        "example5": ([_bd(_I3, _J2, [["1/2", "1/2"], ["1/2", "1/2"]]),
                      _bd(_J3, _I2, [["1/3", "1/4"], ["1/3", "1/4"]])],
                     dict(classification="laffey", q=6, kappa=5, d=6, q2=False,
                          real_lc=[list(e[0] + e[1] + e[2]), [2, -1, -1, 0, 0, 0, 0],
                                   [0, 1, -1, 0, 0, 0, 0], list(e[3] + e[4]),
                                   list(e[3] - e[4]), list(e[5] + e[6])])),
        "example6": ([_rows([[1, 0, 0], [0, "1/3", "2/3"], [0, "2/3", "1/3"]]),
                      _rows([[1, 0, 0], [0, "1/3", "4/3"], [0, "1/3", "1/3"]])],
                     dict(classification="partially-commuting", q=1, kappa=1, d=1,
                          real_lc=[[1, 0, 0]], q2=False)),
        "example7": ([_rows([["1/3", "2/3"], ["2/3", "1/3"]]),
                      _rows([["1/5", "4/5"], ["2/5", "3/5"]])],
                     dict(classification="laffey", q=1, kappa=1, d=1,
                          real_lc=[[1, 1]], q2=False)),
    }


def corpus_family(entries, facts):
    mats = [np.array([[float(Fraction(v)) for v in row] for row in M]) for M in entries]
    return Family(mats, **facts)

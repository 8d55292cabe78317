"""Shared random generators for the property and acceptance suites, and
the bitwise comparison of the hot-loop oracles.

Random commuting diagonalizable families are built simultaneously
block-diagonal: shared permutation cycles (each matrix applies its own
power of the block cycle) plus substochastic circulant blocks (circulants
commute and are normal, hence diagonalizable).  Every matrix is
nonnegative with spectral radius exactly one.
"""

import numpy as np

from matword.collection import MatrixCollection
from matword.words import Word

NAMES = "ABC"


def bits_equal(a, b):
    """Same shape and the same float64 bit patterns (NaNs and signed zeros
    included)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def cycle_matrix(size):
    P = np.zeros((size, size))
    for j in range(size):
        P[(j + 1) % size, j] = 1.0
    return P


def substochastic_circulant(rng, size, total=None):
    Q = cycle_matrix(size)
    weights = rng.uniform(0.05, 1.0, size=size)
    weights *= (total if total is not None else rng.uniform(0.3, 0.9)) / weights.sum()
    out = np.zeros((size, size))
    for j, w in enumerate(weights):
        out += w * np.linalg.matrix_power(Q, j)
    return out


def random_commuting_collection(rng, max_n=8, max_N=3):
    """Commuting, diagonalizable, nonnegative, each spectral radius one."""
    N = int(rng.integers(2, max_N + 1))
    cycle_sizes = [int(rng.integers(1, 5))]
    if rng.uniform() < 0.5 and sum(cycle_sizes) + 2 <= max_n - 1:
        cycle_sizes.append(int(rng.integers(1, 4)))
    sub_size = int(rng.integers(1, max_n - sum(cycle_sizes) + 1))

    mats = []
    for r in range(N):
        blocks = []
        for c in cycle_sizes:
            power = int(rng.integers(0, c))
            blocks.append(np.linalg.matrix_power(cycle_matrix(c), power))
        blocks.append(substochastic_circulant(rng, sub_size))
        n = sum(b.shape[0] for b in blocks)
        M = np.zeros((n, n))
        k = 0
        for b in blocks:
            M[k:k + b.shape[0], k:k + b.shape[0]] = b
            k += b.shape[0]
        mats.append(M)
    return MatrixCollection(names=tuple(NAMES[:N]), matrices=tuple(mats))


def random_row_stochastic_commuting_collection(rng, max_n=6, max_N=3):
    """Commuting row-stochastic family: a cycle and circulant mixes of it."""
    n = int(rng.integers(2, max_n + 1))
    N = int(rng.integers(2, max_N + 1))
    mats = [cycle_matrix(n)]
    for _ in range(N - 1):
        mats.append(substochastic_circulant(rng, n, total=1.0))
    return MatrixCollection(names=tuple(NAMES[:N]), matrices=tuple(mats))


def random_covering_word(rng, N, max_len=8):
    length = int(rng.integers(N, max_len + 1))
    letters = list(range(N)) + [int(rng.integers(0, N))
                                for _ in range(length - N)]
    rng.shuffle(letters)
    return Word(tuple(letters))

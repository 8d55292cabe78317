"""Seeded sweep of ``infinite.q2_certificate`` outcomes, hashed.

A change to q2 that must keep every certificate runs this at the parent
commit and at the change; the two SHA-256 lines must agree.  From the
repository root::

    PYTHONPATH=src python tests/q2_sweep.py

The calls use 100 ``perfbench/gen.py`` commuting families and four
slow-mixing ones, each with a dense x and x of one or two nonzero
entries, a periodic covering word and a ``seed:`` stream, and budgets 2,
3, one drawn from 4..39 and the default (where q**kappa + 1 is at most
600, or 7,777 on slow-mixing).  Each outcome is the certificate's fields
or the raised error's type and text.
"""

import collections
import hashlib
import pathlib
import pickle
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

from matword import infinite  # noqa: E402
from matword.collection import MatrixCollection  # noqa: E402
from matword.exceptions import MatwordError  # noqa: E402


def families():
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        config = gen.COMMUTING_CONFIGS[i % len(gen.COMMUTING_CONFIGS)]
        yield rng, gen.commuting_family(rng, *config)
    for L in (3, 4, 5, 6):
        rng = np.random.default_rng(2026 + L)
        yield rng, gen.slow_mixing_family(rng, L)


def outcomes():
    for rng, family in families():
        coll = MatrixCollection(names=tuple(family.names), matrices=family.matrices)
        n, N = family.n, family.N
        states = family.facts["q"] ** family.facts["kappa"] + 1
        xs = [rng.normal(size=n)]
        for nonzero in (1, 2):
            x = np.zeros(n)
            x[rng.choice(n, size=min(nonzero, n), replace=False)] = 1.0
            xs.append(x)
        taus = [infinite.InfiniteWord.periodic(gen.covering_word(rng, N, 6), N=N),
                infinite.InfiniteWord.from_seed(int(rng.integers(0, 1000)), N)]
        budgets = [2, 3, int(rng.integers(4, 40))]
        if states <= 600 or states == 7777:
            budgets.append(None)
        for x in xs:
            for tau in taus:
                for budget in budgets:
                    try:
                        c = infinite.q2_certificate(coll, tau, x, search_budget=budget)
                    except MatwordError as exc:
                        yield type(exc).__name__, str(exc)
                    else:
                        yield ("cert", c.p_gammas, c.lambdas.tolist(),
                               c.residues.tolist(), c.q, c.kappa, c.m, c.support)


if __name__ == "__main__":
    results = list(outcomes())
    print(len(results), dict(collections.Counter(r[0] for r in results)))
    print(hashlib.sha256(pickle.dumps(results)).hexdigest())

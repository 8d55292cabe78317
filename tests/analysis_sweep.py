"""Seeded sweep of the spectral analysis, hashed as verdicts and as bits.

A change to the eigendecomposition or the common-eigenvector refinement
that must keep every verdict runs this at the parent commit and at the
change.  From the repository root::

    PYTHONPATH=src python tests/analysis_sweep.py

prints the number of families, then two SHA-256 lines.  The first, the
*verdict* hash, covers discrete results only: the validation rows and
classification, each letter's eigenpair multiplicities as a sorted
multiset (the order of equal-modulus pairs follows rounding), q_r and q
(or the raised error's type), d, kappa and ``s2_pairs``, whether a
random x lies in LC(E'), and the status and block count of one word
limit and one cone limit.  The second, the *bits* hash, covers the
floats: each letter's eigenpairs, the common eigenvectors and
``lambda_table``, xi and eta, and the error texts.

The families are two per ``perfbench/gen.py`` commuting configuration,
the slow-mixing walks of sizes 3 to 6, three generic and three planted
pairs of each size 4 to 16, and the seven corpus collections.
"""

import collections
import hashlib
import pathlib
import pickle
import sys
import warnings

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

from matword import conemaps, reporting, structure, words  # noqa: E402
from matword.collection import MatrixCollection  # noqa: E402
from matword.exceptions import MatwordError  # noqa: E402

#: iteration cap of the sweep's limits: enough for every family that
#: converges, short for those that do not
MAX_ITER = 1000


def families():
    """``(label, rng, family)`` for every swept family."""
    configs = gen.COMMUTING_CONFIGS
    for i in range(2 * len(configs)):
        rng = np.random.default_rng(3000 + i)
        yield f"commuting {i}", rng, gen.commuting_family(rng, *configs[i % len(configs)])
    for L in (3, 4, 5, 6):
        rng = np.random.default_rng(4000 + L)
        yield f"slow-mixing L={L}", rng, gen.slow_mixing_family(rng, L)
    for n in range(4, 17):
        for kind, make in (("generic", gen.generic_pair), ("planted", gen.planted_pair)):
            for k in range(3):
                rng = np.random.default_rng(5000 + 100 * n + k)
                yield f"{kind} n={n} #{k}", rng, make(rng, n)
    for name, (entries, facts) in gen.corpus_collections().items():
        yield f"corpus {name}", np.random.default_rng(6000), gen.corpus_family(entries, facts)


def analyse(rng, family):
    """``(verdict, bits)`` of one family."""
    coll = MatrixCollection(names=tuple(family.names), matrices=family.matrices)
    validation = reporting.validate(coll)
    verdict = [validation["classification"], validation["hypotheses_met"],
               validation["rho_ok"], validation["nonnegative_ok"],
               [sorted(row.items()) for row in validation["pair_classifications"]]]
    bits = [validation["warnings"]]

    for index in range(coll.N):
        pairs = coll._eigenpairs(index)
        verdict.append(sorted((p.algebraic, p.geometric) for p in pairs))
        bits.append([(p.eigenvalue, p.eigenvector.tobytes(), p.residual)
                     for p in pairs])

    system = structure.common_eigenvectors(coll)
    verdict.append((system.d, system.kappa, system.s2_pairs))
    bits.append(([v.tobytes() for v in system.vectors],
                 system.lambda_table.tobytes()))

    x = rng.normal(size=coll.n)
    if system.d:
        verdict.append(structure.lc_membership(x, system) is not None)

    try:
        cert = words.global_period(coll)
    except MatwordError as exc:
        verdict.append(type(exc).__name__)
        bits.append(str(exc))
        return verdict, bits
    verdict.append((cert.q_r, cert.q))

    word = words.Word(gen.covering_word(rng, coll.N, 4))
    limit = words.limit_point(coll, word, x, cert.q, max_iter=MAX_ITER)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cone = conemaps.cone_limit(coll, word, np.exp(x), cert.q,
                                   max_iter=MAX_ITER, system=system)
    verdict.append((limit.status, limit.iterations, cone.status, cone.iterations))
    bits.append((limit.xi.tobytes(), cone.eta.tobytes()))
    return verdict, bits


def outcomes():
    """``(label, verdict, bits)`` per family."""
    for label, rng, family in families():
        verdict, bits = analyse(rng, family)
        yield label, verdict, bits


def digests(results):
    """``(verdict hash, bits hash)`` of :func:`outcomes`."""
    verdicts = [(label, verdict) for label, verdict, _ in results]
    bits = [(label, b) for label, _, b in results]
    return tuple(hashlib.sha256(pickle.dumps(part)).hexdigest()
                 for part in (verdicts, bits))


if __name__ == "__main__":
    results = list(outcomes())
    print(len(results), dict(collections.Counter(
        label.split()[0] for label, _, _ in results)))
    print("verdict", digests(results)[0])
    print("bits   ", digests(results)[1])

"""Built-in regression corpus: eleven worked examples.

Each entry carries the matrix collection, its reference eigenvector data,
the designated test vectors, and a check routine.  Together the checks
form the regression gate run by ``matword paper-examples`` and by the
acceptance test suite.

Every frozen value below was re-derived from the matrices themselves
(eigenvalue tables, kernels, monomial maps, orbit periods), so the corpus
is internally consistent: in particular, example 4's second matrix uses
the averaging circulant of example 2 as its leading 4x4 block (the only
variant under which its eigenvalue table, the kernel statement B x = 0
for the complex pair, and example 10's monomial map all hold), and
example 8's second monomial map carries the exponent rows
(3/10, sqrt(7)/10) that its matrix dictates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import conemaps, numeric, spectral, structure, words
from .collection import MatrixCollection

SQRT7 = math.sqrt(7.0)
OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


def perm_from_columns(cols):
    """Permutation matrix in column-partitioned form [e_c1 | e_c2 | ...]."""
    n = len(cols)
    P = np.zeros((n, n))
    for j, c in enumerate(cols):
        P[c - 1, j] = 1.0
    return P


J2 = perm_from_columns([2, 1])
J3 = perm_from_columns([3, 1, 2])
J4 = perm_from_columns([4, 1, 2, 3])


def block_diag(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    return out


@dataclass
class CorpusEntry:
    name: str
    summary: str
    collection: MatrixCollection
    vectors: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def _entry_example1():
    coll = MatrixCollection(names=("A",), matrices=(J2,))
    return CorpusEntry(
        name="example1",
        summary="single 2x2 swap: q = 2, orbit of e2 alternates e2/e1",
        collection=coll,
    )


def _entry_example2():
    A = block_diag(J4, np.array([[1.0, 2.0], [2.0, 1.0]]) / 3.0)
    B = block_diag(
        np.array([[0.0, 2.0, 0.0, 2.0],
                  [2.0, 0.0, 2.0, 0.0],
                  [0.0, 2.0, 0.0, 2.0],
                  [2.0, 0.0, 2.0, 0.0]]) / 4.0,
        np.array([[3.0, SQRT7], [SQRT7, 3.0]]) / 10.0,
    )
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    vectors = {
        "v1": np.array([1, 1, 1, 1, 0, 0], dtype=complex),
        "v2": np.array([1, -1, 1, -1, 0, 0], dtype=complex),
        "v3": np.array([1, 1j, -1, -1j, 0, 0]),
        "v4": np.array([1, -1j, -1, 1j, 0, 0]),
        "v5": np.array([0, 0, 0, 0, 1, 1], dtype=complex),
        "v6": np.array([0, 0, 0, 0, 1, -1], dtype=complex),
    }
    return CorpusEntry(
        name="example2",
        summary="6x6 commuting pair: kappa = 2, q = 4, word periods <= 2",
        collection=coll,
        vectors=vectors,
        data={
            "spectrum_A": [1, 1, -1, 1j, -1j, -1 / 3],
            "spectrum_B": [1, -1, (3 + SQRT7) / 10, (3 - SQRT7) / 10, 0, 0],
            "q_A": 4, "q_B": 2, "q": 4, "kappa": 2, "d": 6,
        },
    )


def _entry_example3():
    A = block_diag(np.eye(3), J2, np.diag([0.5, 1 / 3]))
    B = block_diag(J3, np.eye(2), np.diag([0.2, 1 / 6]))
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    vectors = {
        "v1": np.array([1, 1, 1, 0, 0, 0, 0], dtype=complex),
        "v2": np.array([1, OMEGA, OMEGA**2, 0, 0, 0, 0]),
        "v3": np.array([1, OMEGA**2, OMEGA, 0, 0, 0, 0]),
        "v4": np.array([0, 0, 0, 1, 1, 0, 0], dtype=complex),
        "v5": np.array([0, 0, 0, 1, -1, 0, 0], dtype=complex),
    }
    # alpha = 1 throughout satisfies the conjugate-pair constraint
    x = np.real(sum(vectors.values()))
    return CorpusEntry(
        name="example3",
        summary="7x7 commuting pair: q = 6 and a genuine period-6 point",
        collection=coll,
        vectors=vectors,
        data={"q_A": 2, "q_B": 3, "q": 6, "kappa": 5, "x": x},
    )


def _entry_example4():
    A = block_diag(J4, np.array([[1 / 5, 1 / 6], [1 / 6, 1 / 5]]))
    B = block_diag(
        np.array([[0.0, 2.0, 0.0, 2.0],
                  [2.0, 0.0, 2.0, 0.0],
                  [0.0, 2.0, 0.0, 2.0],
                  [2.0, 0.0, 2.0, 0.0]]) / 4.0,
        np.array([[1 / 7, 1 / 8], [1 / 7, 1 / 8]]),
    )
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    vectors = {
        "v1": np.array([1, 1, 1, 1, 0, 0], dtype=complex),
        "v2": np.array([1, -1, 1, -1, 0, 0], dtype=complex),
        "v3": np.array([0, 0, 0, 0, 1, 1], dtype=complex),
        "v4": np.array([1, 1j, -1, -1j, 0, 0]),
        "v5": np.array([1, -1j, -1, 1j, 0, 0]),
    }
    return CorpusEntry(
        name="example4",
        summary="6x6 non-commuting pair with 5 common eigenvectors",
        collection=coll,
        vectors=vectors,
        data={"d": 5, "kappa": 2, "q": 4},
    )


def _entry_example5():
    A = block_diag(np.eye(3), J2, np.ones((2, 2)) / 2.0)
    B = block_diag(J3, np.eye(2), np.array([[1 / 3, 1 / 4], [1 / 3, 1 / 4]]))
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    vectors = {
        "v1": np.array([1, OMEGA, OMEGA**2, 0, 0, 0, 0]),
        "v2": np.array([1, OMEGA**2, OMEGA, 0, 0, 0, 0]),
        "v3": np.array([1, 1, 1, 0, 0, 0, 0], dtype=complex),
        "v4": np.array([0, 0, 0, 1, 1, 0, 0], dtype=complex),
        "v5": np.array([0, 0, 0, 1, -1, 0, 0], dtype=complex),
        "v6": np.array([0, 0, 0, 0, 0, 1, 1], dtype=complex),
    }
    x = np.real(sum(vectors[k] for k in ("v1", "v2", "v3", "v4", "v5")))
    return CorpusEntry(
        name="example5",
        summary="7x7 non-commuting pair: 6 common eigenvectors, period 6",
        collection=coll,
        vectors=vectors,
        data={"d": 6, "kappa": 5, "q": 6, "x": x},
    )


def _entry_example6():
    A = np.array([[3, 0, 0], [0, 1, 2], [0, 2, 1]]) / 3.0
    B = np.array([[3, 0, 0], [0, 1, 4], [0, 1, 1]]) / 3.0
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    return CorpusEntry(
        name="example6",
        summary="3x3 pair whose product has spectral radius above one",
        collection=coll,
        data={"rho_product": (2.0 + math.sqrt(3.0)) / 3.0},
    )


def _entry_example7():
    A = np.array([[1, 2], [2, 1]]) / 3.0
    B = np.array([[1, 4], [2, 3]]) / 5.0
    coll = MatrixCollection(names=("A", "B"), matrices=(A, B))
    return CorpusEntry(
        name="example7",
        summary="2x2 Laffey pair: word-dependent limits off the common line",
        collection=coll,
        data={
            "spectrum_product": [1.0, 1.0 / 15.0],
            # 200-step iteration oracle: sup-norm limit gaps on the two
            # probe vectors are 6/7 and 4/7
            "gap_2_minus_1": 6.0 / 7.0,
            "gap_1_minus_1": 4.0 / 7.0,
        },
    )


def _monomial_example8():
    s = SQRT7 / 10.0
    f_A = lambda x: np.array([
        x[1], x[2], x[3], x[0],
        (x[4] * x[5] ** 2) ** (1 / 3),
        (x[4] ** 2 * x[5]) ** (1 / 3),
    ])
    f_B = lambda x: np.array([
        math.sqrt(x[1] * x[3]), math.sqrt(x[0] * x[2]),
        math.sqrt(x[1] * x[3]), math.sqrt(x[0] * x[2]),
        x[4] ** 0.3 * x[5] ** s,
        x[4] ** s * x[5] ** 0.3,
    ])
    return {"A": f_A, "B": f_B}


def _monomial_example9():
    f_A = lambda x: np.array([
        x[0], x[1], x[2], x[4], x[3], math.sqrt(x[5]), x[6] ** (1 / 3),
    ])
    f_B = lambda x: np.array([
        x[1], x[2], x[0], x[3], x[4], x[5] ** 0.2, x[6] ** (1 / 6),
    ])
    return {"A": f_A, "B": f_B}


def _monomial_example10():
    f_A = lambda x: np.array([
        x[1], x[2], x[3], x[0],
        x[4] ** 0.2 * x[5] ** (1 / 6),
        x[4] ** (1 / 6) * x[5] ** 0.2,
    ])
    f_B = lambda x: np.array([
        math.sqrt(x[1] * x[3]), math.sqrt(x[0] * x[2]),
        math.sqrt(x[1] * x[3]), math.sqrt(x[0] * x[2]),
        x[4] ** (1 / 7) * x[5] ** (1 / 8),
        x[4] ** (1 / 7) * x[5] ** (1 / 8),
    ])
    return {"A": f_A, "B": f_B}


def _monomial_example11():
    f_A = lambda x: np.array([
        x[0], x[1], x[2], x[4], x[3],
        math.sqrt(x[5] * x[6]), math.sqrt(x[5] * x[6]),
    ])
    f_B = lambda x: np.array([
        x[1], x[2], x[0], x[3], x[4],
        x[5] ** (1 / 3) * x[6] ** (1 / 4),
        x[5] ** (1 / 3) * x[6] ** (1 / 4),
    ])
    return {"A": f_A, "B": f_B}


def _cone_entry(name, base_entry, monomials, point, period, period_word,
                fixed_word=None):
    return CorpusEntry(
        name=name,
        summary=f"monomial maps of {base_entry.name} and a period-{period} "
        "interior point",
        collection=base_entry.collection,
        vectors=base_entry.vectors,
        data={
            "monomials": monomials,
            "point": point,
            "period": period,
            "period_word": period_word,
            "fixed_word": fixed_word,
        },
    )


def build_corpus():
    """Name -> CorpusEntry for all eleven examples."""
    e2 = _entry_example2()
    e3 = _entry_example3()
    e4 = _entry_example4()
    e5 = _entry_example5()
    point8 = np.exp(np.real(e2.vectors["v1"] + e2.vectors["v2"]))
    point9 = np.exp(e3.data["x"])
    point10 = np.exp(np.real(e4.vectors["v1"] + e4.vectors["v2"]))
    point11 = np.exp(e5.data["x"])
    entries = [
        _entry_example1(),
        e2,
        e3,
        e4,
        e5,
        _entry_example6(),
        _entry_example7(),
        # the designated points of the even-period examples are fixed by
        # even-length words (the two -1 multipliers cancel), so the exact
        # period-2 witness is an odd covering word
        _cone_entry("example8", e2, _monomial_example8(), point8, 2, "ABB",
                    fixed_word="AB"),
        _cone_entry("example9", e3, _monomial_example9(), point9, 6, "AB"),
        _cone_entry("example10", e4, _monomial_example10(), point10, 2, "ABB",
                    fixed_word="AB"),
        _cone_entry("example11", e5, _monomial_example11(), point11, 6, "AB"),
    ]
    return {e.name: e for e in entries}


# ---------------------------------------------------------------------------
# checks


def _check(condition, message):
    if not condition:
        raise AssertionError(message)


def spectra_match(got, want, tol):
    """Multiset equality of spectra within tolerance (greedy matching)."""
    got = list(got)
    want = list(want)
    if len(got) != len(want):
        return False
    for w in want:
        best = min(range(len(got)), key=lambda i: abs(got[i] - w), default=None)
        if best is None or abs(got[best] - w) > tol:
            return False
        got.pop(best)
    return True


def _match_up_to_phase(candidates, target):
    """Some candidate equals target up to scale/phase (projection test)."""
    t = np.asarray(target, dtype=complex)
    t = t / np.linalg.norm(t)
    for v in candidates:
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        if np.linalg.norm(t - v * np.vdot(v, t)) <= 1e-8:
            return True
    return False


def check_example1(entry):
    coll = entry.collection
    cert = words.global_period(coll)
    _check(cert.q == 2, f"q = {cert.q}, expected 2")
    A = coll.matrices[0]
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    z = e2.copy()
    for k in range(1, 201):
        z = numeric.mat_vec(A, z)
        expect = e1 if k % 2 == 1 else e2
        _check(np.array_equal(z, expect), f"orbit broke at step {k}")
    limit = words.limit_point(coll, words.Word((0,)), e2, cert.q)
    _check(limit.converged and np.allclose(limit.xi, e2, atol=1e-12),
           "limit of e2 under q-blocks is not e2")


def check_example2(entry):
    coll = entry.collection
    _check(spectra_match(spectral.eigenvalues(coll["A"]),
                         np.array(entry.data["spectrum_A"], dtype=complex), 1e-8),
           "spectrum of A does not match the reference set")
    _check(spectra_match(spectral.eigenvalues(coll["B"]),
                         np.array(entry.data["spectrum_B"], dtype=complex), 1e-8),
           "spectrum of B does not match the reference set")

    system = structure.common_eigenvectors(coll)
    _check(system.d == entry.data["d"], f"d = {system.d}")
    _check(system.kappa == entry.data["kappa"], f"kappa = {system.kappa}")
    for key in ("v1", "v2", "v3", "v4"):
        _check(_match_up_to_phase(system.vectors, entry.vectors[key]),
               f"no common eigenvector matches {key}")

    cert = words.global_period(coll)
    _check((cert.q_r, cert.q) == ((4, 2), 4), f"periods {cert.q_r}, q = {cert.q}")

    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    for text in ("AB", "BA", "ABB", "AAB", "ABAB"):
        w = words.Word.from_names(text, coll)
        M = words.word_product(coll, w)
        period = words.point_period(M, x, cert.q)
        _check(period <= 2 < cert.q, f"period {period} for word {text}")
        # odd-length covering words realise the exact period 2; even ones
        # cancel the two -1 multipliers and fix x
        expected_period = 2 if w.p % 2 == 1 else 1
        _check(period == expected_period,
               f"period {period} != {expected_period} for word {text}")


def check_example3(entry):
    coll = entry.collection
    cert = words.global_period(coll)
    _check(cert.q == 6, f"q = {cert.q}")
    _check(cert.q_r == (2, 3), f"q_r = {cert.q_r}")
    x = entry.data["x"]
    for text in ("AB", "BA", "AAB", "ABB"):
        w = words.Word.from_names(text, coll)
        M = words.word_product(coll, w)
        M6 = numeric.mat_power(M, 6)
        _check(np.max(np.abs(numeric.mat_vec(M6, x) - x)) <= 1e-8,
               f"(A_w)^6 x != x for word {text}")
        period = words.point_period(M, x, cert.q)
        # the third word applies the swap-block letter twice per pass; the
        # squared -1 multiplier drops its exact period to 3, while the words
        # with an odd count of that letter realise the full period 6
        expected = 3 if text == "AAB" else 6
        _check(period == expected, f"period {period} != {expected} ({text})")


def check_example4(entry):
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    _check(system.d == 5, f"d = {system.d}")
    _check(system.kappa == 2, f"kappa = {system.kappa}")
    alpha = 1.25 - 0.5j
    x_pair = np.real(alpha * entry.vectors["v4"]) * 2
    _check(np.max(np.abs(numeric.mat_vec(coll["B"], x_pair))) <= 1e-10,
           "B does not annihilate the conjugate-pair combination")
    cert = words.global_period(coll)
    _check(cert.q == 4, f"q = {cert.q}")
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    for text in ("ABB", "AAB", "BAB"):
        M = words.word_product(coll, words.Word.from_names(text, coll))
        _check(words.point_period(M, x, cert.q) == 2,
               f"period != 2 for word {text}")
    for text in ("AB", "BA"):
        M = words.word_product(coll, words.Word.from_names(text, coll))
        _check(words.point_period(M, x, cert.q) == 1,
               f"even-length word {text} must fix x")


def check_example5(entry):
    coll = entry.collection
    system = structure.common_eigenvectors(coll)
    _check(system.d == 6, f"d = {system.d}")
    _check(system.kappa == 5, f"kappa = {system.kappa}")
    cert = words.global_period(coll)
    _check(cert.q == 6, f"q = {cert.q}")
    x = entry.data["x"]
    for text in ("AB", "BA", "ABB"):
        M = words.word_product(coll, words.Word.from_names(text, coll))
        _check(words.point_period(M, x, cert.q) == 6,
               f"period != 6 for word {text}")


def check_example6(entry):
    coll = entry.collection
    product = numeric.mat_mul(coll["A"], coll["B"])
    rho = spectral.spectral_radius(product)
    _check(abs(rho - entry.data["rho_product"]) <= 1e-9,
           f"rho(AB) = {rho}, expected {entry.data['rho_product']}")
    pairs = spectral.eigendecompose(product)
    perron = max(pairs, key=lambda p: abs(p.eigenvalue))
    v = np.real(perron.eigenvector)
    v = v / np.linalg.norm(v)
    # word "BA" applies B first, i.e. its product is the matrix A @ B
    report = words.orbit_bounded(coll, words.Word.from_names("BA", coll), v,
                                 horizon=200, bound=1e12)
    _check(not report.bounded_so_far and report.exceeded_at <= 200,
           f"orbit not flagged as exceeded: {report}")


def check_example7(entry):
    coll = entry.collection
    cls = structure.classify_pair(coll["A"], coll["B"])
    _check(cls.laffey and cls.commutator_rank == 1,
           f"classification {cls} is not a rank-one commutator pair")
    _check(not cls.commuting, "pair must not commute")
    product = numeric.mat_mul(coll["A"], coll["B"])
    _check(spectra_match(spectral.eigenvalues(product),
                         entry.data["spectrum_product"], 1e-9),
           "spectrum of the product does not match {1, 1/15}")

    AB = numeric.mat_power(numeric.mat_mul(coll["A"], coll["B"]), 200)
    BA = numeric.mat_power(numeric.mat_mul(coll["B"], coll["A"]), 200)
    agree = np.array([1.0, 1.0])
    _check(np.max(np.abs(numeric.mat_vec(AB, agree) - numeric.mat_vec(BA, agree)))
           <= 1e-8, "limits disagree on the common eigenvector")
    for x, gap in ((np.array([2.0, -1.0]), entry.data["gap_2_minus_1"]),
                   (np.array([1.0, -1.0]), entry.data["gap_1_minus_1"])):
        got = np.max(np.abs(numeric.mat_vec(AB, x) - numeric.mat_vec(BA, x)))
        _check(got > 0.01, f"gap {got} not above 0.01")
        _check(abs(got - gap) <= 1e-8, f"gap {got} differs from oracle {gap}")


def check_cone_example(entry):
    coll = entry.collection
    rng = np.random.default_rng(20240817)
    monomials = entry.data["monomials"]
    n = coll.n
    for _ in range(100):
        y = np.exp(rng.uniform(-2.0, 2.0, size=n))
        for name, closed_form in monomials.items():
            got = conemaps.cone_apply(coll[name], y)
            want = closed_form(y)
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30))
            _check(rel <= 1e-10, f"monomial mismatch for {name}: rel = {rel}")

    point = entry.data["point"]
    w = words.Word.from_names(entry.data["period_word"], coll)
    period = conemaps.cone_point_period(coll, w, point, words.global_period(coll).q)
    _check(period == entry.data["period"],
           f"cone period {period} != {entry.data['period']}")
    if entry.data.get("fixed_word"):
        wf = words.Word.from_names(entry.data["fixed_word"], coll)
        image = conemaps.word_cone_apply(coll, wf, point)
        _check(np.max(np.abs(image - point)) <= 1e-8,
               "even-length word should fix the designated point")


CHECKS = {
    "example1": check_example1,
    "example2": check_example2,
    "example3": check_example3,
    "example4": check_example4,
    "example5": check_example5,
    "example6": check_example6,
    "example7": check_example7,
    "example8": check_cone_example,
    "example9": check_cone_example,
    "example10": check_cone_example,
    "example11": check_cone_example,
}


def run_paper_examples(name_filter=None):
    """Run the regression checks; returns [(name, passed, detail)]."""
    corpus = build_corpus()
    results = []
    for name, entry in corpus.items():
        if name_filter and name_filter not in name:
            continue
        try:
            CHECKS[name](entry)
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # pragma: no cover - unexpected breakage
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, entry.summary))
    return results

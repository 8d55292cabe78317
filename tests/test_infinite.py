import collections
import hashlib
import io
import json
import pathlib
import pickle

import numpy as np
import pytest

from matword import cli, corpus, infinite, numeric, reporting, structure, words
from matword.collection import MatrixCollection
from matword.exceptions import BudgetExhausted, HypothesesNotMet, InvalidLetter

ENTRIES = corpus.build_corpus()


def test_prefix_basics():
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    assert tau.prefix(3).letters == (0, 1, 0)
    assert tau.prefix(1).letters == (0,)
    assert tau.m == 2
    assert set(tau.prefix(tau.m).letters) == {0, 1}


def test_prefix_with_preperiod():
    tau = infinite.InfiniteWord.periodic((1,), N=2, preperiod=(0, 0, 1))
    assert tau.prefix(6).letters == (0, 0, 1, 1, 1, 1)
    assert tau.m == 3


def test_infinite_word_never_covering():
    tau = infinite.InfiniteWord.periodic((0,), N=2)
    with pytest.raises(InvalidLetter):
        tau.m


def test_seeded_stream_deterministic():
    a = infinite.InfiniteWord.from_seed(99, N=3)
    b = infinite.InfiniteWord.from_seed(99, N=3)
    assert [a.letter(i) for i in range(50)] == [b.letter(i) for i in range(50)]
    assert a.m == b.m
    assert a.description() == "seed:99"


@pytest.mark.parametrize("seed", [0, 5, 2024, 123456789])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 39])
def test_seeded_stream_blocks_draw_the_scalar_stream(seed, N):
    """The block-grown cache holds the letters of one scalar draw
    ``rng.integers(0, N)`` per letter, whatever the order of access."""
    rng = np.random.default_rng(seed)
    expected = [int(rng.integers(0, N)) for _ in range(3000)]
    tau = infinite.InfiniteWord.from_seed(seed, N)
    assert tau.letter(70) == expected[70]
    np.testing.assert_array_equal(tau.letters(1000, 2000), expected[1000:])
    np.testing.assert_array_equal(tau.letters(0, 3000), expected)


def test_phi_counts():
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    np.testing.assert_array_equal(infinite.phi(tau, 5), [3, 2])
    tau1 = infinite.InfiniteWord.periodic((0,), N=1)
    np.testing.assert_array_equal(infinite.phi(tau1, 7), [7])


def test_phi_telescoping_unit_steps():
    tau = infinite.InfiniteWord.from_seed(7, N=3)
    prev = infinite.phi(tau, 1)
    assert prev.sum() == 1
    for p in range(2, 40):
        cur = infinite.phi(tau, p)
        step = cur - prev
        assert step.sum() == 1 and np.all(step >= 0) and step.max() == 1
        assert cur.sum() == p
        prev = cur


def test_a_tilde_example1():
    coll = ENTRIES["example1"].collection
    tup = infinite.a_tilde(coll, words.Word((0,)), q=2, x=np.array([0.0, 1.0]))
    np.testing.assert_allclose(tup.components, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_a_tilde_fixed_point():
    entry = ENTRIES["example2"]
    coll = entry.collection
    v1 = np.real(entry.vectors["v1"])
    tup = infinite.a_tilde(coll, words.Word.from_names("AB", coll), q=4, x=v1)
    for row in tup.components:
        np.testing.assert_allclose(row, v1, atol=1e-10)


def test_a_tilde_zero_limit():
    entry = ENTRIES["example2"]
    coll = entry.collection
    x = np.real(entry.vectors["v5"] - 2 * entry.vectors["v6"])
    tup = infinite.a_tilde(coll, words.Word.from_names("AB", coll), q=4, x=x)
    np.testing.assert_allclose(tup.components, np.zeros((4, 6)), atol=1e-8)


def test_a_tilde_chain_invariant():
    entry = ENTRIES["example3"]
    coll = entry.collection
    w = words.Word.from_names("AB", coll)
    x = entry.data["x"] + 0.3
    tup = infinite.a_tilde(coll, w, q=6, x=x)
    M = words.word_product(coll, w)
    for i in range(5):
        np.testing.assert_allclose(M @ tup.components[i], tup.components[i + 1],
                                   atol=1e-9)
    np.testing.assert_allclose(M @ tup.components[5], tup.components[0], atol=1e-9)


def test_a_tilde_propagates_divergence():
    coll = ENTRIES["example6"].collection
    product_word = words.Word.from_names("BA", coll)
    v = np.array([0.0, 0.7, 0.7])
    with pytest.raises(HypothesesNotMet):
        infinite.a_tilde(coll, product_word, q=1, x=v * 1e6, bound=1e3)


def test_q2_certificate_spec_pair():
    # {J2 (+) I1, I3}: x = e1+e2+e3 misses the (1,-1,0) direction, so its
    # column carries the trivial exponent and every prefix shares one tuple
    A1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    coll = MatrixCollection(names=("A", "B"), matrices=(A1, np.eye(3)))
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.ones(3)
    cert = infinite.q2_certificate(coll, tau, x)
    assert cert.q == 2 and cert.kappa == 3 and cert.m == 2
    assert len(cert.support) == 2
    assert cert.p_gammas == tuple(range(2, 2 + 2**3 + 1))
    assert cert.residues.size and np.all(cert.residues == 0)
    assert cert.verify(tau)


def test_q2_certificate_example2():
    entry = ENTRIES["example2"]
    coll = entry.collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    cert = infinite.q2_certificate(coll, tau, x)
    assert cert.q == 4 and cert.kappa == 2
    assert np.all(cert.residues == 0)
    assert cert.verify(tau)
    assert cert.support == (0, 1)
    # the eigenvalue columns are (0, 0) for the fixed vector and (2, 2) for
    # the period-two vector: -1 = exp(2 pi i * 2 / 4)
    columns = sorted(tuple(cert.lambdas[:, j]) for j in range(cert.kappa))
    assert columns == [(0, 0), (2, 2)]
    # all selected prefixes share the parity that pins the tuple
    parities = {p % 2 for p in cert.p_gammas}
    assert len(parities) == 1


def test_q2_certificate_zero_limit():
    entry = ENTRIES["example2"]
    coll = entry.collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.real(entry.vectors["v5"] + 0.5 * entry.vectors["v6"])
    cert = infinite.q2_certificate(coll, tau, x, search_budget=12)
    # xi = 0: every prefix yields the zero tuple and the congruences hold
    # with the trivial exponents
    assert cert.p_gammas == tuple(range(2, 14))
    assert cert.support == ()
    assert np.all(cert.lambdas == 0)
    assert np.all(cert.residues == 0)
    assert cert.verify(tau)


def test_q2_certificate_budget_exhausted():
    entry = ENTRIES["example2"]
    coll = entry.collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.real(entry.vectors["v1"] + entry.vectors["v2"])
    with pytest.raises(BudgetExhausted):
        infinite.q2_certificate(coll, tau, x, search_budget=1)


@pytest.mark.parametrize("budget", [0, infinite.MAX_BUDGET + 1, 10**12])
def test_q2_budget_outside_the_cap_raises_before_any_work(monkeypatch, budget):
    """An explicit budget outside [1, MAX_BUDGET] raises ValueError before
    any analysis or the letter-count table, which at 10**12 prefixes would
    be a 14.6 TiB allocation."""
    def untouched(*args, **kwargs):
        raise AssertionError("the q2 search started")

    monkeypatch.setattr(infinite, "phi_table", untouched)
    monkeypatch.setattr(structure, "common_eigenvectors", untouched)
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    with pytest.raises(ValueError, match=r"must be from 1 to 100000$"):
        infinite.q2_certificate(ENTRIES["example2"].collection, tau, np.ones(6),
                                search_budget=budget)


@pytest.mark.parametrize("shift", [2.0, np.nan], ids=["twice-the-scale", "nan"])
def test_q2_cross_check_rejects_a_moved_tuple(monkeypatch, tmp_path, shift):
    """Equal keys whose float class tuples differ by more than the
    tolerance, or by NaN, raise HypothesesNotMet, which the CLI reports
    with exit 4."""
    coll = ENTRIES["example2"].collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.array([2.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    cert = infinite.q2_certificate(coll, tau, x)
    residues = infinite.phi_table(tau, max(cert.p_gammas))[list(cert.p_gammas)] % cert.q
    # the second residue class starts at the second chosen prefix
    assert not np.array_equal(residues[0], residues[1])
    class_tuples = infinite._class_tuples

    def moved_tuples(collection, xi, q, classes):
        tuples = class_tuples(collection, xi, q, classes)
        tuples[1, 1, 0] += shift * numeric.TUPLE_TOL * (1.0 + np.max(np.abs(xi)))
        return tuples

    monkeypatch.setattr(infinite, "_class_tuples", moved_tuples)
    named = f"prefixes {cert.p_gammas[0]} and {cert.p_gammas[1]} differ"
    with pytest.raises(HypothesesNotMet, match=named):
        infinite.q2_certificate(coll, tau, x)

    doc = tmp_path / "ex2.json"
    doc.write_text(json.dumps({"dimension": coll.n, "matrices": {
        name: coll[name].tolist() for name in coll.names}}))
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["q2", str(doc), "--tau", "periodic:AB", "--x", "2,0,2,0,0,0",
                     "--format", "machine"], stdout=out, stderr=err)
    assert code == 4
    error = json.loads(out.getvalue())["queries"][0]["error"]
    assert error.startswith("HypothesesNotMet: orbit tuples at " + named)


#: (move of xi, the letter named): (1, -1) in the last block decays
#: under A^4; (1, 0, -1, 0) in the cycle block is fixed by A^4 but sent to
#: zero by B; a NaN entry fails the first letter
LETTER_MOVES = {
    "A": ([0, 0, 0, 0, 0.5, -0.5], "A"),
    "B": ([0.5, 0, -0.5, 0, 0, 0], "B"),
    "nan": ([np.nan, 0, 0, 0, 0, 0], "A"),
}


@pytest.mark.parametrize("move", sorted(LETTER_MOVES))
def test_q2_rejects_a_limit_point_a_letter_moves(monkeypatch, move):
    """xi moved off the fixed space of A_r^q fails the explicit check
    A_r^q xi = xi, which names the first letter that moves it."""
    coll = ENTRIES["example2"].collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    x = np.array([2.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    shift, letter = LETTER_MOVES[move]
    a_tilde = infinite.a_tilde

    def moved_limit(collection, word, q, x, **kwargs):
        xi = a_tilde(collection, word, q, x, **kwargs).xi + shift
        return infinite.OrbitTuple(components=np.array([xi]), q=q)

    monkeypatch.setattr(infinite, "a_tilde", moved_limit)
    with pytest.raises(HypothesesNotMet,
                       match=f"matrix {letter} does not fix the limit point"):
        infinite.q2_certificate(coll, tau, x)


def test_q2_work_does_not_grow_with_the_budget(monkeypatch):
    """The default-budget q2 on the slow-mixing golden family (7,777
    prefixes) takes a few hundred matrix products at most; a chain over
    every prefix took ~7,900."""
    coll, _ = reporting.load_collection(
        pathlib.Path(__file__).parent / "golden" / "slow-mixing.json")
    tau = infinite.InfiniteWord.from_names("AAB", coll)
    x = numeric.parse_vector("2,-1,1,0.5,-0.5,1,3,-2,1")
    calls = [0]
    mat_mul = numeric.mat_mul

    def counted(A, B):
        calls[0] += 1
        return mat_mul(A, B)

    monkeypatch.setattr(numeric, "mat_mul", counted)
    cert = infinite.q2_certificate(coll, tau, x)
    assert len(cert.p_gammas) == 1729 and cert.p_gammas[-1] == 7779
    assert calls[0] < 500


def test_q2_sweep_outcomes_are_pinned():
    """The seeded 2,412-call sweep of ``tests/q2_sweep.py``: every outcome
    is integer data or an integer-only message, so its hash is exact."""
    from q2_sweep import outcomes

    results = list(outcomes())
    assert dict(collections.Counter(r[0] for r in results)) == {
        "cert": 1969, "BudgetExhausted": 443}
    assert hashlib.sha256(pickle.dumps(results)).hexdigest() == (
        "d54479451507f92f5bb31a345349f99651deb22a9198e2d2f45217940b6cbf1d")


def test_q2_certificate_rejects_noncommuting():
    coll = ENTRIES["example4"].collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    with pytest.raises(HypothesesNotMet):
        infinite.q2_certificate(coll, tau, np.ones(6))


def test_q2_certificate_seeded_tau():
    entry = ENTRIES["example3"]
    coll = entry.collection
    tau = infinite.InfiniteWord.from_seed(1234, N=2)
    rng = np.random.default_rng(77)
    x = rng.normal(size=7)
    cert = infinite.q2_certificate(coll, tau, x)
    assert np.all(cert.residues == 0)
    assert cert.verify(tau)
    assert len(cert.p_gammas) >= 2
    assert all(p >= cert.m for p in cert.p_gammas)
    assert list(cert.p_gammas) == sorted(cert.p_gammas)


def test_q2_pigeonhole_budget_suffices():
    entry = ENTRIES["example2"]
    coll = entry.collection
    tau = infinite.InfiniteWord.from_seed(5, N=2)
    rng = np.random.default_rng(5)
    system = structure.common_eigenvectors(coll)
    q = words.global_period(coll).q
    budget = q**system.kappa + 1
    for _ in range(5):
        x = rng.normal(size=6)
        cert = infinite.q2_certificate(coll, tau, x, search_budget=budget)
        assert len(cert.p_gammas) >= 2


def test_tuple_first_component_stability_commuting():
    entry = ENTRIES["example2"]
    coll = entry.collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    rng = np.random.default_rng(88)
    x = rng.normal(size=6)
    assert infinite.tuple_first_component_stability(coll, tau, x,
                                                    range(2, 13))


def test_tuple_first_component_stability_single_letter():
    coll = ENTRIES["example1"].collection
    tau = infinite.InfiniteWord.periodic((0,), N=1)
    assert infinite.tuple_first_component_stability(
        coll, tau, np.array([0.3, 0.7]), range(1, 8)
    )


def test_tuple_first_component_stability_refuses_bad_hypotheses():
    coll = ENTRIES["example6"].collection
    tau = infinite.InfiniteWord.periodic((0, 1), N=2)
    with pytest.raises(HypothesesNotMet):
        infinite.tuple_first_component_stability(coll, tau, np.ones(3),
                                                 range(2, 5))

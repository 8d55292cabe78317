"""The four benchmark workloads: request streams and correctness checks.

A workload is an endless, seeded stream of rounds, each a list of requests;
the benchmark runs whole rounds, so every run holds the same request mix
and a run's order statistics land on the same kind of request.  A CLI
request is one ``matword.cli`` invocation (argv, standard input, a check of
the parsed machine report); a library request is one family's analysis (a
call sequence and a check of its results).  Checks raise
:class:`CheckFailed`.
"""

import itertools
from dataclasses import dataclass

import numpy as np

import gen

TOL_LIMIT = 1e-7        # spectral vs iterative limit, cone path agreement
Q2_BUDGET_CAP = 5000    # q**kappa + 1 above this skips q2 (acceptance criterion 11)
SCALING_SIZES = (4, 6, 8, 10, 12, 14, 16)


class CheckFailed(Exception):
    """The program's output contradicts what the construction guarantees."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class CliRequest:
    label: str
    argv: list
    stdin: str | None
    check: object            # fn(report dict) -> None


@dataclass
class LibRequest:
    label: str
    call: object             # fn(mw) -> results dict
    check: object            # fn(results) -> None
    skipped: int = 0         # q2 skipped because of the budget cap


# ---------------------------------------------------------------------------
# independent numpy checks of limit points


def _word_matrix(matrices, word):
    M = np.eye(matrices[0].shape[0])
    for letter in word:
        M = matrices[letter] @ M
    return M


def _check_fixed(M, xi, power, what):
    """M^power xi == xi within 1e-8 relative sup norm."""
    xi = np.asarray(xi, dtype=float)
    image = np.linalg.matrix_power(M, power) @ xi
    scale = 1.0 + float(np.max(np.abs(xi)))
    require(float(np.max(np.abs(image - xi))) <= 1e-8 * scale,
            f"{what}: not fixed by the {power}-th power of the word product")


def _letter_counts(cycle, N, p):
    counts = np.zeros(N, dtype=np.int64)
    full, rest = divmod(p, len(cycle))
    for letter in cycle:
        counts[letter] += full
    for letter in cycle[:rest]:
        counts[letter] += 1
    return counts


def _check_q2_congruence(cycle, N, p_gammas, lambdas, q):
    """sum_r lambdas[r, j] Phi_r(p) agrees mod q across p_gammas (integers)."""
    lambdas = np.asarray(lambdas, dtype=np.int64).reshape(N, -1)
    weighted = [(_letter_counts(cycle, N, p) @ lambdas) % q for p in p_gammas]
    require(all(np.array_equal(w, weighted[0]) for w in weighted),
            "q2 congruences fail on exact letter counts")


def _vector_text(v):
    return ",".join(repr(float(x)) for x in v)


# ---------------------------------------------------------------------------
# cli-corpus


MACHINE = ["--format", "machine"]


def _check_paper_examples(report):
    corpus = report["corpus"]
    require(len(corpus) == 11, f"corpus has {len(corpus)} examples, expected 11")
    failed = [row["example"] for row in corpus if not row["passed"]]
    require(not failed, f"corpus examples failed: {failed}")


def _check_validation(report, facts):
    validation = report["validation"]
    require(validation["classification"] == facts["classification"],
            f"classification {validation['classification']!r}, "
            f"expected {facts['classification']!r}")
    require(validation["hypotheses_met"], "hypotheses reported as not met")


def _corpus_analyze(rng, name, entries, facts):
    family = gen.corpus_family(entries, facts)
    word = gen.covering_word(rng, family.N, 4)
    names = "".join(family.names[l] for l in word)
    if facts["real_lc"] is None:
        x = rng.normal(size=family.n)
    else:
        x = rng.normal(size=len(facts["real_lc"])) @ np.array(facts["real_lc"], float)
    queries = ["classify", "eigensystem",
               f"limit --word {names} --x={_vector_text(x)}",
               f"period --word {names} --x={_vector_text(x)}",
               f"cone-limit --word {names} --y={_vector_text(np.exp(x))}"]
    cycle = None
    if facts["q2"]:
        cycle = gen.covering_word(rng, family.N, family.N + 2)
        tau = "".join(family.names[l] for l in cycle)
        queries.append(f"q2 --tau periodic:{tau} --x={_vector_text(x)}")
    M = _word_matrix(family.matrices, word)
    q = facts["q"]

    def check(report):
        _check_validation(report, facts)
        by_name = {frag["query"]: frag for frag in report["queries"]}
        require(len(by_name) == len(queries), "missing query fragments")
        require(by_name["classify"]["classification"] == facts["classification"],
                "classify query disagrees with validation")
        eig = by_name["eigensystem"]
        require((eig["d"], eig["kappa"]) == (facts["d"], facts["kappa"]),
                f"eigensystem d={eig['d']} kappa={eig['kappa']}, "
                f"expected d={facts['d']} kappa={facts['kappa']}")
        for kind in ("limit", "period"):
            frag = by_name[kind]
            require(frag["status"] == "converged", f"{kind} did not converge")
            require(frag["q"] == q, f"{kind} q={frag['q']}, expected {q}")
            _check_fixed(M, frag["xi"], q, kind)
            require(q % frag["period"] == 0, f"{kind} period does not divide q")
            _check_fixed(M, frag["xi"], frag["period"], f"{kind} period")
        cone = by_name["cone-limit"]
        require(cone["status"] == "converged", "cone-limit did not converge")
        require(cone["path_agreement"] <= TOL_LIMIT,
                f"cone path agreement {cone['path_agreement']}")
        require(cone["period"] is not None and q % cone["period"] == 0,
                "cone period does not divide q")
        if cycle is not None:
            q2 = by_name["q2"]
            require(q2["all_residues_zero"], "q2 residues not all zero")
            require((q2["q"], q2["kappa"]) == (q, facts["kappa"]), "q2 q/kappa wrong")
            require(len(q2["p_gammas"]) >= 2, "q2 found no repeated tuple")
            _check_q2_congruence(cycle, family.N, q2["p_gammas"],
                                 q2["lambda_table"], q)

    argv = ["analyze", "-"] + [a for qs in queries for a in ("--query", qs)] + MACHINE
    return CliRequest(f"analyze {name}", argv, gen.document(family, entries), check)


def cli_corpus(rng):
    """paper-examples, validate per collection, analyze per collection."""
    collections = gen.corpus_collections()
    while True:
        batch = [CliRequest("paper-examples", ["paper-examples"] + MACHINE, None,
                            _check_paper_examples)]
        for name, (entries, facts) in collections.items():
            doc = gen.document(gen.corpus_family(entries, facts), entries)
            batch.append(CliRequest(
                f"validate {name}", ["validate", "-"] + MACHINE, doc,
                lambda report, facts=facts: _check_validation(report, facts)))
            batch.append(_corpus_analyze(rng, name, entries, facts))
        yield [batch[i] for i in rng.permutation(len(batch))]


# ---------------------------------------------------------------------------
# cli-scaling


def _scaling_request(family, kind, n):
    facts = family.facts

    def check(report):
        pair = report["validation"]["pair_classifications"][0]
        dim = pair["shemesh_dimension"]
        require(facts["shemesh_min"] <= dim <= facts["shemesh_max"],
                f"{kind} n={n}: shemesh_dimension {dim} outside "
                f"[{facts['shemesh_min']}, {facts['shemesh_max']}]")
        frags = {frag["query"]: frag for frag in report["queries"]}
        require(set(frags) == {"classify", "eigensystem"}, "missing query fragments")
        d = frags["eigensystem"]["d"]
        require(facts["common_min"] <= d <= facts["common_max"],
                f"{kind} n={n}: {d} common eigenvectors outside "
                f"[{facts['common_min']}, {facts['common_max']}]")

    argv = ["analyze", "-", "--force", "--query", "classify",
            "--query", "eigensystem"] + MACHINE
    return CliRequest(f"{kind} n={n}", argv, gen.document(family), check)


def cli_scaling(rng):
    """One pair per size in SCALING_SIZES, shuffled; rounds alternate
    between generic and planted pairs."""
    kinds = [("generic", gen.generic_pair), ("planted", gen.planted_pair)]
    for index in itertools.count():
        kind, make = kinds[index % 2]
        yield [_scaling_request(make(rng, int(n)), kind, int(n))
               for n in rng.permutation(SCALING_SIZES)]


# ---------------------------------------------------------------------------
# library workloads


def _family_request(label, family, x, word, cycle, budget):
    """One family through periods, limits (spectral and iterative), cone
    limits and, when ``budget`` is set, a q2 certificate."""
    facts = family.facts
    q = facts["q"]

    def call(mw):
        coll = mw.collection.MatrixCollection(names=tuple(family.names),
                                              matrices=family.matrices)
        out = {"cert": mw.words.global_period(coll)}
        system = out["system"] = mw.structure.common_eigenvectors(coll)
        coeffs = mw.structure.lc_membership(x, system, tol=TOL_LIMIT)
        out["closed"] = None if coeffs is None else mw.words.spectral_limit(system, coeffs)
        w = mw.words.Word(word)
        limit = out["limit"] = mw.words.limit_point(coll, w, x, q)
        if limit.converged:
            out["period"] = mw.words.point_period(mw.words.word_product(coll, w),
                                                  limit.xi, q)
        cone = out["cone"] = mw.conemaps.cone_limit(coll, w, np.exp(x), q, system=system)
        if cone.converged:
            out["cone_period"] = mw.conemaps.cone_point_period(coll, w, cone.eta, q)
        if budget is not None:
            tau = mw.infinite.InfiniteWord.periodic(cycle, N=family.N)
            cert = out["q2"] = mw.infinite.q2_certificate(coll, tau, x,
                                                           search_budget=budget)
            out["q2_verified"] = cert.verify(tau)
        return out

    def check(out):
        require(out["cert"].q == q, f"q={out['cert'].q}, expected {q}")
        require(out["system"].kappa == facts["kappa"],
                f"kappa={out['system'].kappa}, expected {facts['kappa']}")
        require(out["closed"] is not None, "x not in LC(E') of a full eigenbasis")
        limit = out["limit"]
        require(limit.converged, f"limit_point {limit.status}")
        gap = float(np.max(np.abs(out["closed"] - limit.xi)))
        require(gap <= TOL_LIMIT, f"spectral and iterative limits differ by {gap}")
        require(q % out["period"] == 0, "point period does not divide q")
        cone = out["cone"]
        require(cone.converged, f"cone_limit {cone.status}")
        require(cone.path_agreement <= TOL_LIMIT,
                f"cone path agreement {cone.path_agreement}")
        cp = out["cone_period"]
        require(cp is not None and q % cp == 0, "cone point period does not divide q")
        if budget is not None:
            cert = out["q2"]
            require(len(cert.p_gammas) >= 2, "q2 budget exhausted")
            require(bool(np.all(cert.residues == 0)), "q2 residues not all zero")
            require(out["q2_verified"], "q2 verify(tau) is false")

    return LibRequest(label, call, check, skipped=int(budget is None))


def _family_round(rng, families, max_word, cap=None):
    """Requests for ``families`` with seeded x, covering word and periodic
    tau; q2 runs with budget q**kappa + 1 unless that exceeds ``cap``."""
    batch = []
    for family in families:
        x = rng.normal(size=family.n)
        word = gen.covering_word(rng, family.N, max_word)
        cycle = gen.covering_word(rng, family.N, family.N + 3)
        budget = family.facts["q"] ** family.facts["kappa"] + 1
        if cap is not None and budget > cap:
            budget = None
        batch.append(_family_request(f"n={family.n} N={family.N}", family, x, word,
                                     cycle, budget))
    return batch


def commuting_dynamics(rng):
    """Many small commuting diagonalizable families (n <= 8, N <= 3); a
    round takes every cycle configuration once, in shuffled order."""
    configs = gen.COMMUTING_CONFIGS
    while True:
        order = rng.permutation(len(configs))
        yield _family_round(rng, (gen.commuting_family(rng, *configs[i]) for i in order),
                            max_word=8, cap=Q2_BUDGET_CAP)


def slow_mixing(rng):
    """Few long requests: lazy walks near the unit circle, q = 6, kappa = 5;
    a round holds one walk of each size."""
    while True:
        sizes = rng.permutation([3, 4])
        yield _family_round(rng, (gen.slow_mixing_family(rng, int(L)) for L in sizes),
                            max_word=3)


WORKLOADS = {
    "cli-corpus": cli_corpus,
    "cli-scaling": cli_scaling,
    "commuting-dynamics": commuting_dynamics,
    "slow-mixing": slow_mixing,
}

CLI_WORKLOADS = {"cli-corpus", "cli-scaling"}

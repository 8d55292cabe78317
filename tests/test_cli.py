import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from matword import cli, corpus, reporting, structure

ENTRIES = corpus.build_corpus()


def write_doc(tmp_path, name, collection, mutate=None, options=None):
    doc = {
        "dimension": collection.n,
        "matrices": {
            nm: [list(row) for row in np.asarray(collection[nm])]
            for nm in collection.names
        },
    }
    if options:
        doc["options"] = options
    if mutate:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ex2_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("docs")
    return write_doc(tmp, "ex2.json", ENTRIES["example2"].collection)


def test_validate_example2(ex2_path):
    code, out, _ = run_cli(["validate", ex2_path, "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["classification"] == "commuting"
    assert report["validation"]["hypotheses_met"] is True
    assert all(row["nonnegative"] for row in report["validation"]["per_matrix"])


def test_validate_rational_entries(tmp_path):
    def mutate(doc):
        doc["matrices"]["A"] = [
            ["0", "1/1"], ["1", "0"],
        ]
        doc["matrices"]["B"] = [["1/2", "1/2"], ["1/2", "1/2"]]
        doc["dimension"] = 2

    path = write_doc(tmp_path, "rational.json", ENTRIES["example7"].collection,
                     mutate=mutate)
    code, out, _ = run_cli(["validate", path, "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["rho_ok"]


def test_negative_entry_exit_2(tmp_path):
    def mutate(doc):
        doc["matrices"]["A"][0][1] = -0.25

    path = write_doc(tmp_path, "neg.json", ENTRIES["example7"].collection,
                     mutate=mutate)
    code, _, err = run_cli(["validate", path])
    assert code == 2
    assert "(0, 1)" in err and "negative" in err


def test_bad_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["validate", str(path)])
    assert code == 2


def test_example6_warning(tmp_path):
    path = write_doc(tmp_path, "ex6.json", ENTRIES["example6"].collection)
    code, out, _ = run_cli(["validate", path, "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert any("> 1" in w for w in report["validation"]["warnings"])


def test_hypotheses_not_met_exit_3_and_force(tmp_path):
    # swap + off-circle pair: no common eigenvector, not quasi, not laffey
    from matword.collection import MatrixCollection

    coll = MatrixCollection(
        names=("A", "B"),
        matrices=(corpus.J2, np.array([[0.0, 2.0], [0.5, 0.0]])),
    )
    path = write_doc(tmp_path, "nohyp.json", coll)
    code, out, err = run_cli(["validate", path, "--format", "machine"])
    assert code == 3
    assert json.loads(out)["verdict"] == "HypothesesNotMet"
    code, out, _ = run_cli(["validate", path, "--force", "--format", "machine"])
    assert code == 0
    assert json.loads(out)["verdict"] == "forced"


def test_limit_query(ex2_path):
    code, out, _ = run_cli([
        "limit", ex2_path, "--word", "ABB", "--x", "2,0,2,0,0,0",
        "--format", "machine",
    ])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["q"] == 4
    assert fragment["status"] == "converged"
    assert fragment["period"] == 2
    np.testing.assert_allclose(fragment["xi"], [2, 0, 2, 0, 0, 0], atol=1e-9)
    assert fragment["factor_order"] == "A_B A_B A_A"


def test_period_query_example3(tmp_path):
    path = write_doc(tmp_path, "ex3.json", ENTRIES["example3"].collection)
    code, out, _ = run_cli([
        "period", path, "--word", "AB", "--x", "3,0,0,2,0,0,0",
        "--format", "machine",
    ])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["q"] == 6 and fragment["period"] == 6


def test_cone_limit_query(ex2_path):
    code, out, _ = run_cli([
        "cone-limit", ex2_path, "--word", "AB", "--y", "1,1,1,1,1,1",
        "--format", "machine",
    ])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["status"] == "converged"
    np.testing.assert_allclose(fragment["eta"], np.ones(6), atol=1e-10)
    assert fragment["path_agreement"] <= 1e-8
    assert "warnings" not in fragment


def test_cone_limit_warning_goes_into_the_fragment(tmp_path):
    """log(y) outside LC(E') is reported in the fragment, not printed by
    Python's warning machinery on stderr."""
    path = tmp_path / "swaps.json"
    path.write_text(json.dumps({"dimension": 3, "matrices": {
        "A": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "B": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["cone-limit", str(path), "--word", "AB",
                                  "--y", "1,2,3", "--max-iter", "1000",
                                  "--format", "machine"])
    assert code == 4 and "UserWarning" not in err
    fragment = json.loads(out)["queries"][0]
    assert fragment["warnings"] == [
        "log(y) is not in LC(E'); cone limit may not converge"]


def test_cone_limit_and_q2_share_the_lc_rule(tmp_path):
    """E' = {e2}: log(y) = (1e-7, 0) is within LC_TOL of span(E'), the
    rule q2 applies to x, so the cone limit carries no warning."""
    path = tmp_path / "lc.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[1, 0], [0, 0.5]], "B": [[1, 0], [0.25, 0.5]]}}))
    code, out, _ = run_cli(["cone-limit", str(path), "--word", "AB",
                            "--y", "1.0000001,1", "--format", "machine"])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["status"] == "converged"
    assert "warnings" not in fragment


def test_eigensystem_query(ex2_path):
    code, out, _ = run_cli(["eigensystem", ex2_path, "--format", "machine"])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["d"] == 6 and fragment["kappa"] == 2
    assert len(fragment["vectors"]) == 6
    assert len(fragment["lambda_table"]) == 6


def test_q2_query(ex2_path):
    code, out, _ = run_cli([
        "q2", ex2_path, "--tau", "periodic:AB", "--x", "2,0,2,0,0,0",
        "--format", "machine",
    ])
    assert code == 0
    fragment = json.loads(out)["queries"][0]
    assert fragment["q"] == 4
    assert fragment["all_residues_zero"] is True
    assert fragment["tau"] == "periodic:01"


def test_q2_honours_rho_tol(tmp_path):
    """rho(A) = 1 + 5e-8 passes --rho-tol 1e-7, and q2 takes its period
    under that band; without the flag it still stops at the radius."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0, 1.00000005], [1.00000005, 0]], "B": [[1, 0], [0, 1]]}}))

    def q2(*flags):
        code, out, _ = run_cli(["q2", str(path), "--tau", "periodic:AB", *flags,
                                "--format", "machine"])
        return code, json.loads(out)["queries"][0]

    code, fragment = q2("--x", "0,0", "--rho-tol", "1e-7")
    assert code == 0 and fragment["q"] == 2
    assert fragment["tolerances"]["rho_tol"] == 1e-7
    # x = (1, 0.5) grows like rho^k, so its limit, not the period, fails
    code, fragment = q2("--x", "1,0.5", "--rho-tol", "1e-7")
    assert code == 4 and "did not converge" in fragment["error"]
    code, fragment = q2("--x", "1,0.5", "--force")
    assert code == 4
    assert fragment["error"] == (
        "SpectralRadiusViolation: rho(A) = 1.00000005 exceeds 1 + 1e-08")


def test_q2_refuses_a_pair_that_classify_calls_noncommuting(tmp_path):
    """q2 decides commuting by the test of validate: a pair 1e-9 away from
    commuting classifies as none, and q2 refuses it before any limit."""
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0, 1], [1, 0]], "B": [[1, 0], [0, 0.999999999]]}}))
    code, out, _ = run_cli(["analyze", str(path), "--force", "--query", "classify",
                            "--query", "q2 --tau periodic:AB --x 1,2",
                            "--format", "machine"])
    assert code == 4
    classify, q2 = json.loads(out)["queries"]
    assert classify["pair_classifications"][0]["commuting"] is False
    assert q2["error"] == "HypothesesNotMet: matrices A and B do not commute"


def test_q2_honours_max_iter(tmp_path):
    """--max-iter caps the limit q2 takes, as the fragment's tolerances say."""
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0.9, 0.1], [0.1, 0.9]]}}))
    code, out, _ = run_cli(["analyze", str(path), "--max-iter", "1",
                            "--query", "q2 --tau periodic:A --x 1,0",
                            "--format", "machine"])
    assert code == 4
    report = json.loads(out)
    assert report["tolerances"]["max_iter"] == 1
    assert report["queries"][0]["error"] == (
        "HypothesesNotMet: limit of x under word (0,) did not converge "
        "(status max_iter)")


def test_one_rho_per_letter_in_one_report(tmp_path):
    """Validation's rho and the period's rho of a letter come from its one
    eig, so the report prints one value for both."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0, 1.00000005], [1.00000005, 0]], "B": [[1, 0], [0, 1]]}}))
    code, out, _ = run_cli(["q2", str(path), "--tau", "periodic:AB", "--x", "1,0.5",
                            "--force", "--format", "machine"])
    assert code == 4
    report = json.loads(out)
    rho = report["validation"]["per_matrix"][0]["rho"]
    assert report["queries"][0]["error"] == (
        f"SpectralRadiusViolation: rho(A) = {rho!r} exceeds 1 + 1e-08")


@pytest.mark.parametrize("budget, code", [
    ("100001", 2), ("1000000000000", 2), ("100000", 0)])
def test_q2_budget_cap(tmp_path, budget, code):
    """A budget above numeric.MAX_BUDGET is an input error, not a failed
    allocation of its letter-count table; the cap itself still runs."""
    path = tmp_path / "swap.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0, 1], [1, 0]], "B": [[1, 0], [0, 1]]}}))
    got, out, err = run_cli(["q2", str(path), "--tau", "periodic:AB",
                             "--x", "1,0.5", "--budget", budget,
                             "--format", "machine"])
    assert got == code
    if code == 2:
        assert out == ""
        assert err == f"input error: --budget {budget} must be from 1 to 100000\n"
    else:
        assert len(json.loads(out)["queries"][0]["p_gammas"]) == 50_000


def test_budget_cap_is_named_once(capsys):
    """The cap lives in ``numeric`` with the other policy constants; the
    q2 module and the ``--budget`` help read that one value."""
    from matword import infinite, numeric

    assert infinite.MAX_BUDGET is numeric.MAX_BUDGET
    with pytest.raises(SystemExit) as exit_:
        cli.main(["q2", "--help"])
    assert exit_.value.code == 0
    assert "1 to 100000" in " ".join(capsys.readouterr().out.split())


def test_analyze_multiple_queries(ex2_path):
    code, out, _ = run_cli([
        "analyze", ex2_path,
        "--query", "classify",
        "--query", "limit --word ABB --x 2,0,2,0,0,0",
        "--format", "machine",
    ])
    assert code == 0
    report = json.loads(out)
    assert [q["query"] for q in report["queries"]] == ["classify", "limit"]


def test_machine_report_deterministic(ex2_path):
    argv = ["limit", ex2_path, "--word", "AB", "--x", "1,1,1,1,1,1",
            "--format", "machine"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_machine_report_roundtrip(ex2_path):
    code, out, _ = run_cli(["validate", ex2_path, "--format", "machine"])
    report = json.loads(out)
    assert reporting.dumps_machine(report) + "\n" == out


def test_float_formatting_17_digits():
    text = reporting.dumps_machine({"x": 1 / 3})
    assert text == '{"x":0.33333333333333331}'
    assert json.loads(text)["x"] == 1 / 3


def test_paper_examples_all_pass():
    code, out, _ = run_cli(["paper-examples", "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert len(report["corpus"]) == 11
    assert all(row["passed"] for row in report["corpus"])


def test_paper_examples_filter():
    code, out, _ = run_cli(["paper-examples", "--filter", "example7",
                            "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert [row["example"] for row in report["corpus"]] == ["example7"]


def test_paper_examples_filter_without_match_exit_2():
    code, out, err = run_cli(["paper-examples", "--filter", "nomatch"])
    assert code == 2
    assert out == ""
    assert err == "no example matches filter 'nomatch'\n"


def test_corrupted_example2_detected():
    # perturb one entry of the embedded example-2 matrix: the frozen
    # eigenvalue data no longer matches and the check must fail
    entry = ENTRIES["example2"]
    A = np.array(entry.collection["A"])
    A[4, 4] = 0.34
    from matword.collection import MatrixCollection

    corrupted = corpus.CorpusEntry(
        name=entry.name,
        summary=entry.summary,
        collection=MatrixCollection(names=("A", "B"),
                                    matrices=(A, entry.collection["B"])),
        vectors=entry.vectors,
        data=entry.data,
    )
    with pytest.raises(AssertionError):
        corpus.check_example2(corrupted)


def test_forced_supercritical_limit_exit_4(tmp_path):
    from matword.collection import MatrixCollection

    coll = MatrixCollection(
        names=("A", "B"),
        matrices=(np.diag([2.0, 1.0]), np.eye(2)),
    )
    path = write_doc(tmp_path, "super.json", coll)
    code, out, _ = run_cli([
        "limit", path, "--word", "AB", "--x", "1,1", "--force",
        "--format", "machine",
    ])
    assert code == 4
    fragment = json.loads(out)["queries"][0]
    assert "SpectralRadiusViolation" in fragment["error"]


def test_limit_that_is_not_periodic_exit_4(tmp_path):
    # at --tol 0.5 the limit stops short of the fixed point, so the
    # period check at TUPLE_TOL fails and the fragment records why
    path = write_doc(tmp_path, "ex7.json", ENTRIES["example7"].collection)
    code, out, _ = run_cli(["limit", path, "--word", "AB", "--x", "2,-1",
                            "--tol", "0.5", "--force", "--format", "machine"])
    assert code == 4
    fragment = json.loads(out)["queries"][0]
    assert fragment["status"] == "converged" and "period" not in fragment
    assert fragment["period_error"].startswith("vector is not 1-periodic")


def test_cone_limit_that_is_not_periodic_exit_4(tmp_path):
    # at --tol 1e-3 the cone limit of the mixing walk stops short of its
    # fixed point, so cone-limit reports the miss as limit does
    path = tmp_path / "mix.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0.9, 0.1], [0.1, 0.9]]}}))
    code, out, _ = run_cli(["cone-limit", str(path), "--word", "A", "--y", "1,2",
                            "--tol", "1e-3", "--format", "machine"])
    assert code == 4
    fragment = json.loads(out)["queries"][0]
    assert fragment["status"] == "converged" and "period" not in fragment
    assert fragment["period_error"].startswith("vector is not 1-periodic")


def test_radius_inside_the_rho_tol_band_counts_as_one(tmp_path):
    """rho(A) = 1 - 5e-7 passes --rho-tol 1e-6, so its peripheral
    eigenvalue is tested as lambda / rho: q_r = 1, not NotRootOfUnity."""
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [[0.9999995, 0], [0, 0.5]], "B": [[1, 0], [0, 1]]}}))
    code, out, _ = run_cli(["analyze", str(path), "--rho-tol", "1e-6",
                            "--query", "limit --word AB --x 0,1",
                            "--query", "q2 --tau periodic:AB --x 0,1",
                            "--format", "machine"])
    assert code == 0
    limit, q2 = json.loads(out)["queries"]
    assert limit["q_r"] == {"A": 1, "B": 1} and limit["period"] == 1
    assert q2["q"] == 1 and q2["all_residues_zero"]


def test_quasi_commuting_pair_classifies_without_force(tmp_path):
    # A = E12 + [1], B = E23 + [1]: [A, B] = E13 has rank one and commutes
    # with both letters
    A, B = np.zeros((4, 4)), np.zeros((4, 4))
    A[0, 1] = B[1, 2] = A[3, 3] = B[3, 3] = 1.0
    path = tmp_path / "quasi.json"
    path.write_text(json.dumps({"dimension": 4, "matrices": {
        "A": A.tolist(), "B": B.tolist()}}))
    code, out, _ = run_cli(["classify", str(path), "--format", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["hypotheses_met"] is True
    fragment = report["queries"][0]
    assert fragment["classification"] == "quasi-commuting"
    assert fragment["pair_classifications"][0]["commutator_rank"] == 1


def test_one_common_eigensystem_per_report(ex2_path, monkeypatch):
    """eigensystem, cone-limit and q2 read one E', so one report prints
    one kappa."""
    calls = []
    original = structure._common_eigenvectors

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(structure, "_common_eigenvectors", counting)
    code, out, _ = run_cli([
        "analyze", ex2_path, "--query", "eigensystem",
        "--query", "cone-limit --word AB --y 1,2,1,2,3,1",
        "--query", f"q2 --tau periodic:AB --x {EX2_X}", "--format", "machine",
    ])
    assert code == 0
    assert len(calls) == 1
    eigensystem, _, q2 = json.loads(out)["queries"]
    assert eigensystem["kappa"] == q2["kappa"] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "matword.cli", "paper-examples",
         "--filter", "example1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "example1" in proc.stdout


def test_stdin_input(ex2_path, monkeypatch):
    text = open(ex2_path).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli(["classify", "-", "--format", "machine"])
    assert code == 0
    assert json.loads(out)["queries"][0]["classification"] == "commuting"


EX2_X = "2,0,2,0,0,0"


@pytest.mark.parametrize("argv", [
    ["limit", "--word", "AB", "--x", EX2_X, "--max-iter", "0"],
    ["period", "--word", "AB", "--x", EX2_X, "--max-iter", "0"],
    ["cone-limit", "--word", "AB", "--y", "1,1,1,1,1,1", "--max-iter", "0"],
    ["q2", "--tau", "periodic:AB", "--x", EX2_X, "--budget", "0"],
    ["limit", "--word", "AB", "--x", EX2_X, "--tol", "-1"],
    ["limit", "--word", "AB", "--x", EX2_X, "--tol", "nan"],
    ["limit", "--word", "AB", "--x", EX2_X, "--bound", "inf"],
    ["validate", "--rho-tol", "0"],
    ["analyze", "--query", f"q2 --tau periodic:AB --x {EX2_X} --budget -3"],
    ["analyze", "--query", 'limit --word "AB'],
    ["q2", "--tau", "seed:-1", "--x", EX2_X],
    ["analyze", "--query", f"q2 --tau seed:-1 --x {EX2_X}"],
    ["limit", "--word", "AB", "--x", "2,0,,2,0,0,0"],
    ["limit", "--word", "AZ", "--x", EX2_X],
    ["limit", "--word", "AB", "--x", "2,0,2"],
    ["cone-limit", "--word", "AB", "--y", "1,1,0,1,1,1"],
    ["q2", "--tau", "periodic:", "--x", EX2_X],
    ["q2", "--tau", "seed:x", "--x", EX2_X],
    ["q2", "--tau", "tau:AB", "--x", EX2_X],
], ids=["limit-max-iter", "period-max-iter", "cone-limit-max-iter",
        "q2-budget", "tol-negative", "tol-nan", "bound-inf", "rho-tol-zero",
        "analyze-q2-budget", "analyze-unbalanced-quote", "q2-seed-negative",
        "analyze-q2-seed-negative", "x-empty-field", "word-unknown-letter",
        "x-wrong-length", "y-zero-entry", "tau-empty-cycle", "tau-seed-text",
        "tau-unknown-kind"])
def test_bad_flag_value_exit_2(ex2_path, argv):
    code, out, err = run_cli([argv[0], ex2_path] + argv[1:])
    assert code == 2
    assert out == "" and err.startswith("input error:")


# modulus_tol is no longer an option, so any value of it is an unknown key
@pytest.mark.parametrize("options", [
    {"max_iter": "x"}, {"max_iter": 0}, {"tol": True}, {"modulus_tol": -1e-8},
    {"rho_tol": "nan"}, {"bound": "1e400"}, {"tolerence": 1e-3},
], ids=["max-iter-text", "max-iter-zero", "tol-bool", "modulus-tol-negative",
        "rho-tol-nan", "bound-overflow", "tol-misspelled"])
def test_bad_document_option_exit_2(tmp_path, options):
    path = write_doc(tmp_path, "opts.json", ENTRIES["example7"].collection,
                     options=options)
    code, _, err = run_cli(["validate", path])
    assert code == 2 and err.startswith("input error:")


def _set_dimension(doc):
    doc["dimension"] = "x"


def _ragged_row(doc):
    doc["matrices"]["A"][1] = [0.5]


def _huge_integer(doc):
    doc["matrices"]["A"][0][0] = 10 ** 400


def _boolean_entry(doc):
    doc["matrices"]["A"][0][0] = True


def _misspelled_options(doc):
    doc["option"] = {"tol": 1e-3}


@pytest.mark.parametrize("mutate", [_set_dimension, _ragged_row, _huge_integer,
                                    _boolean_entry, _misspelled_options])
def test_malformed_document_exit_2(tmp_path, mutate):
    path = write_doc(tmp_path, "bad.json", ENTRIES["example7"].collection,
                     mutate=mutate)
    code, _, err = run_cli(["validate", path])
    assert code == 2 and err.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["analyze", "--query", "classify", "--query", "eigensystem"],
    ["classify"],
])
def test_validate_runs_once_per_run(ex2_path, monkeypatch, argv):
    calls = []
    original = reporting.validate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reporting, "validate", counting)
    code, _, _ = run_cli([argv[0], ex2_path] + argv[1:] + ["--format", "machine"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mutate,named,accepted", [
    (_misspelled_options, "'option'", "dimension, matrices, options"),
    (lambda doc: doc.update(options={"tolerence": 1e-3}), "'tolerence'",
     "tol, rho_tol, max_iter, bound"),
], ids=["document", "options"])
def test_unknown_key_names_the_accepted_keys(tmp_path, mutate, named, accepted):
    path = write_doc(tmp_path, "keys.json", ENTRIES["example7"].collection,
                     mutate=mutate)
    code, out, err = run_cli(["validate", path])
    assert code == 2 and out == ""
    assert named in err and accepted in err


def test_string_row_exit_2(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {"A": ["01", "10"]}}))
    code, out, err = run_cli(["validate", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "nested array" in err


def test_query_argument_error_goes_to_given_stream(ex2_path, capsys):
    code, out, err = run_cli(["analyze", ex2_path, "--query", "limit --word A"])
    assert code == 2 and out == ""
    assert err.startswith("input error: bad query arguments in 'limit --word A'")
    assert "required: --x" in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["classify", "--force"], ["validate"],
                                  ["analyze", "--force", "--query", "classify"]])
def test_overflowing_commutator_scale_exit_2(tmp_path, argv):
    # AB - BA is finite but |A| |B| = 1e600 overflows; it read as commuting
    path = tmp_path / "scale.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [["1e300", 0], [1, 0]], "B": [[0, 1], [0, "1e300"]]}}))
    code, out, err = run_cli(argv[:1] + [str(path)] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("input error: the commutator scale |A| |B| of the pair A, B")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["classify", "--force"], ["validate"],
                                  ["analyze", "--force", "--query", "classify"]])
def test_every_product_is_checked_before_any_commutator_scale(tmp_path, argv):
    # A, B have finite products and an overflowing scale; AC's product overflows
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"dimension": 2, "matrices": {
        "A": [["1e300", 0], [1, 0]], "B": [[0, 1], [0, "1e300"]],
        "C": [["1e10", 0], [0, 0]]}}))
    code, out, err = run_cli(argv[:1] + [str(path)] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("input error: the product of the two-letter word AC")
    assert "Traceback" not in err

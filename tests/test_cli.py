import io
import json
import subprocess
import sys

import numpy as np
import pytest

from matword import cli, corpus, reporting

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
], ids=["limit-max-iter", "period-max-iter", "cone-limit-max-iter",
        "q2-budget", "tol-negative", "tol-nan", "bound-inf", "rho-tol-zero",
        "analyze-q2-budget", "analyze-unbalanced-quote"])
def test_bad_flag_value_exit_2(ex2_path, argv):
    code, out, err = run_cli([argv[0], ex2_path] + argv[1:])
    assert code == 2
    assert out == "" and err.startswith("input error:")


@pytest.mark.parametrize("options", [
    {"max_iter": "x"}, {"max_iter": 0}, {"tol": True}, {"modulus_tol": -1e-8},
    {"rho_tol": "nan"}, {"bound": "1e400"},
], ids=["max-iter-text", "max-iter-zero", "tol-bool", "modulus-tol-negative",
        "rho-tol-nan", "bound-overflow"])
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


@pytest.mark.parametrize("mutate", [_set_dimension, _ragged_row, _huge_integer,
                                    _boolean_entry])
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

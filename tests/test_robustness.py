"""Every input document and flag string ends in a documented exit code.

The CLI must end in 0, 2, 3 or 4 and never in a traceback.  Entries near
the top of the double range pass parsing, but their products overflow;
an infinite entry handed to LAPACK can hang the process for good, so the
in-process fuzz tests fail on any non-finite argument to the
``np.linalg`` entry points instead of relying on a timeout.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matword import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTED_EXITS = {0, 2, 3, 4}

#: finite documents whose two-letter products overflow: the first hung
#: ``validate`` inside the SVD, the second ended in a LinAlgError traceback
OVERFLOW_DOCUMENTS = {
    "svd-hang": {"dimension": 3, "matrices": {
        "A": [[0, 0, 0], ["1e300", 0, 0], [0, 0, 0]],
        "B": [["1e300", 0, 0], [0, 1, 0], [0, 0, 1]]}},
    "svd-no-convergence": {"dimension": 1, "matrices": {
        "A": [["1e300"]], "B": [["1e300"]]}},
}


def run_cli(command, document):
    """The CLI in a fresh process, reading ``document`` from stdin."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    # the kill timeout only stops a hang; the run itself takes well under 1 s
    return subprocess.run([sys.executable, "-m", "matword.cli", *command],
                          input=json.dumps(document),
                          capture_output=True, text=True, env=env, timeout=10)


@pytest.mark.parametrize("name", sorted(OVERFLOW_DOCUMENTS))
def test_overflowing_product_exits_2(name):
    proc = run_cli(["validate", "-"], OVERFLOW_DOCUMENTS[name])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:")
    assert "two-letter word" in proc.stderr
    assert "Traceback" not in proc.stderr


#: a pair whose products stay finite but whose commutator scale |A| |B|
#: overflows; the test passed every commutator and read it as commuting
SCALE_OVERFLOW_DOCUMENT = {"dimension": 2, "matrices": {
    "A": [["1e300", 0], [1, 0]], "B": [[0, 1], [0, "1e300"]]}}


@pytest.mark.parametrize("command", [["classify", "-", "--force"], ["validate", "-"]])
def test_overflowing_commutator_scale_exits_2(command):
    proc = run_cli(command, SCALE_OVERFLOW_DOCUMENT)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("input error: the commutator scale")
    assert "Traceback" not in proc.stderr


def test_eigenpair_residuals_near_1e300_print_nothing():
    # a 2-norm by the sum of squares overflows here, and numpy warned on stderr
    document = {"dimension": 2, "matrices": {"A": [["1e300", "1e300"],
                                                   ["1e300", "1e300"]]}}
    proc = run_cli(["eigensystem", "-", "--force", "--format", "machine"], document)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["queries"][0]["d"] == 2


def test_lc_membership_near_1e300_prints_nothing():
    # the LC residual and |x| by the sum of squares overflowed, and numpy
    # warned twice on stderr
    document = {"dimension": 2, "matrices": {"A": [[0, 1], [1, 0]],
                                             "B": [[1, 0], [0, 1]]}}
    proc = run_cli(["q2", "-", "--tau", "periodic:AB", "--x", "1e300,1e300",
                    "--format", "machine"], document)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.returncode == 4, proc.stderr


def _finite_only(name, fn):
    def wrapper(*args, **kwargs):
        for arg in args[:2]:  # svd(a), eig(a), eigvals(a), lstsq(a, b)
            assert np.isfinite(arg).all(), f"non-finite argument to np.linalg.{name}"
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def finite_lapack():
    with pytest.MonkeyPatch.context() as mp:
        for name in ("svd", "eig", "eigvals", "lstsq"):
            mp.setattr(np.linalg, name, _finite_only(name, getattr(np.linalg, name)))
        yield


def run_main(argv, document):
    """``cli.main`` in process on a document given as standard input, as
    text or as bytes read through a strict UTF-8 decoder:
    (exit code, everything written to stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = (io.TextIOWrapper(io.BytesIO(document), encoding="utf-8")
                 if isinstance(document, bytes) else io.StringIO(document))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv, stdout=out, stderr=err)
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


#: integer fields of the input document given as a fraction or a bool: the
#: first ran as a 2 x 2 document, the second as 1 x 1, the third with
#: max_iter 2, although ``--max-iter 2.7`` exits 2
SWAP = {"A": [[0, 1], [1, 0]], "B": [[1, 0], [0, 1]]}
NON_INTEGER_DOCUMENTS = {
    "dimension-fraction": {"dimension": 2.7, "matrices": SWAP},
    "dimension-bool": {"dimension": True, "matrices": {"A": [[1]]}},
    "max-iter-fraction": {"dimension": 2, "matrices": SWAP,
                          "options": {"max_iter": 2.7}},
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_DOCUMENTS))
def test_non_integer_field_exits_2(name):
    code, err = run_main(["validate", "-"], json.dumps(NON_INTEGER_DOCUMENTS[name]))
    assert code == 2 and err.startswith("input error:"), err


@pytest.mark.parametrize("value", [2, 2.0, "2"])
def test_integral_fields_are_accepted(value):
    document = {"dimension": value, "matrices": SWAP, "options": {"max_iter": value}}
    code, err = run_main(["validate", "-"], json.dumps(document))
    assert code == 0, err


#: inputs that ended in a traceback with exit 1: bytes that are not UTF-8
#: (UnicodeDecodeError) and JSON nested past the parser's recursion limit
#: (RecursionError from ``json.loads``)
UNREADABLE_INPUTS = {
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize("name", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_exits_2(tmp_path, name, source):
    data = UNREADABLE_INPUTS[name]
    if source == "path":
        path = tmp_path / "document.json"
        path.write_bytes(data)
        code, err = run_main(["validate", str(path)], "")
    else:
        code, err = run_main(["validate", "-"], data)
    assert code == 2 and err.startswith("input error:"), err
    assert "Traceback" not in err


EXTREME_ENTRIES = st.sampled_from(["1e300", "1e-300", "0.999999999", 0, 1])
VECTOR_ENTRIES = st.sampled_from(["1", "0", "-1", "1e-300", "1e300", "1/3"])


@st.composite
def extreme_runs(draw):
    """(argv, document): nonnegative matrices of extreme entries, n <= 4,
    and one query on them with small iteration and search caps."""
    n = draw(st.integers(1, 4))
    names = "ABC"[:draw(st.integers(1, 3))]
    square = st.lists(st.lists(EXTREME_ENTRIES, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    document = json.dumps({"dimension": n,
                           "matrices": {name: draw(square) for name in names}})
    word = "".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    tau = draw(st.just(f"periodic:{word}") | st.integers(-2, 99).map("seed:{}".format))
    x = ",".join(draw(st.lists(VECTOR_ENTRIES, min_size=n, max_size=n)))
    y = ",".join(draw(st.lists(st.sampled_from(["1", "1e-300", "1e300", "2"]),
                               min_size=n, max_size=n)))
    query = draw(st.sampled_from([
        ["validate"], ["classify"], ["eigensystem"],
        ["limit", "--word", word, "--x", x],
        ["period", "--word", word, "--x", x],
        ["cone-limit", "--word", word, "--y", y],
        ["q2", "--tau", tau, "--x", x, "--budget", "20"],
    ]))
    argv = query[:1] + ["-"] + query[1:] + ["--max-iter", "50", "--format", "machine"]
    if draw(st.booleans()):
        argv.append("--force")
    return argv, document


@settings(max_examples=100, deadline=None, derandomize=True)
@given(extreme_runs())
def test_extreme_documents_end_in_a_documented_exit(finite_lapack, run):
    argv, document = run
    code, err = run_main(argv, document)
    assert code in DOCUMENTED_EXITS, (argv, document, err)
    assert "Traceback" not in err


#: swap and averaging matrices: every limit settles within two steps, so
#: no flag string can make a run slow
SMALL_DOCUMENT = json.dumps({"dimension": 2, "matrices": {
    "A": [[0, 1], [1, 0]], "B": [["1/2", "1/2"], ["1/2", "1/2"]]}})

FLAG_TOKENS = st.sampled_from([
    "--tol", "--rho-tol", "--max-iter", "--bound", "--force", "--format",
    "machine", "human", "--word", "--x", "--y", "--tau", "--budget", "--query",
    "A", "AB", "BA", "C", "1,0", "1,2", "0", "1", "-1", "3", "1e-12", "nan",
    "inf", "1e400", "periodic:AB", "periodic:A|B", "seed:3", "seed:-1", "seed:x", "-",
    "", "limit --word AB --x 1,0", "q2 --tau periodic:AB --x 1,0", "classify",
]) | st.text(max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["validate", "analyze", *cli.QUERIES]),
       tokens=st.lists(FLAG_TOKENS, max_size=8))
def test_arbitrary_flags_end_in_a_documented_exit(finite_lapack, command, tokens):
    code, err = run_main([command, "-", *tokens], SMALL_DOCUMENT)
    assert code in DOCUMENTED_EXITS, (command, tokens, err)
    assert "Traceback" not in err

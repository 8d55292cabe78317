"""Golden machine reports: the corpus run and a fixed analyze query set.

The committed files under ``tests/golden/`` are the exact bytes the CLI
prints.  A change that alters any of them must declare why.  Regenerate
them, after such a declared change only, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import pathlib

import numpy as np
import pytest

from matword import cli, corpus

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: (golden name, corpus collection, extra flags, queries)
CASES = [
    ("example2", "example2", [], [
        "classify", "eigensystem",
        "limit --word ABB --x 2,0,2,0,0,0",
        "period --word AB --x 1,2,1,2,3,1",
        "cone-limit --word AB --y 1,2,1,2,3,1",
        "q2 --tau periodic:AB --x 2,0,2,0,0,0",
    ]),
    ("example3", "example3", [], [
        "classify", "eigensystem",
        "limit --word AB --x 3,0,0,2,0,0,0",
        "period --word ABB --x 3,0,0,2,0,1,1",
        "cone-limit --word AB --y 2,1,1,3,1,2,3",
        "q2 --tau seed:5 --x 3,0,0,2,0,0,0",
    ]),
    ("example5", "example5", [], [
        "classify", "eigensystem",
        "limit --word AB --x 2,-1,-1,2,0,0,0",
        "period --word BA --x 2,-1,-1,2,0,1,1",
        "cone-limit --word ABB --y 2,1,1,3,1,2,3",
    ]),
    ("example7", "example7", [], [
        "classify", "eigensystem",
        "limit --word AB --x 2,-1",
        "period --word BA --x 1,1",
        "cone-limit --word AB --y 2,1",
    ]),
    # the iteration cap is hit: status max_iter and exit code 4
    ("example7-max-iter", "example7", ["--max-iter", "3"], [
        "limit --word AB --x 2,-1",
        "cone-limit --word AB --y 2,1",
    ]),
]


#: a commuting lazy-walk pair of the slow-mixing benchmark (q = 6, kappa = 5),
#: ``perfbench/gen.slow_mixing_family(np.random.default_rng(2026), 4)``
#: written with ``repr`` floats; its q2 query searches q**kappa + 1 = 7777
#: prefixes, the shape of the benchmark's longest loops
SLOW_MIXING_X = "2,-1,1,0.5,-0.5,1,3,-2,1"
SLOW_MIXING_QUERIES = [
    f"limit --word AB --x {SLOW_MIXING_X}",
    f"period --word AB --x {SLOW_MIXING_X}",
    "cone-limit --word ABB --y 1,2,1,3,2,1,2,1,3",
    f"q2 --tau periodic:AAB --x {SLOW_MIXING_X}",
]


def _document(collection):
    return json.dumps({
        "dimension": collection.n,
        "matrices": {
            name: [list(row) for row in np.asarray(collection[name])]
            for name in collection.names
        },
    })


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue()


def _analyze(tmp_dir, example, flags, queries):
    path = pathlib.Path(tmp_dir) / f"{example}.json"
    path.write_text(_document(corpus.build_corpus()[example].collection))
    argv = ["analyze", str(path), "--format", "machine", *flags]
    for query in queries:
        argv += ["--query", query]
    return _run(argv)


def _analyze_slow_mixing():
    argv = ["analyze", str(GOLDEN / "slow-mixing.json"), "--format", "machine"]
    for query in SLOW_MIXING_QUERIES:
        argv += ["--query", query]
    return _run(argv)


def test_paper_examples_golden():
    code, out = _run(["paper-examples", "--format", "machine"])
    assert code == 0
    assert out == (GOLDEN / "paper-examples.txt").read_text()


@pytest.mark.parametrize("name,example,flags,queries", CASES,
                         ids=[case[0] for case in CASES])
def test_analyze_golden(tmp_path, name, example, flags, queries):
    code, out = _analyze(tmp_path, example, flags, queries)
    assert code == (4 if flags else 0)
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_slow_mixing_golden():
    code, out = _analyze_slow_mixing()
    assert code == 0
    assert out == (GOLDEN / "slow-mixing.txt").read_text()


if __name__ == "__main__":
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "paper-examples.txt").write_text(
        _run(["paper-examples", "--format", "machine"])[1])
    with tempfile.TemporaryDirectory() as tmp:
        for name, example, flags, queries in CASES:
            (GOLDEN / f"{name}.txt").write_text(
                _analyze(tmp, example, flags, queries)[1])
    (GOLDEN / "slow-mixing.txt").write_text(_analyze_slow_mixing()[1])

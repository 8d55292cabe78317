"""The tolerance policy lives in ``numeric``: no other module writes a
small threshold literal, and the report defaults read the named values.
Each LAPACK factorisation and each verdict rule (eigenvalue clustering,
root-of-unity order, point period, commuting, LC membership) runs at one
documented site, every function the benchmark's tracer patches by name
exists, and ``__all__`` lists the package's public names.  The CLI runs with numpy as its only import outside
the standard library."""

import argparse
import ast
import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import matword
import test_golden
from matword import cli, corpus, numeric, reporting
from matword.exceptions import ParseError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matword"

#: the policy module itself, and the corpus, whose frozen oracle
#: comparisons are data rather than verdicts
EXEMPT = {"numeric.py", "corpus.py"}


def small_float_literals():
    """``file:line value`` for every float literal in (0, 1e-4) outside
    the exempt modules."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0 < node.value < 1e-4):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    return found


def test_no_threshold_literal_outside_numeric():
    assert small_float_literals() == []


def einsum_calls():
    """``file:line`` for every use of ``einsum`` outside ``numeric.py``,
    the one module that fixes the summation order of products."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "numeric.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None)
            if name == "einsum":
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_einsum_outside_numeric():
    assert einsum_calls() == []


#: the one site of each verdict rule: (file, enclosing top-level
#: function, rule); a greedy clustering sweep is a ``for`` with an ``else``.
#: ``RANK_TOL`` cuts ranks in ``_rank_and_shemesh`` and decides commuting
#: in ``_commutes`` alone, for ``validate``, quasi-commuting and q2;
#: ``LC_TOL`` is ``lc_membership``'s default and q2's support cut
VERDICT_SITES = {
    ("spectral.py", "cluster", "for-else"),
    ("spectral.py", "root_of_unity_order", "ORDER_TOL"),
    ("spectral.py", "root_of_unity_exponent", "angle"),
    ("words.py", "first_period", "raise NotPeriodic"),
    ("structure.py", "_rank_and_shemesh", "RANK_TOL"),
    ("structure.py", "_commutes", "RANK_TOL"),
    ("structure.py", "_common_eigenvectors", "SLACK"),
    ("structure.py", "lc_membership", "LC_TOL"),
    ("infinite.py", "q2_certificate", "LC_TOL"),
}


def verdict_sites():
    """``(file, enclosing top-level function, rule)`` for every greedy
    clustering sweep, every use of ``ORDER_TOL``, ``angle``, ``RANK_TOL``,
    ``SLACK`` or ``LC_TOL`` and every ``raise NotPeriodic``, so each
    verdict keeps one implementation."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in ast.iter_child_nodes(tree):
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.attr if isinstance(node, ast.Attribute) else (
                    node.id if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load) else None)
                if name in ("ORDER_TOL", "angle", "RANK_TOL", "SLACK", "LC_TOL"):
                    found.add((path.name, owner, name))
                elif isinstance(node, ast.For) and node.orelse:
                    found.add((path.name, owner, "for-else"))
                elif (isinstance(node, ast.Raise) and node.exc is not None
                      and "NotPeriodic" in ast.unparse(node.exc)):
                    found.add((path.name, owner, "raise NotPeriodic"))
    return found


def test_each_verdict_rule_has_one_site():
    assert verdict_sites() == VERDICT_SITES


def test_tolerance_settings_default_to_the_named_policy():
    assert reporting.ToleranceSettings().as_dict() == {
        "tol": numeric.CONVERGENCE_TOL,
        "rho_tol": numeric.CLUSTER_TOL,
        "max_iter": numeric.MAX_ITER,
        "bound": numeric.BOUND,
    }


def test_flags_settings_and_option_keys_are_one_set():
    """The CLI setting flags, the ToleranceSettings fields and the
    accepted document options are one set of names, so no knob is
    threaded only part of the way from the command line to the report."""
    parser = argparse.ArgumentParser()
    cli._add_common_flags(parser)
    flags = {action.dest for action in parser._actions} - {"help", "force", "format"}
    fields = {field.name for field in dataclasses.fields(reporting.ToleranceSettings)}
    with pytest.raises(ParseError, match="accepted keys are ") as caught:
        reporting.parse_collection_document(
            {"dimension": 1, "matrices": {"A": [[1]]}, "options": {"?": 1}})
    accepted = set(str(caught.value).split("accepted keys are ")[1].split(", "))
    assert flags == fields == accepted


#: the one site of each LAPACK factorisation: (file, function, name)
LAPACK_SITES = {
    ("numeric.py", "_nullspaces", "svd"),
    ("spectral.py", "_eig", "eig"),
    ("spectral.py", "_eig", "eigvals"),
    ("structure.py", "lc_membership", "lstsq"),
}
LAPACK = {"svd", "eig", "eigvals", "eigh", "eigvalsh", "lstsq", "qr", "cholesky",
          "solve", "inv", "pinv", "matrix_rank", "det", "slogdet", "cond"}


def lapack_calls():
    """``(file, enclosing top-level function, name)`` for every
    ``linalg.<factorisation>`` reference, and ``(file, None, module)`` for
    an import from ``numpy.linalg``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in ast.iter_child_nodes(tree):
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in LAPACK
                        and ast.unparse(node.value).endswith("linalg")):
                    found.add((path.name, owner, node.attr))
                elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    found.add((path.name, None, node.module))
    return found


def test_lapack_factorisations_run_only_at_their_sites():
    assert lapack_calls() == LAPACK_SITES


def test_traced_benchmark_layers_resolve():
    """Every function the benchmark's tracer patches by name exists, so a
    rename in the package cannot silently break ``perfbench/run.py --trace``."""
    path = SRC.parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [entry[:2] for entry in layers.SPANNED + layers.COUNTED]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"matword.{module}"),
                                       attr, None))]
    assert missing == []


def test_all_lists_every_public_name():
    """``__all__`` is exactly the package's public names that are not
    submodules, so ``from matword import *`` gives every exception and
    result class.  The namespace is lazy, so every name is resolved first;
    each then comes from the submodule the export table names."""
    for name in matword.__all__:
        getattr(matword, name)
    public = {name for name, value in vars(matword).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(matword.__all__) == sorted(public)
    assert set(matword.__all__) <= set(dir(matword))
    for module, names in matword._EXPORTS.items():
        for name in names:
            assert getattr(matword, name).__module__ == f"matword.{module}", name


#: a fresh interpreter that refuses every import outside the standard
#: library, numpy and matword, then runs the corpus and the analyze
#: command line it is given, printing each exit code
NUMPY_ONLY = """
import importlib.abc, io, sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "matword"}


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())
from matword import cli

for argv in (["paper-examples"], sys.argv[1:]):
    print(cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()))
"""


def _golden_document(tmp_path):
    """Path of the first golden case's document, written under ``tmp_path``."""
    example = test_golden.CASES[0][1]
    path = tmp_path / f"{example}.json"
    path.write_text(test_golden._document(corpus.build_corpus()[example].collection))
    return str(path)


def _fresh_interpreter(script, *args):
    """Standard output of ``script`` run with ``args`` in a new interpreter
    that imports matword from this checkout."""
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), pythonpath])))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_on_numpy_alone(tmp_path):
    """README and pyproject name numpy as the only runtime dependency."""
    _, _, flags, queries = test_golden.CASES[0]
    argv = ["analyze", _golden_document(tmp_path), *flags]
    for query in queries:
        argv += ["--query", query]
    assert _fresh_interpreter(NUMPY_ONLY, *argv).split() == ["0", "0"]


#: a fresh interpreter that imports the bare package, then runs
#: ``validate`` and a classify + eigensystem ``analyze`` on the document
#: it is given, printing the matword submodules (and numpy) loaded after
#: the import and after the runs
IMPORT_SET = """
import io, json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name.startswith("matword.") or name == "numpy")

import matword
bare = loaded()
from matword import cli
codes = [cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()) for argv in (
    ["validate", sys.argv[1]],
    ["analyze", sys.argv[1], "--query", "classify", "--query", "eigensystem"])]
print(json.dumps({"bare": bare, "codes": codes, "cli": loaded()}))
"""


def test_cli_loads_only_what_its_command_needs(tmp_path):
    """``import matword`` loads no submodule and not numpy, and a
    classify/eigensystem run never imports the modules of the word,
    cone-map, q2 and corpus queries: each fresh CLI process would pay
    for compiling them."""
    seen = json.loads(_fresh_interpreter(IMPORT_SET, _golden_document(tmp_path)))
    assert seen["bare"] == []
    assert seen["codes"] == [0, 0]
    assert "matword.structure" in seen["cli"]
    unused = {"matword.words", "matword.conemaps", "matword.infinite", "matword.corpus"}
    assert unused.isdisjoint(seen["cli"])

"""The tolerance policy lives in ``numeric``: no other module writes a
small threshold literal, and the report defaults read the named values."""

import ast
import pathlib

from matword import numeric, reporting

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


def test_tolerance_settings_default_to_the_named_policy():
    assert reporting.ToleranceSettings().as_dict() == {
        "tol": numeric.CONVERGENCE_TOL,
        "modulus_tol": numeric.CLUSTER_TOL,
        "rho_tol": numeric.CLUSTER_TOL,
        "max_iter": numeric.MAX_ITER,
        "bound": numeric.BOUND,
    }

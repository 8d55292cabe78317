"""The benchmark's request streams run against the package in process.

For each workload the first round at seed 1 goes through the execution
and the checks of ``perfbench/run.py``: CLI requests through ``cli.main``
with standard input swapped, library requests through their ``call`` and
``check`` on the module namespace the benchmark builds.  A change that
breaks a workload's calls fails here, not only in the benchmark run.
"""

import importlib.util
import os
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_runner():
    """``perfbench/run.py`` imported by path; the BLAS pinning it applies
    to ``os.environ`` on import is undone, so later subprocesses see the
    environment unchanged."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(runner)
    return runner


RUN = load_runner()
PROGRAM = RUN.load_program()


@pytest.mark.parametrize("workload", sorted(RUN.WL.WORKLOADS))
def test_first_round_at_seed_1_passes_its_checks(workload):
    batch = next(RUN.WL.WORKLOADS[workload](np.random.default_rng(1)))
    assert batch
    for req in batch:
        if workload in RUN.WL.CLI_WORKLOADS:
            _, code, out, err = RUN.run_cli_inprocess(PROGRAM, req)
            assert code == 0 and "Traceback" not in err, (req.label, err)
            failure = RUN.check_cli(req, code, out, err)
        else:
            _, results, failure = RUN.run_lib(PROGRAM, req)
            failure = failure or RUN.check_lib(req, results)
        assert failure is None, (req.label, failure)

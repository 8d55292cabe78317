"""matword benchmark: one named workload, one seed, every metric.

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The program under test is the ``matword``
package in ``src/``, imported from source.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is a separate run that
replays the workload in-process, untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and the run's details.

Load is a closed loop with one client and no think time: the next request
starts when the previous one has finished.  BLAS is pinned to one thread
here and in every child process.
"""

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads its BLAS

import argparse  # noqa: E402
import contextlib
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import layers as TR
import workloads as WL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 60      # an import-only child
REQUEST_TIMEOUT = 60    # one CLI request

END_TO_END = [
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def environment(seed):
    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": config.get("name"), "version": config.get("version")}
    except Exception:  # older numpy: no dict mode; the record stays partial
        pass
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in PINNED},
        "commit": _commit(),
        "seed": seed,
    }


def _commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# fresh interpreters


def measure_setup():
    """Median seconds from launching an interpreter until ``import matword``
    returns.  The child reads the same monotonic clock as the parent; one
    warm-up launch first fills the bytecode and page caches."""
    code = "import time, matword; print(repr(time.perf_counter()))"
    samples = []
    for rep in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"import matword failed:\n{proc.stderr}")
        if rep:
            samples.append(float(proc.stdout.strip()) - start)
    return statistics.median(samples)


def measure_importtime():
    totals, scipys = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import matword"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"import matword failed:\n{proc.stderr}")
        total, scipy_s = TR.parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy_s)
    return {"total": statistics.median(totals), "scipy": statistics.median(scipys)}


# ---------------------------------------------------------------------------
# executing requests


def run_cli_subprocess(req):
    """One fresh ``python -m matword.cli`` process: (seconds, code, out, err).
    A process that outlives REQUEST_TIMEOUT is killed and reaped, and the
    request fails."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "matword.cli"] + req.argv,
                              input=req.stdin, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=REQUEST_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", f"timed out after {REQUEST_TIMEOUT} s"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(mw, req):
    """``cli.main`` in this process, standard input swapped for the document."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(req.stdin or "")
    start = time.perf_counter()
    try:
        code = mw.cli.main(req.argv, stdout=out, stderr=err)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def check_cli(req, code, out, err):
    """None when the request succeeded, else the reason it failed."""
    if "Traceback" in err:
        return f"traceback on stderr: {err.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not a JSON report"
    try:
        req.check(report)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks an expected field: {exc!r}"
    except Exception as exc:
        return str(exc)
    return None


def run_lib(mw, req):
    """One family's analysis: (seconds, results or None, failure or None)."""
    start = time.perf_counter()
    try:
        results = req.call(mw)
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, results, None


def check_lib(req, results):
    try:
        req.check(results)
    except Exception as exc:
        return str(exc)
    return None


def load_program():
    """The matword modules, imported from the checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import importlib
    names = ["cli", "collection", "conemaps", "corpus", "infinite", "numeric",
             "reporting", "spectral", "structure", "words"]
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"matword.{name}") for name in names})


# ---------------------------------------------------------------------------
# runs


def latency_stats(latencies):
    """Median, and the highest percentile with at least ten samples beyond
    it (the 11th largest sample) with that percentile and the count."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count > 10:
        tail, pct = ordered[count - 11], 100.0 * (count - 10) / count
    else:
        tail, pct = ordered[-1], 100.0
    return statistics.median(ordered), tail, pct, count


class Run:
    """Latencies, failures and outputs of one pass over the requests."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.skipped = 0
        self.outputs = []

    def record(self, req, seconds, failure, output=None):
        self.latencies.append(seconds)
        self.outputs.append(output)
        self.skipped += getattr(req, "skipped", 0)
        if failure is not None:
            self.failures.append(f"{req.label}: {failure}")


def execute(workload, req, mw, run, inprocess):
    if workload in WL.CLI_WORKLOADS:
        if inprocess:
            seconds, code, out, err = run_cli_inprocess(mw, req)
        else:
            seconds, code, out, err = run_cli_subprocess(req)
        run.record(req, seconds, check_cli(req, code, out, err), out)
    else:
        seconds, results, failure = run_lib(mw, req)
        run.record(req, seconds, failure or check_lib(req, results))


def timed_pass(workload, stream, mw, seconds):
    """Whole rounds until ``seconds`` have passed."""
    run = Run()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for req in next(stream):
            execute(workload, req, mw, run, inprocess=False)
    return run


def end_to_end(workload, seed, seconds):
    import numpy as np

    mw = None if workload in WL.CLI_WORKLOADS else load_program()
    setup = measure_setup()
    stream = WL.WORKLOADS[workload](np.random.default_rng(seed))
    warm = Run()
    execute(workload, next(stream)[0], mw, warm, inprocess=False)
    run = timed_pass(workload, stream, mw, seconds)
    run.failures[:0] = warm.failures

    who = resource.RUSAGE_CHILDREN if mw is None else resource.RUSAGE_SELF
    p50, tail, pct, count = latency_stats(run.latencies)
    attempted = len(run.latencies) + len(warm.latencies)
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "throughput_rps": len(run.latencies) / sum(run.latencies),
        "success_rate": 1.0 - len(run.failures) / attempted,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": setup,
    }
    details = {"tail_percentile": pct, "samples": count,
               "error_rate": len(run.failures) / attempted,
               "q2_skipped": run.skipped}
    return values, attempted, run.failures, details


def traced(workload, seed, seconds):
    """Each request runs untraced and then traced, back to back, so the
    overhead ratio compares the same work under the same machine load."""
    import numpy as np

    mw = load_program()
    imports = measure_importtime()
    stream = WL.WORKLOADS[workload](np.random.default_rng(seed))
    warm = Run()
    execute(workload, next(stream)[0], mw, warm, inprocess=True)

    tracer = TR.Tracer()
    plain, spans = Run(), Run()
    labels = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for req in next(stream):
            execute(workload, req, mw, plain, inprocess=True)
            tracer.request = len(labels)
            labels.append(req.label)
            restore = tracer.install(vars(mw))
            try:
                execute(workload, req, mw, spans, inprocess=True)
            finally:
                restore()
            if plain.outputs[-1] != spans.outputs[-1]:
                spans.failures.append(f"{req.label}: machine report differs with tracing on")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")

    count = len(plain.latencies)
    overhead = sum(spans.latencies) / sum(plain.latencies)
    values = TR.layer_metrics(tracer, count, plain.skipped, imports, overhead)
    details = {"requests": count, "untraced_s": sum(plain.latencies),
               "traced_s": sum(spans.latencies), "spans": len(tracer.spans),
               "validate_by_request": validate_by_label(tracer, labels)}
    return values, 1 + 2 * count, warm.failures + plain.failures + spans.failures, details


def validate_by_label(tracer, labels):
    """Mean seconds in ``reporting.validate`` and in the Shemesh subspace
    per request label, for the labels that validate at all."""
    validate = tracer.per_request("reporting.validate")
    shemesh = tracer.per_request("structure.shemesh_subspace")
    grouped = {}
    for request, label in enumerate(labels):
        if request in validate:
            row = grouped.setdefault(label, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += validate[request]
            row[2] += shemesh.get(request, 0.0)

    def natural(label):
        return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", label)]

    return {label: {"validate_s": grouped[label][1] / grouped[label][0],
                    "shemesh_s": grouped[label][2] / grouped[label][0]}
            for label in sorted(grouped, key=natural)}


def result_line(values, units, attempted, failures):
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def run_workload(args):
    if args.trace:
        units = {name: unit for name, unit, _, _ in TR.PER_LAYER}
        values, attempted, failures, details = traced(args.workload, args.seed, args.seconds)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values, attempted, failures, details = end_to_end(args.workload, args.seed,
                                                          args.seconds)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(args.seed), "details": details}))
    print(result_line(values, units, attempted, failures))


# ---------------------------------------------------------------------------
# self-test


def self_test():
    """Every workload, both modes, one second each: every metric named in
    BENCHMARK.json is present and every check passes.  No timing bound."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    expect_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if expect_e2e != END_TO_END or expect_layer != [m[:3] for m in TR.PER_LAYER]:
        print("BENCHMARK.json metrics differ from run.py/layers.py", file=sys.stderr)
        ok = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace_flag, expected in ((0, END_TO_END), (1, TR.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace_flag)],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                result = {}
            names = set(result.get("metrics", {}))
            missing = sorted({m[0] for m in expected} - names)
            good = proc.returncode == 0 and result.get("correct") is True and not missing
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace_flag} "
                  f"attempted={result.get('attempted')} missing={missing}")
            if not good:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WL.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "matword" / "__init__.py").is_file():
        print(f"matword sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

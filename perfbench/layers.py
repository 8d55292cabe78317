"""Per-layer tracing for the benchmark's traced run.

The tracer patches the public functions of the ``matword`` modules with
timing wrappers, from outside the package: the modules call each other
through module attributes (``words.limit_point``, ``numeric.mat_mul``), so
a patched attribute also catches calls made inside the package.  Nothing
under ``src/`` is edited.

Each wrapped call becomes a span (name, start, end, parent span, request
id).  Spans stay in memory and are written out once, when the run ends.
Hot kernels get a call count and no span.  A span's self time is its
duration minus the time its child spans cover.
"""

import functools
import json
import re
import time
from collections import defaultdict

# extra counters: fn(args, kwargs, result) -> number, summed per name


def _iterations(args, kwargs, result):
    return result.iterations


def _q2_prefixes(args, kwargs, result):
    # the budget q2_certificate used; None means its own default
    budget = kwargs.get("search_budget", args[3] if len(args) > 3 else None)
    if budget is None:
        from matword import infinite
        budget = min(result.q ** result.kappa + 1, infinite.MAX_BUDGET)
    return int(budget)


def _q2_useful(args, kwargs, result):
    return len(result.p_gammas)


def _rows(args, kwargs, result):
    return args[0].shape[0]


#: (module, function, extra counters by suffix) wrapped with a span
SPANNED = [
    ("cli", "main", {}),
    ("reporting", "load_collection", {}),
    ("reporting", "validate", {}),
    ("reporting", "dumps_machine", {}),
    ("corpus", "run_paper_examples", {}),
    ("structure", "shemesh_subspace", {}),
    ("structure", "classify_pair", {}),
    ("structure", "is_quasi_commuting", {}),
    ("structure", "common_eigenvectors", {}),
    ("spectral", "eigendecompose", {}),
    ("spectral", "peripheral_period", {}),
    ("spectral", "spectral_radius", {}),
    ("words", "global_period", {}),
    ("words", "limit_point", {"iterations": _iterations}),
    ("words", "point_period", {}),
    ("conemaps", "cone_limit", {"iterations": _iterations}),
    ("conemaps", "cone_point_period", {}),
    ("infinite", "q2_certificate", {"prefixes": _q2_prefixes, "useful": _q2_useful}),
    ("numeric", "mat_power", {}),
    ("numeric", "rank_and_nullspace", {"rows": _rows}),
]

#: hot kernels: counted, never spanned
COUNTED = [("numeric", "mat_mul")]


class Tracer:
    """Span and counter store for one traced run (single-threaded)."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request]
        self.counts = defaultdict(float)
        self._stack = []
        self.request = None

    def span(self, name, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, self.request]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            counts[name + ".calls"] += 1
            for suffix, measure in extra.items():
                counts[f"{name}.{suffix}"] += measure(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules):
        """Patch every listed function; returns a callable that undoes it."""
        saved = []
        for mod_name, attr, extra in SPANNED:
            mod = modules[mod_name]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.span(f"{mod_name}.{attr}", getattr(mod, attr), extra))
        for mod_name, attr in COUNTED:
            mod = modules[mod_name]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.counter(f"{mod_name}.{attr}", getattr(mod, attr)))

        def restore():
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

        return restore

    def totals(self):
        """name -> (inclusive seconds, self seconds)."""
        children = defaultdict(list)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += duration
            own[name] += duration - _covered(children.get(idx, ()))
        return inclusive, own

    def per_request(self, name):
        """request id -> inclusive seconds in spans called ``name``."""
        out = defaultdict(float)
        for span_name, start, end, _, request in self.spans:
            if span_name == name:
                out[request] += end - start
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, what it should move)

PER_LAYER = [
    ("import.total_s", "s", "lower",
     "setup_s on every workload; latency_p50_s on cli-corpus"),
    ("import.scipy_s", "s", "lower",
     "setup_s on every workload; latency_p50_s on cli-corpus"),
    ("cli.main.self_s", "s/req", "lower", "latency_p50_s on cli-corpus"),
    ("cli.requests", "count", "higher", "latency_p50_s on cli-corpus"),
    ("reporting.load_collection_s", "s/req", "lower", "latency_p50_s on cli-corpus"),
    ("reporting.validate_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling; latency_p50_s on cli-corpus"),
    ("reporting.validate.calls", "1/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("reporting.dumps_machine_s", "s/req", "lower", "latency_p50_s on cli-corpus"),
    ("corpus.run_paper_examples_s", "s/req", "lower", "latency_p50_s on cli-corpus"),
    ("structure.shemesh_subspace_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("structure.shemesh_subspace.calls", "1/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("structure.classify_pair.self_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("structure.is_quasi_commuting_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("structure.common_eigenvectors_s", "s/req", "lower",
     "latency_p50_s on commuting-dynamics"),
    ("structure.common_eigenvectors.calls", "1/req", "lower",
     "latency_p50_s on commuting-dynamics"),
    ("spectral.eigendecompose_s", "s/req", "lower",
     "latency_p50_s and throughput_rps on commuting-dynamics"),
    ("spectral.eigendecompose.calls", "1/req", "lower",
     "latency_p50_s and throughput_rps on commuting-dynamics"),
    ("spectral.peripheral_period_s", "s/req", "lower",
     "latency_p50_s and throughput_rps on commuting-dynamics"),
    ("spectral.spectral_radius_s", "s/req", "lower",
     "latency_p50_s and throughput_rps on cli-scaling"),
    ("spectral.spectral_radius.calls", "1/req", "lower",
     "latency_p50_s and throughput_rps on cli-scaling"),
    ("words.global_period_s", "s/req", "lower", "latency_p50_s on commuting-dynamics"),
    ("words.global_period.calls", "1/req", "lower",
     "latency_p50_s on commuting-dynamics"),
    ("words.limit_point_s", "s/req", "lower", "throughput_rps on slow-mixing"),
    ("words.limit_point.iterations", "1/req", "lower", "throughput_rps on slow-mixing"),
    ("words.point_period_s", "s/req", "lower", "throughput_rps on slow-mixing"),
    ("conemaps.cone_limit_s", "s/req", "lower",
     "throughput_rps on slow-mixing; latency_p50_s on commuting-dynamics"),
    ("conemaps.cone_limit.iterations", "1/req", "lower",
     "throughput_rps on slow-mixing; latency_p50_s on commuting-dynamics"),
    ("conemaps.cone_point_period_s", "s/req", "lower",
     "throughput_rps on slow-mixing; latency_p50_s on commuting-dynamics"),
    ("infinite.q2_certificate_s", "s/req", "lower",
     "latency_tail_s on commuting-dynamics; throughput_rps on slow-mixing"),
    ("infinite.q2_certificate.prefixes", "1/req", "lower",
     "latency_tail_s on commuting-dynamics; throughput_rps on slow-mixing"),
    ("infinite.q2_certificate.useful_ratio", "ratio", "higher",
     "latency_tail_s on commuting-dynamics; throughput_rps on slow-mixing"),
    ("infinite.q2_certificate.skipped", "ratio", "lower",
     "coverage of q2 on commuting-dynamics (families whose budget is capped)"),
    ("numeric.mat_mul.calls", "1/req", "lower", "throughput_rps on slow-mixing"),
    ("numeric.mat_power_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("numeric.mat_power.calls", "1/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("numeric.rank_and_nullspace_s", "s/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("numeric.rank_and_nullspace.rows", "1/req", "lower",
     "latency_tail_s and throughput_rps on cli-scaling"),
    ("trace.overhead_ratio", "ratio", "lower",
     "nothing: traced wall time over untraced wall time of the same requests"),
]


def layer_metrics(tracer, requests, skipped, imports, overhead):
    """The per-layer metric values of one traced run.

    Times and counts are per request; ``imports`` holds the median
    ``-X importtime`` figures of fresh interpreters.
    """
    inclusive, own = tracer.totals()
    counts = tracer.counts
    per = 1.0 / max(requests, 1)
    prefixes = counts["infinite.q2_certificate.prefixes"]
    values = {
        "import.total_s": imports["total"],
        "import.scipy_s": imports["scipy"],
        "cli.main.self_s": own["cli.main"] * per,
        "cli.requests": counts["cli.main.calls"],
        "structure.classify_pair.self_s": own["structure.classify_pair"] * per,
        "infinite.q2_certificate.useful_ratio":
            counts["infinite.q2_certificate.useful"] / prefixes if prefixes else 0.0,
        "infinite.q2_certificate.skipped": skipped * per,
        "trace.overhead_ratio": overhead,
    }
    for name, _, _, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith("_s"):
            values[name] = inclusive[name[:-2]] * per
        else:
            values[name] = counts[name] * per
    return values


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def parse_importtime(text):
    """(matword cumulative s, scipy s) from ``-X importtime`` output.

    The scipy figure sums the cumulative time of every outermost scipy
    import, i.e. one not nested inside another scipy import.  Lines come
    in post-order (children before their parent), so they are walked in
    reverse, where each parent precedes its children.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total = scipy = 0
    stack = []  # (depth, inside scipy)
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == "matword" and depth == 0:
            total = cumulative
        stack.append((depth, inside or is_scipy))
    return total * 1e-6, scipy * 1e-6

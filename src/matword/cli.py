"""Command-line entry point.

One input document per run (path or ``-`` for standard input), one or
more queries, one report.  Words are strings of matrix names with the
leftmost letter applied first; the report always spells out the factor
order of the product so the right-to-left convention is visible.

Exit codes: 0 success, 2 input error, 3 hypotheses not met (override
with --force), 4 non-convergence or exhausted search budget.
"""

import argparse
import shlex
import sys

import numpy as np

from . import (__version__, conemaps, corpus, infinite, numeric, reporting,
               structure, words)
from .exceptions import MatwordError, NotPeriodic, ParseError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESES = 3
EXIT_NONCONVERGENCE = 4


def _word_from_arg(text, collection):
    try:
        return words.Word.from_names(text, collection)
    except MatwordError as exc:
        raise ParseError(f"bad word {text!r}: {exc}") from exc


def _tau_from_arg(text, collection):
    if text.startswith("periodic:"):
        body = text[len("periodic:"):]
        pre, _, cyc = body.rpartition("|")
        try:
            return infinite.InfiniteWord.from_names(cyc, collection,
                                                    preperiod_text=pre)
        except MatwordError as exc:
            raise ParseError(f"bad infinite word {text!r}: {exc}") from exc
    if text.startswith("seed:"):
        try:
            seed = int(text[len("seed:"):])
        except ValueError as exc:
            raise ParseError(f"bad seed in {text!r}") from exc
        return infinite.InfiniteWord.from_seed(seed, collection.N)
    raise ParseError(f"infinite word {text!r} must be periodic:... or seed:...")


def _factor_order(word, collection):
    names = [collection.names[l] for l in word.letters]
    return " ".join(f"A_{name}" for name in reversed(names))


def _vector_arg(text, n, what):
    v = numeric.parse_vector(text)
    if v.shape[0] != n:
        raise ParseError(f"{what} has {v.shape[0]} entries, expected {n}")
    return v


class _QueryContext:
    """Shared analysis state for one input document: the validation
    ``main`` already ran, and the lazily computed common eigensystem."""

    def __init__(self, collection, settings, validation):
        self.collection = collection
        self.settings = settings
        self.validation = validation
        self._system = None

    @property
    def system(self):
        if self._system is None:
            self._system = structure.common_eigenvectors(
                self.collection, tol=self.settings.modulus_tol
            )
        return self._system

    def word_period(self, word):
        return words.word_period(self.collection, word,
                                 rho_tol=self.settings.rho_tol)


def query_limit(ctx, args):
    word = _word_from_arg(args.word, ctx.collection)
    x = _vector_arg(args.x, ctx.collection.n, "--x")
    cert = ctx.word_period(word)
    result = words.limit_point(
        ctx.collection, word, x, cert.q,
        tol=ctx.settings.tol, max_iter=ctx.settings.max_iter,
        bound=ctx.settings.bound,
    )
    fragment = {
        "query": "limit",
        "word": word.names(ctx.collection),
        "factor_order": _factor_order(word, ctx.collection),
        "x": reporting.vector_to_doc(x),
        "q": cert.q,
        "q_r": dict(zip([ctx.collection.names[l] for l in cert.letters], cert.q_r)),
        "status": result.status,
        "iterations": result.iterations,
        "residual": result.residual,
        "tolerances": ctx.settings.as_dict(),
    }
    ok = result.converged
    if ok:
        fragment["xi"] = reporting.vector_to_doc(result.xi)
        M = words.word_product(ctx.collection, word)
        try:
            fragment["period"] = words.point_period(M, result.xi, cert.q,
                                                    tol=ctx.settings.modulus_tol)
        except NotPeriodic as exc:
            fragment["period_error"] = str(exc)
            ok = False
    return fragment, ok


def query_period(ctx, args):
    fragment, ok = query_limit(ctx, args)
    fragment["query"] = "period"
    return fragment, ok


def query_cone_limit(ctx, args):
    word = _word_from_arg(args.word, ctx.collection)
    y = _vector_arg(args.y, ctx.collection.n, "--y")
    if np.any(y <= 0):
        raise ParseError("--y must be strictly positive (interior point)")
    cert = ctx.word_period(word)
    result = conemaps.cone_limit(
        ctx.collection, word, y, cert.q,
        tol=ctx.settings.tol, max_iter=ctx.settings.max_iter,
        bound=ctx.settings.bound, system=ctx.system,
    )
    fragment = {
        "query": "cone-limit",
        "word": word.names(ctx.collection),
        "factor_order": _factor_order(word, ctx.collection),
        "y": reporting.vector_to_doc(y),
        "q": cert.q,
        "status": result.status,
        "iterations": result.iterations,
        "residual": result.residual,
        "path_agreement": result.path_agreement,
        "tolerances": ctx.settings.as_dict(),
    }
    if result.converged:
        fragment["eta"] = reporting.vector_to_doc(result.eta)
        period = conemaps.cone_point_period(ctx.collection, word, result.eta,
                                            cert.q, tol=ctx.settings.modulus_tol)
        fragment["period"] = period
    return fragment, result.converged


def query_classify(ctx, args):
    return {
        "query": "classify",
        "classification": ctx.validation["classification"],
        "pair_classifications": ctx.validation["pair_classifications"],
        "tolerances": ctx.settings.as_dict(),
    }, True


def query_eigensystem(ctx, args):
    fragment = {
        "query": "eigensystem",
        "tolerances": ctx.settings.as_dict(),
    }
    fragment.update(reporting.eigensystem_to_doc(ctx.system))
    return fragment, True


def query_q2(ctx, args):
    tau = _tau_from_arg(args.tau, ctx.collection)
    x = _vector_arg(args.x, ctx.collection.n, "--x")
    if args.budget is not None and args.budget < 1:
        raise ParseError(f"--budget {args.budget} must be at least 1")
    cert = infinite.q2_certificate(
        ctx.collection, tau, x,
        search_budget=args.budget,
        tol=ctx.settings.modulus_tol, limit_tol=ctx.settings.tol,
    )
    fragment = {
        "query": "q2",
        "tau": tau.description(),
        "x": reporting.vector_to_doc(x),
        "q": cert.q,
        "kappa": cert.kappa,
        "m": cert.m,
        "support": list(cert.support),
        "p_gammas": list(cert.p_gammas),
        "lambda_table": [[int(v) for v in row] for row in cert.lambdas],
        "residues": [[int(v) for v in row] for row in cert.residues],
        "all_residues_zero": bool((cert.residues == 0).all()) if cert.residues.size else True,
        "tolerances": ctx.settings.as_dict(),
    }
    return fragment, fragment["all_residues_zero"]


_WORD = ("--word", {"required": True,
                   "help": "string of matrix names, leftmost applied first"})
_X = ("--x", {"required": True, "help": "comma-separated vector"})

#: query name -> (handler, help, argument specs); both the subcommands and
#: the ``analyze --query`` strings are parsed from these specs
QUERIES = {
    "limit": (query_limit, "limit of x under q-blocks of a word product",
              [_WORD, _X]),
    "period": (query_period, "limit and exact period of the limit point",
               [_WORD, _X]),
    "cone-limit": (query_cone_limit, "limit under the exp/log conjugated map", [
        _WORD,
        ("--y", {"required": True,
                 "help": "comma-separated strictly positive vector"}),
    ]),
    "classify": (query_classify, "commutativity classification", []),
    "eigensystem": (query_eigensystem,
                    "common eigenvectors and eigenvalue table", []),
    "q2": (query_q2, "congruence certificate along an infinite word", [
        ("--tau", {"required": True,
                   "help": "infinite word: periodic:<letters>, "
                           "periodic:<pre>|<cycle>, or seed:<int>"}),
        _X,
        ("--budget", {"type": int, "default": None,
                      "help": "prefix evaluation budget (default q**kappa + 1)"}),
    ]),
}


def _add_query_args(parser, name):
    for flag, spec in QUERIES[name][2]:
        parser.add_argument(flag, **spec)


def _add_common_flags(parser):
    parser.add_argument("--tol", type=float, default=None,
                        help="iteration convergence tolerance (default 1e-10)")
    parser.add_argument("--rho-tol", type=float, default=None, dest="rho_tol",
                        help="acceptance band for spectral radius one (default 1e-8)")
    parser.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                        help="cap on q-block iterations (default 100000)")
    parser.add_argument("--bound", type=float, default=None,
                        help="divergence threshold on the orbit norm (default 1e12)")
    parser.add_argument("--force", action="store_true",
                        help="continue even when the hypotheses are not met")
    parser.add_argument("--format", choices=("human", "machine"),
                        default="human", help="report format")


def _document_subparser(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("input", help="path of the collection document, or - for stdin")
    _add_common_flags(p)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matword",
        description="Analyze word-indexed products of nonnegative matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _document_subparser(sub, "validate", "check input and hypotheses")
    for name, (_, help_text, _) in QUERIES.items():
        _add_query_args(_document_subparser(sub, name, help_text), name)

    analyze = sub.add_parser("analyze", help="run several queries in one report")
    analyze.add_argument("input", help="path of the collection document, or -")
    analyze.add_argument("--query", action="append", default=[],
                         help="quoted query, e.g. \"limit --word AB --x 1,0\"; "
                              "repeatable")
    _add_common_flags(analyze)

    pe = sub.add_parser("paper-examples",
                        help="run the built-in regression corpus")
    pe.add_argument("--filter", default=None,
                    help="only run examples whose name contains this string")
    pe.add_argument("--format", choices=("human", "machine"), default="human")
    return parser


def _parse_query_string(text):
    try:
        tokens = shlex.split(text)
    except ValueError as exc:
        raise ParseError(f"bad query {text!r}: {exc}") from None
    if not tokens or tokens[0] not in QUERIES:
        raise ParseError(
            f"unknown query {text!r}; expected one of {sorted(QUERIES)}"
        )
    qp = argparse.ArgumentParser(prog=tokens[0], add_help=False)
    _add_query_args(qp, tokens[0])
    try:
        args = qp.parse_args(tokens[1:])
    except SystemExit:
        raise ParseError(f"bad query arguments in {text!r}") from None
    return tokens[0], args


def _emit(report, fmt, stream):
    if fmt == "machine":
        stream.write(reporting.dumps_machine(report) + "\n")
    else:
        stream.write("\n".join(reporting.render_human(report)) + "\n")


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "paper-examples":
        results = corpus.run_paper_examples(name_filter=args.filter)
        report = {
            "tool_version": __version__,
            "corpus": [
                {"example": name, "passed": passed, "detail": detail}
                for name, passed, detail in results
            ],
        }
        _emit(report, args.format, stdout)
        failures = [name for name, passed, _ in results if not passed]
        if failures:
            stderr.write(f"first failing example: {failures[0]}\n")
            return 1
        if not results:
            stderr.write(f"no example matches filter {args.filter!r}\n")
            return EXIT_INPUT
        return EXIT_OK

    try:
        source = sys.stdin if args.input == "-" else args.input
        collection, options = reporting.load_collection(source)
        settings = reporting.settings_from_options(options, {
            "tol": args.tol,
            "rho_tol": args.rho_tol,
            "max_iter": args.max_iter,
            "bound": args.bound,
        })
    except (MatwordError, OSError) as exc:
        stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT

    validation = reporting.validate(collection, settings)
    report = reporting.base_report(collection, settings, validation)

    if not validation["hypotheses_met"] and not args.force:
        report["verdict"] = "HypothesesNotMet"
        _emit(report, args.format, stdout)
        stderr.write(
            "hypotheses not met "
            f"(classification: {validation['classification']}); "
            "use --force to analyze anyway\n"
        )
        return EXIT_HYPOTHESES

    if args.command == "validate":
        report["verdict"] = "ok" if validation["hypotheses_met"] else "forced"
        _emit(report, args.format, stdout)
        return EXIT_OK

    if args.command == "analyze":
        requested = []
        try:
            for text in args.query:
                requested.append(_parse_query_string(text))
        except ParseError as exc:
            stderr.write(f"input error: {exc}\n")
            return EXIT_INPUT
    else:
        requested = [(args.command, args)]

    ctx = _QueryContext(collection, settings, validation)
    exit_code = EXIT_OK
    for name, qargs in requested:
        try:
            fragment, ok = QUERIES[name][0](ctx, qargs)
        except ParseError as exc:
            stderr.write(f"input error: {exc}\n")
            return EXIT_INPUT
        except MatwordError as exc:
            # HypothesesNotMet, BudgetExhausted, NotRootOfUnity, NotPeriodic,
            # SpectralRadiusViolation, ... : the analysis could not finish
            report["queries"].append({
                "query": name,
                "error": f"{type(exc).__name__}: {exc}",
            })
            exit_code = EXIT_NONCONVERGENCE
            continue
        report["queries"].append(fragment)
        if not ok:
            exit_code = EXIT_NONCONVERGENCE
    _emit(report, args.format, stdout)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

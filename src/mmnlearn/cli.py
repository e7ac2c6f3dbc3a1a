"""Command line interface.

    mmnlearn learn --bench binctr:5 --algo ccwl --ca-e eq --ca-r dinf
    mmnlearn bench export binctr:5 out.mmn
    mmnlearn suite --preset ci

Exit codes: 0 success, 2 validation failed, 3 timeout, 4 config or learner
error, or an output path that cannot be written (checked before learning;
the report is still printed when a learner error ends an instance).
Set MMNLEARN_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import benchmarks, serialize
from .componentwise import CaBlowupError, CaParams
from .harness import (
    ALGORITHMS,
    ERROR,
    EqTestConfig,
    ExperimentConfig,
    INCORRECT,
    REPORT_FORMATS,
    TIMEOUT,
    ci_profile,
    report,
    run_batch,
    table1_profile,
)

log = logging.getLogger("mmnlearn")
_EXIT_CODES = {ERROR: 4, TIMEOUT: 3, INCORRECT: 2}


def _setup_logging():
    level = os.environ.get("MMNLEARN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_learn_args(p: argparse.ArgumentParser):
    p.add_argument("--bench", required=True, help="benchmark spec, e.g. binctr:5")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--ca-e", default="eq", help="abstraction: eq | eqk:<k> | uni")
    p.add_argument("--ca-r", default="dinf", help="bound: dinf | d:<n> | dsum | dmax | dmin")
    p.add_argument("--eq-words", type=int, default=EqTestConfig.words_per_eq)
    p.add_argument("--eq-len", type=int, default=EqTestConfig.word_length)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--instances", type=int, default=None,
                   help="default 10 for random families, else 1")
    p.add_argument("--timeout", type=float, default=ExperimentConfig.timeout_s)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", default="table", choices=REPORT_FORMATS)
    p.add_argument("--validate", action=argparse.BooleanOptionalAction, default=True,
                   help="check the learned system exactly against the SUL")
    p.add_argument("--exact-eq", action="store_true",
                   help="answer EQs by exact equivalence instead of random testing")
    p.add_argument("--no-memoize", action="store_true")


def _config_from_args(args) -> ExperimentConfig:
    ca = CaParams.parse(args.ca_e, args.ca_r) if args.algo == "ccwl" else None
    instances = args.instances
    if instances is None:
        instances = 10 if args.bench.startswith("rand:") else 1
    return ExperimentConfig(
        benchmark=args.bench,
        algorithm=args.algo,
        ca_params=ca,
        eq_config=EqTestConfig(args.eq_words, args.eq_len, exact=args.exact_eq),
        seed=args.seed,
        instances=instances,
        timeout_s=args.timeout,
        validate=args.validate,
        memoize=not args.no_memoize,
    )


def _exit_code(results) -> int:
    """The exit code of the worst verdict: 4 error, 3 timeout, 2 incorrect."""
    return max((_EXIT_CODES.get(r.validation, 0) for r in results), default=0)


def _write_report(text: str, path: str | None) -> None:
    """Write the report to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="mmnlearn")
    sub = parser.add_subparsers(dest="command", required=True)

    learn_p = sub.add_parser("learn", help="run a learning experiment")
    _add_learn_args(learn_p)

    bench_p = sub.add_parser("bench", help="benchmark utilities")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    export_p = bench_sub.add_parser("export", help="write a benchmark MMN file")
    export_p.add_argument("spec")
    export_p.add_argument("path")

    suite_p = sub.add_parser("suite", help="run a preconfigured experiment grid")
    suite_p.add_argument("--preset", choices=("ci", "table1"), default="ci")
    suite_p.add_argument("--format", default="table", choices=REPORT_FORMATS)
    suite_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "bench":
        try:
            mmn = benchmarks.from_spec(args.spec)
        except ValueError as exc:  # BenchmarkError included
            print("config error: %s" % exc, file=sys.stderr)
            return 4
        try:
            serialize.write_mmn(mmn, args.path)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 4
        print("wrote %s" % args.path)
        return 0

    try:  # before learning; an existing report is kept until the new one is written
        if args.out:
            open(args.out, "a").close()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4

    if args.command == "learn":
        try:
            cfg = _config_from_args(args)
            results = run_batch(cfg, workers=args.workers)
        except ValueError as exc:  # ConfigError and BenchmarkError included
            print("config error: %s" % exc, file=sys.stderr)
            return 4
        _write_report(report(results, args.format), args.out)
        errors = [r for r in results if r.validation == ERROR]
        for r in errors:
            print("learning aborted (seed=%d): %s" % (r.seed, r.error),
                  file=sys.stderr)
            if r.error.startswith(CaBlowupError.__name__):
                print("rerun with a finer abstraction (eq, or eqk:<k> with a "
                      "larger k)", file=sys.stderr)
        return _exit_code(results)

    if args.command == "suite":
        cfgs = ci_profile() if args.preset == "ci" else table1_profile()
        chunks = []
        code = 0
        for cfg in cfgs:
            log.info("running %s %s %s", cfg.benchmark, cfg.algorithm, cfg.ca_params)
            results = run_batch(cfg)
            chunks.append(report(results, args.format))
            code = max(code, _exit_code(results))
        _write_report("\n".join(chunks), args.out)
        return code

    return 4


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line interface.

    mmnlearn learn --bench binctr:5 --algo ccwl --ca-e eq --ca-r dinf
    mmnlearn bench export binctr:5 out.mmn
    mmnlearn suite --preset ci

Exit codes: 0 success, 2 validation failed, 3 timeout, 4 config or learner
error (the report is still printed when a learner error ends an instance).
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
    ConfigError,
    ERROR,
    EqTestConfig,
    ExperimentConfig,
    INCORRECT,
    TIMEOUT,
    ci_profile,
    report,
    run_batch,
    table1_profile,
)

log = logging.getLogger("mmnlearn")


def _setup_logging():
    level = os.environ.get("MMNLEARN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _add_learn_args(p: argparse.ArgumentParser):
    p.add_argument("--bench", required=True, help="benchmark spec, e.g. binctr:5")
    p.add_argument("--algo", required=True, choices=("mnl", "cwl", "ccwl"))
    p.add_argument("--ca-e", default="eq", help="abstraction: eq | eqk:<k> | uni")
    p.add_argument("--ca-r", default="dinf", help="bound: dinf | d:<n> | dsum | dmax | dmin")
    p.add_argument("--eq-words", type=int, default=100)
    p.add_argument("--eq-len", type=int, default=260)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="default 10 for random families, else 1")
    p.add_argument("--timeout", type=float, default=3600.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", default="table", choices=("csv", "json", "table"))
    p.add_argument("--validate", action=argparse.BooleanOptionalAction, default=True,
                   help="check the learned system exactly against the SUL")
    p.add_argument("--exact-eq", action="store_true",
                   help="answer EQs by exact equivalence instead of random testing")
    p.add_argument("--no-memoize", action="store_true")


def _config_from_args(args) -> ExperimentConfig:
    ca = None
    if args.algo == "ccwl":
        ca = CaParams.parse(args.ca_e, args.ca_r)
    instances = args.instances
    if instances is None:
        instances = 10 if args.bench.startswith("rand:") else 1
    return ExperimentConfig(
        benchmark=args.bench,
        algorithm=args.algo,
        ca_params=ca,
        eq_config=EqTestConfig(args.eq_words, args.eq_len, args.seed),
        seed=args.seed,
        instances=instances,
        timeout_s=args.timeout,
        validate=args.validate,
        memoize=not args.no_memoize,
        exact_eq=args.exact_eq,
    )


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
    suite_p.add_argument("--format", default="table", choices=("csv", "json", "table"))
    suite_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "bench":
        try:
            mmn = benchmarks.from_spec(args.spec)
        except (benchmarks.BenchmarkError, ValueError) as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 4
        serialize.write_mmn(mmn, args.path)
        print("wrote %s" % args.path)
        return 0

    if args.command == "learn":
        try:
            cfg = _config_from_args(args)
            results = run_batch(cfg, workers=args.workers)
        except (ConfigError, benchmarks.BenchmarkError, ValueError) as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 4
        text = report(results, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        errors = [r for r in results if r.validation == ERROR]
        for r in errors:
            print("learning aborted (seed=%d): %s" % (r.seed, r.error),
                  file=sys.stderr)
            if r.error.startswith(CaBlowupError.__name__):
                print("rerun with a finer abstraction (eq, or eqk:<k> with a "
                      "larger k)", file=sys.stderr)
        if errors:
            return 4
        if any(r.validation == TIMEOUT for r in results):
            return 3
        if cfg.validate and any(r.validation == INCORRECT for r in results):
            return 2
        return 0

    if args.command == "suite":
        cfgs = ci_profile() if args.preset == "ci" else table1_profile()
        chunks = []
        code = 0
        for cfg in cfgs:
            log.info("running %s %s %s", cfg.benchmark, cfg.algorithm, cfg.ca_params)
            results = run_batch(cfg)
            chunks.append(report(results, args.format))
            if any(r.validation == TIMEOUT for r in results):
                code = max(code, 3)
            if any(r.validation == ERROR for r in results):
                code = 4
        text = "\n".join(chunks)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code

    return 4


if __name__ == "__main__":
    raise SystemExit(main())

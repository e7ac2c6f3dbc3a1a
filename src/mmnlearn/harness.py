"""Experiment harness: configured runs, aggregation, and reporting.

A run builds the benchmark MMN, wraps it in a SUL with a seeded EQ stream,
executes the selected learner under a wall-clock budget, then (optionally)
validates the result exactly.  Validation is neither timed against the
budget nor charged to any counter.  Learner time is the wall time minus
the time spent inside oracle calls.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from . import benchmarks
from .componentwise import CaBlowupError, CaParams, ccwl, cwl, mnl
from .lstar import LearningTimeout
from .oracles import EqTestConfig, OracleContractError, Sul
from .table import SpuriousCounterexampleError

VALIDATED = "validated"
INCORRECT = "incorrect"
TIMEOUT = "timeout"
ERROR = "error"
SKIPPED = "not-validated"

# Learner failures that end one instance, not the batch.
LEARNER_ERRORS = (CaBlowupError, SpuriousCounterexampleError, OracleContractError)

ALGORITHMS = ("mnl", "cwl", "ccwl")

# The report's columns: (label, ExperimentResult attribute).
COLUMNS = (
    ("st.", "states"), ("tr.", "transitions"), ("OQ reset", "oq_resets"),
    ("OQ step", "oq_steps"), ("EQ", "eq_count"), ("EQ reset", "eq_resets"),
    ("EQ step", "eq_steps"), ("L. time", "learner_time_seconds"),
    ("valid?", "validation"),
)
REPORT_COLUMNS = [label for label, _ in COLUMNS]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    benchmark: str
    algorithm: str
    ca_params: Optional[CaParams] = None
    # EQs draw from the instance seed, so eq_config's own seed must stay 0.
    eq_config: EqTestConfig = field(default_factory=EqTestConfig)
    seed: int = 0
    instances: int = 1
    timeout_s: float = 3600.0
    validate: bool = True
    memoize: bool = True
    exact_eq: bool = False  # substitute exact checking for testing EQs

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("unknown algorithm %r" % self.algorithm)
        if (self.algorithm == "ccwl") != (self.ca_params is not None):
            raise ConfigError("ccwl, and only ccwl, takes CA parameters")
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if self.eq_config.seed != 0:
            raise ConfigError("eq_config.seed is not read: set ExperimentConfig.seed")
        if not self.timeout_s >= 0:  # also rejects NaN
            raise ConfigError("timeout must be >= 0, not %r" % self.timeout_s)


@dataclass
class ExperimentResult:
    benchmark: str
    algorithm: str
    ca_params: str
    seed: int
    states: int = 0
    transitions: int = 0
    oq_resets: int = 0
    oq_steps: int = 0
    eq_count: int = 0
    eq_resets: int = 0
    eq_steps: int = 0
    learner_time_seconds: float = 0.0
    wall_time_seconds: float = 0.0
    validation: str = SKIPPED
    sul_total_states: int = 0
    sul_components: int = 0
    sul_input_alphabet: int = 0  # system-level input alphabet size
    max_cex_length: int = 0
    error: str = ""  # the learner's exception, when validation is ERROR

    def row(self) -> list:
        return [getattr(self, attr) for _, attr in COLUMNS]

    def to_json(self) -> dict:
        return dict(self.__dict__)


def build_sul(cfg: ExperimentConfig, seed: int) -> Sul:
    spec = cfg.benchmark
    if spec.startswith("rand:") and "seed=" not in spec:
        spec = "%s:seed=%d" % (spec, seed)
    mmn = benchmarks.from_spec(spec)
    eq_cfg = EqTestConfig(
        cfg.eq_config.words_per_eq, cfg.eq_config.word_length, seed
    )
    return Sul(mmn, eq_cfg)


def run_experiment(cfg: ExperimentConfig, seed: Optional[int] = None) -> ExperimentResult:
    seed = cfg.seed if seed is None else seed
    sul = build_sul(cfg, seed)
    result = ExperimentResult(
        benchmark=cfg.benchmark,
        algorithm=cfg.algorithm,
        ca_params=str(cfg.ca_params) if cfg.ca_params else "",
        seed=seed,
        sul_total_states=sum(m.n_states for m in sul._mmn.machines.values()),
        sul_components=len(sul.components),
        sul_input_alphabet=len(sul.system_inputs),
    )
    deadline = time.monotonic() + cfg.timeout_s
    eq = sul.exact_eq if cfg.exact_eq else None
    eq_c = sul.exact_eq_c if cfg.exact_eq else None
    t0 = time.monotonic()
    learned = None
    try:
        if cfg.algorithm == "mnl":
            learned = mnl(sul, memoize=cfg.memoize, deadline=deadline, eq=eq)
        elif cfg.algorithm == "cwl":
            learned = cwl(sul, memoize=cfg.memoize, deadline=deadline, eq_c=eq_c)
        else:
            learned = ccwl(
                sul, cfg.ca_params, memoize=cfg.memoize, deadline=deadline, eq=eq
            )
    except LearningTimeout:
        result.validation = TIMEOUT
    except LEARNER_ERRORS as exc:
        result.validation = ERROR
        result.error = "%s: %s" % (type(exc).__name__, exc)
    wall = time.monotonic() - t0
    result.wall_time_seconds = wall
    result.learner_time_seconds = max(0.0, wall - sul.oracle_seconds)
    vars(result).update(sul.stats.snapshot())  # the five query counts
    if learned is not None:
        result.states = learned.n_states
        result.transitions = learned.n_transitions
        result.max_cex_length = learned.max_cex_length
        if cfg.validate:
            verdict = sul.validate_exact(learned.system_machine())
            result.validation = VALIDATED if verdict is True else INCORRECT
    return result


def run_batch(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentResult]:
    """One result per instance; seeds are consecutive from cfg.seed.

    ``workers > 1`` fans instances out to a process pool (each worker owns
    its learner/SUL pair; results are joined in seed order).  Interrupt-safe
    either way: results collected so far are returned on KeyboardInterrupt.
    """
    seeds = range(cfg.seed, cfg.seed + cfg.instances)
    results: list[ExperimentResult] = []
    if workers <= 1:
        try:
            for s in seeds:
                results.append(run_experiment(cfg, s))
        except KeyboardInterrupt:
            pass
        return results
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(run_experiment, cfg, s): s for s in seeds}
        try:
            for fut in cf.as_completed(futures):
                results.append(fut.result())
        except KeyboardInterrupt:
            pool.shutdown(cancel_futures=True)
    results.sort(key=lambda r: r.seed)
    return results


# -- reporting -------------------------------------------------------------


def format_count(value: float) -> str:
    """The tables' K/M abbreviation, e.g. 26000 -> '26K'.

    The unit is picked after rounding: 9,999 reads '10K' and 999,999 reads
    '1.0M'.
    """
    if isinstance(value, float) and not value.is_integer():
        text = "%.1f" % value
    else:
        text = "%d" % value
    unit = ""
    for larger in ("K", "M"):
        if float(text) < 1000:
            break
        value /= 1000
        text = "%.1f" % value
        if float(text) >= 10:
            text = "%.0f" % value
        unit = larger
    return text + unit


def _aggregate(results: list[ExperimentResult]) -> dict:
    """Means over the instances that returned a model, plus the
    validated/incorrect/timeout/error tally over all instances."""
    learned = [r for r in results if r.validation not in (TIMEOUT, ERROR)]
    n = len(learned)
    mean = lambda attr: sum(getattr(r, attr) for r in learned) / n if n else 0.0
    tally = "/".join(
        str(sum(r.validation == v for r in results))
        for v in (VALIDATED, INCORRECT, TIMEOUT, ERROR)
    )
    return {label: tally if attr == "validation" else mean(attr)
            for label, attr in COLUMNS}


# Table cells of the columns that are not counts (those use format_count).
_CELLS = {"learner_time_seconds": "%.2f".__mod__, "validation": str}

REPORT_FORMATS = ("csv", "json", "table")


def report(results: list[ExperimentResult], fmt: str = "table") -> str:
    """Render the results of one configuration: one row per instance plus
    the mean row."""
    if fmt == "json":
        blob = {"instances": [r.to_json() for r in results],
                "aggregate": _aggregate(results) if results else {}}
        return json.dumps(blob, indent=2, default=str) + "\n"
    rows = [(r.seed, r.row()) for r in results]
    if results:
        rows.append(("mean", list(_aggregate(results).values())))
    config = ([results[0].benchmark, results[0].algorithm, results[0].ca_params]
              if results else ["", "", ""])
    out = io.StringIO()
    if fmt == "csv":
        out.write(",".join(["benchmark", "algorithm", "ca", "seed"] + REPORT_COLUMNS) + "\n")
        for seed, values in rows:
            out.write(",".join(str(x) for x in config + [seed] + values) + "\n")
        return out.getvalue()
    if fmt == "table":
        label = "%s %s%s" % tuple(config)
        out.write("%-32s %s\n" % (label, " ".join("%9s" % c for c in REPORT_COLUMNS)))
        for seed, values in rows:
            cells = [_CELLS.get(attr, format_count)(v) for (_, attr), v in zip(COLUMNS, values)]
            name = seed if seed == "mean" else "seed=%d" % seed
            out.write("%-32s %s\n" % (name, " ".join("%9s" % c for c in cells)))
        return out.getvalue()
    raise ConfigError("unknown report format %r" % fmt)


# -- complexity sanity -----------------------------------------------------


def thm_bound_check(result: ExperimentResult, constant: float = 10.0,
                    sound: bool = True) -> bool:
    """Query-count sanity against the learning-complexity bounds.

    Monolithic runs use the single-machine form C*(l*n^2 + n*log m); the
    componentwise algorithms get an extra component factor on the log term,
    plus an l*n*|V^c| term when the CA parameters are unsound.  ``n`` is
    ``result.sul_total_states``: ``run_experiment`` fills it with the summed
    component sizes for every algorithm, so a check of ``mnl`` against the
    reachable configurations sets it first.  ``m`` is the longest
    counterexample seen.
    """
    n = max(1, result.sul_total_states)
    ell = max(1, result.sul_input_alphabet)
    m = max(2, result.max_cex_length)
    vc = max(1, result.sul_components)
    mono = result.algorithm == "mnl"
    bound = constant * (ell * n * n + n * (1 if mono else vc) * math.log2(m))
    eq_bound = constant * n
    if not (mono or sound):
        bound += constant * ell * n * vc
        eq_bound += constant * ell * n
    return result.oq_resets <= bound and result.eq_count <= eq_bound


# -- presets ----------------------------------------------------------------


def ci_profile() -> list[ExperimentConfig]:
    """Desk-scale profile: small random families, short timeout."""
    return [
        ExperimentConfig(bench, algo, ca_params=CaParams() if algo == "ccwl" else None,
                         timeout_s=120.0, instances=2)
        for bench in ("binctr:5", "mmn_ex", "counter_init",
                      "rand:path3:lean", "rand:star3:lean", "rand:compl3:lean")
        for algo in ALGORITHMS
    ]


def table1_profile(instances: int = 10) -> list[ExperimentConfig]:
    """Full-scale profile mirroring the headline experiment grid.

    Expect hours of runtime; orderings between algorithms are the point,
    not exact averages, since random instances and EQ parameters are
    reconstructed.  Includes the Star(3)/Star(7) follow-up grid and the
    intermediate depth bounds.
    """
    cas = [CaParams.parse(*ca.split(",")) for ca in (
        "eq,dinf", "eq,dsum", "eq,dmax", "eq,dmin", "eq,d:0",
        "eqk:0,dinf", "eqk:0,d:0", "uni,d:0")]
    benches = [
        "rand:compl5:lean", "rand:star5:lean", "rand:path5:lean",
        "rand:compl5:rich", "rand:star5:rich", "rand:path5:rich",
        "rand:star3:lean", "rand:star7:lean",
        "rand:star3:rich", "rand:star7:rich",
        "mqtt", "binctr:5", "binctr:10",
    ]
    return [
        ExperimentConfig(bench, algo, ca_params=ca, instances=instances)
        for bench in benches
        for algo, ca in [("mnl", None), ("cwl", None)] + [("ccwl", ca) for ca in cas]
    ]

"""Workload definitions and the single-job runner.

A workload is a fixed list of learning jobs.  Each job goes through the
library's entry points: ``harness.build_sul`` (``benchmarks.from_spec`` plus
``oracles.Sul``), then ``componentwise.mnl`` / ``cwl`` / ``ccwl``, then
``Sul.validate_exact``.  The three phases are timed separately, so set-up
and validation never count towards learning time.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Optional

from mmnlearn import componentwise, harness
from mmnlearn.componentwise import CaParams
from mmnlearn.lstar import LearningTimeout

# Random families are pinned to a pool of instances, so that the per-run
# totals do not swing with instance size: across independently drawn
# instances the job cost varies by 10x and more (alphabet sizes are drawn
# per edge), which no affordable number of instances per run averages out.
# The benchmark seed drives the equivalence-query stream of every job.
POOL = 4
# Component size of the random families.  At the library default of 10 one
# instance of ``rand:star3:lean`` under an unsound CA takes up to 20 s;
# at 5 a run fits several repetitions of every job.
RAND_MEAN = 5
# Per-job learning budget.  Learners check the deadline only between
# rounds, so a job may overrun it by one round; the job is timed itself.
BUDGET_S = 30.0

VALIDATED = harness.VALIDATED
INCORRECT = harness.INCORRECT
TIMEOUT = harness.TIMEOUT
RAISED = "raised"

# (spec, algorithm, CA) per workload, in run order.  Why each exists:
#   ctx-sound    sound context analysis dominates: one_ext_er re-runs a full
#                BFS over hypothesis configurations every round.
#   lstar-mono   never calls context analysis: observation-table work and
#                output-query oracles dominate.  A context-analysis change
#                should leave it unchanged.
#   ctx-unsound  the same componentwise/oracle/table layers the other way
#                round: thousands of cheap rounds and system EQs instead of a
#                few deep BFS passes.
WORKLOADS: dict[str, list[tuple[str, str, Optional[str]]]] = {
    "ctx-sound": [
        (spec, "ccwl", "eq,dinf")
        for spec in ("rand:star3:lean", "rand:compl4:lean", "rand:path4:lean",
                     "rand:compl3:rich", "binctr:10", "mqtt")
    ],
    # mnl on binctr:10 is left out: it runs for more than a minute and
    # would time out in every run.
    "lstar-mono": [
        (spec, algo, None)
        for spec in ("rand:compl3:lean", "rand:path3:rich", "rand:compl3:rich",
                     "mqtt", "binctr:5", "binctr:10")
        for algo in ("mnl", "cwl")
        if (spec, algo) != ("binctr:10", "mnl")
    ],
    "ctx-unsound": [
        (spec, "ccwl", ca)
        for ca in ("eqk:0,d:0", "uni,d:0", "eq,dmin")
        for spec in ("rand:compl3:lean", "rand:star3:lean", "rand:path3:rich",
                     "mqtt", "binctr:5")
    ],
}


@dataclass(frozen=True)
class Job:
    spec: str
    algorithm: str
    ca: Optional[str]  # "abstraction,bound", ccwl only
    seed: int  # the run_experiment seed: selects the EQ stream

    def config(self) -> harness.ExperimentConfig:
        ca = CaParams.parse(*self.ca.split(",")) if self.ca else None
        return harness.ExperimentConfig(
            self.spec, self.algorithm, ca_params=ca, seed=self.seed,
            timeout_s=BUDGET_S,
        )


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one benchmark seed."""
    out = []
    for spec, algo, ca in WORKLOADS[workload]:
        if spec.startswith("rand:"):
            # An explicit ``seed=`` keeps build_sul from deriving the
            # instance from the EQ seed.
            specs = ["%s:mean=%d:seed=%d" % (spec, RAND_MEAN, k) for k in range(POOL)]
        else:
            specs = [spec]
        out.extend(Job(s, algo, ca, seed) for s in specs)
    return out


# Host speed on a shared machine drifts by more than half within seconds,
# and a fixed pure-Python loop slows down with it.  Times are scaled by the
# loop's duration measured next to each job, to the loop's nominal duration
# below, so that they read as seconds on a host running at that speed.
CALIBRATION_ITERS = 25_000
CALIBRATION_NOMINAL_S = 0.009


def calibrate() -> float:
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(CALIBRATION_ITERS):
        k = (i & 1023, i % 7)
        d[k] = d.get(k, 0) + 1
    return time.perf_counter() - t0


COUNTS = ("oq_resets", "oq_steps", "eq_count", "eq_steps", "learned_states")


@dataclass
class JobResult:
    verdict: str
    counts: dict[str, int]
    induced_configs: int
    setup_s: float
    learn_s: float
    learner_s: float
    validate_s: float
    error: str = ""
    consistent: bool = True  # an "incorrect" verdict came with a real counterexample
    speed: float = 1.0  # nominal / measured reference-loop time around the job


def _learn(cfg: harness.ExperimentConfig, sul, deadline: float):
    # Module attribute lookups, so that traced runs see the wrappers.
    if cfg.algorithm == "mnl":
        return componentwise.mnl(sul, deadline=deadline)
    if cfg.algorithm == "cwl":
        return componentwise.cwl(sul, deadline=deadline)
    return componentwise.ccwl(sul, cfg.ca_params, deadline=deadline)


def run_job(job: Job) -> JobResult:
    cfg = job.config()
    gc.collect()
    t0 = time.perf_counter()
    sul = harness.build_sul(cfg, job.seed)
    t1 = time.perf_counter()
    learned, verdict, error = None, VALIDATED, ""
    try:
        learned = _learn(cfg, sul, time.monotonic() + BUDGET_S)
    except LearningTimeout:
        verdict = TIMEOUT
    except Exception as exc:  # a raising job is counted, not fatal
        verdict, error = RAISED, "%s: %s" % (type(exc).__name__, exc)
    t2 = time.perf_counter()
    stats = sul.stats
    counts = {
        "oq_resets": stats.oq_resets,
        "oq_steps": stats.oq_steps,
        "eq_count": stats.eq_count,
        "eq_steps": stats.eq_steps,
        "learned_states": learned.n_states if learned is not None else 0,
    }
    # No public accessor: the SUL's lazily interned system configurations.
    induced = sul._induced.n_explored()
    oracle_s = sul.oracle_seconds
    consistent = True
    if learned is not None:
        target = learned.machine if learned.machine is not None else learned.mmn
        cex = sul.validate_exact(target)
        if cex is not True:
            verdict = INCORRECT
            # Validation must point at a word the two systems disagree on.
            consistent = sul.oq(cex.word) != learned.system_machine().semantics(cex.word)
    t3 = time.perf_counter()
    return JobResult(
        verdict, counts, induced,
        setup_s=t1 - t0, learn_s=t2 - t1, learner_s=max(0.0, (t2 - t1) - oracle_s),
        validate_s=t3 - t2, error=error, consistent=consistent,
    )

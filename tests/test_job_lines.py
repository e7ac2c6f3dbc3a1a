"""Every benchmark job line, pinned.

For each job of the three ``perfbench`` workloads on seeds 0 and 97, the
fixture holds the verdict, the five counts and ``induced_configs``: the
fields a count-neutral change must leave alone.  It also holds the
``round proposals=... new=...`` lines that ``ccwl`` logs on ``mqtt`` and
``binctr:5`` under four context analyses, so that a change to how rounds
find their new proposals keeps every round's counts.

The job lists are read from ``perfbench/jobs.py`` and each job is run
through its ``run_job``, exactly as the benchmark runs it.  A change meant to
move these counts re-records the fixture and states the per-job deltas::

    PYTHONPATH=src python -m tests.test_job_lines
"""

import functools
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from mmnlearn.componentwise import CaParams, ccwl
from mmnlearn.harness import ExperimentConfig, build_sul

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("job_lines.json")
SEEDS = (0, 97)
WORKLOADS = ("ctx-sound", "lstar-mono", "ctx-unsound")
ROUND_JOBS = [(spec, ca) for spec in ("mqtt", "binctr:5")
              for ca in ("eqk:0,d:0", "uni,d:0", "eq,dmin", "eq,dinf")]


@functools.cache
def _perfbench_jobs():
    # Loaded under a name of its own: perfbench's self-test imports it as
    # ``jobs`` from its own directory.
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_lines(workload, seed):
    """One line per job: spec, algorithm, CA, verdict, counts, configs."""
    jobs = _perfbench_jobs()
    lines = []
    for job in jobs.jobs(workload, seed):
        r = jobs.run_job(job)
        counts = " ".join("%s=%d" % (k, r.counts[k]) for k in jobs.COUNTS)
        lines.append("%s %s %s %s %s induced_configs=%d" % (
            job.spec, job.algorithm, job.ca, r.verdict, counts, r.induced_configs))
    return lines


def round_lines(spec, ca):
    """The ``round`` lines of ``ccwl``'s event log on ``spec`` (seed 0)."""
    params = CaParams.parse(*ca.split(","))
    log = []
    ccwl(build_sul(ExperimentConfig(spec, "ccwl", ca_params=params), 0), params,
         event_log=log)
    return [line for line in log if line.startswith("round ")]


def _compact(lines):
    # "round proposals=P new=N" -> "P/N", one string per job.
    return " ".join("%s/%s" % re.fullmatch(r"round proposals=(\d+) new=(\d+)", line)
                    .groups() for line in lines)


def record():
    return {
        "jobs": {"%s seed=%d" % (w, seed): job_lines(w, seed)
                 for w in WORKLOADS for seed in SEEDS},
        "rounds": {"%s %s" % job: _compact(round_lines(*job)) for job in ROUND_JOBS},
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_job_lines_match_fixture(pinned, workload, seed):
    assert job_lines(workload, seed) == pinned["jobs"]["%s seed=%d" % (workload, seed)]


@pytest.mark.parametrize("spec, ca", ROUND_JOBS)
def test_ccwl_round_proposal_counts_match_fixture(pinned, spec, ca):
    want = pinned["rounds"]["%s %s" % (spec, ca)]
    assert len(want.split()) > 1
    assert _compact(round_lines(spec, ca)) == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")

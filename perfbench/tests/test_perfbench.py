"""Self-test of the benchmark on a tiny slice of each workload.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_slice(workload):
    """The two cheapest jobs of the workload: fixed instances only."""
    cheap = [j for j in jobs.jobs(workload, seed=3) if j.spec in ("mqtt", "binctr:5")]
    return cheap[:2]


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result):
    return {k: result["metrics"][k]["value"] for k in jobs.COUNTS}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_slice(workload, monkeypatch):
    originals = {(o, a): vars(o)[a] for o, a in spans.patch_points()}

    def unpatched():
        return all(vars(o)[a] is f for (o, a), f in originals.items())

    real_run_job = jobs.run_job
    seen_patched = []

    def checked_run_job(job):
        seen_patched.append(not unpatched())
        return real_run_job(job)

    monkeypatch.setattr(jobs, "run_job", checked_run_job)
    job_list = tiny_slice(workload)
    assert job_list

    first = run.measure(job_list, seconds=0, min_reps=1)
    assert not any(seen_patched), "an untraced run installed wrappers"
    assert unpatched()
    second = run.measure(job_list, seconds=0, min_reps=1)
    traced = run.measure(job_list, seconds=0, trace=True, min_reps=1)
    assert any(seen_patched), "a traced run installed no wrappers"
    assert unpatched(), "a traced run left wrappers behind"

    for result in (first, second, traced):
        assert result["correct"], result["problems"]
        assert result["attempted"] == len(job_list)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units(first) == want
    assert units(traced) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert counts(first) == counts(second)
    assert all(v > 0 for v in counts(first).values())

"""Learning-job benchmark for mmnlearn.

    python3 perfbench/run.py --workload ctx-sound --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload as a closed loop with a single client: the
workload's job list is learned one job at a time, and the whole list is
repeated until ``--seconds`` are spent (at least ``MIN_REPS`` times).  Every
learned result is validated exactly.  Times are per-job medians over the
repetitions, summed over the jobs; counts come from the first repetition
and must repeat exactly in the others.

``--trace 1`` alternates untraced repetitions with repetitions that run
under per-layer wrappers, and reports the per-layer metrics instead of the
end-to-end ones.  ``--workload all`` runs each workload in a fresh process
and prints the metrics side by side.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
WORKLOAD_NAMES = ("ctx-sound", "lstar-mono", "ctx-unsound")


def _import_library():
    """Import the library from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import mmnlearn

    if Path(mmnlearn.__file__).resolve().parent != ROOT / "src" / "mmnlearn":
        raise ImportError("mmnlearn imported from %s, not from this checkout"
                          % mmnlearn.__file__)


def _job_medians(reps, scaled: bool = True) -> list[dict[str, float]]:
    """Per job, the median of each time over the repetitions."""
    fields = ("setup_s", "learn_s", "learner_s", "validate_s")
    return [
        {f: statistics.median(getattr(rep[j], f) * (rep[j].speed if scaled else 1.0)
                              for rep in reps) for f in fields}
        for j in range(len(reps[0]))
    ]


def _summed(medians, field: str) -> float:
    return sum(m[field] for m in medians)


def _run_rep(job_list) -> list:
    """Learn every job once, with the reference loop run between jobs."""
    import jobs

    loop_s = [jobs.calibrate()]
    results = []
    for job in job_list:
        results.append(jobs.run_job(job))
        loop_s.append(jobs.calibrate())
    for r, before, after in zip(results, loop_s, loop_s[1:]):
        r.speed = 2 * jobs.CALIBRATION_NOMINAL_S / (before + after)
    return results


def measure(job_list, seconds: float, trace: bool = False,
            min_reps: int = MIN_REPS) -> dict:
    """Run the job list repeatedly and return the result object."""
    import jobs
    import spans

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain.append(_run_rep(job_list))
        if trace:
            tracer = spans.Tracer()
            with tracer.installed():
                traced.append((_run_rep(job_list), tracer))
        rep_s = time.perf_counter() - t
        if len(plain) >= min_reps and time.perf_counter() - start + rep_s > seconds:
            break

    first = plain[0]
    problems = []
    for rep in plain[1:] + [r for r, _ in traced]:
        for job, a, b in zip(job_list, first, rep):
            if jobs.TIMEOUT in (a.verdict, b.verdict):
                continue
            if (a.verdict, a.counts) != (b.verdict, b.counts):
                problems.append("%s: %s/%s differs between repetitions"
                                % (job, a.verdict, b.verdict))
    for job, r in zip(job_list, first):
        if r.verdict == jobs.RAISED:
            problems.append("%s raised %s" % (job, r.error))
        if not r.consistent:
            problems.append("%s: validation counterexample shows no difference" % job)
    correct = not problems

    medians = _job_medians(plain)
    records = []
    for job, r, m in zip(job_list, first, medians):
        records.append(dict(
            spec=job.spec, algorithm=job.algorithm, ca=job.ca, seed=job.seed,
            verdict=r.verdict, **r.counts, induced_configs=r.induced_configs,
            **{k: round(v, 6) for k, v in m.items()}, error=r.error,
        ))
    attempted = len(first)
    failed = sum(r.verdict != jobs.VALIDATED for r in first)
    learn_s = _summed(medians, "learn_s")

    if trace:
        metrics = _layer_metrics(traced, learn_s)
    else:
        metrics = {
            "learn_s": (learn_s, "s"),
            "learner_s": (_summed(medians, "learner_s"), "s"),
            "validate_s": (_summed(medians, "validate_s"), "s"),
            "setup_s": (_summed(medians, "setup_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "valid_frac": ((attempted - failed) / attempted, "share"),
        }
        for key in jobs.COUNTS:
            metrics[key] = (sum(r.counts[key] for r in first), "count")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": records,
        "problems": problems,
        "repetitions": len(plain),
        "learn_wall_s": _summed(_job_medians(plain, scaled=False), "learn_s"),
        "spans": _span_table(traced) if trace else [],
    }


def _span_table(traced) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per span, sorted by self time.

    Times are medians over the traced repetitions, each scaled by its
    repetition's median speed factor.
    """
    speeds = [statistics.median(r.speed for r in rep) for rep, _ in traced]
    rows = []
    for name, (calls, _, _) in traced[0][1].spans.items():
        recs = [(t.spans[name], v) for (_, t), v in zip(traced, speeds)]
        rows.append((name, calls,
                     statistics.median(rec[1] * v for rec, v in recs),
                     statistics.median((rec[1] - rec[2]) * v for rec, v in recs)))
    return sorted(rows, key=lambda r: -r[3])


def _layer_metrics(traced, untraced_learn_s: float) -> dict:
    out = {}
    for name, calls, incl, self_s in sorted(_span_table(traced)):
        if name.startswith("perfbench."):
            continue  # the benchmark's own bookkeeping
        out[name + ".calls"] = (calls, "count")
        out[name + ".s"] = (incl, "s")
        out[name + ".self_s"] = (self_s, "s")
    first_rep, first = traced[0]
    out["componentwise.one_ext_er.proposals"] = (first.proposals, "count")
    out["componentwise.one_ext_er.new_ratio"] = (
        first.proposals_new / first.proposals if first.proposals else 0.0, "ratio")
    out["lstar.oq_cache.lookups"] = (first.cache_lookups, "count")
    out["lstar.oq_cache.hit_ratio"] = (
        first.cache_hits / first.cache_lookups if first.cache_lookups else 0.0, "ratio")
    out["network.induced_configs"] = (sum(r.induced_configs for r in first_rep), "count")
    traced_learn_s = _summed(_job_medians([rep for rep, _ in traced]), "learn_s")
    out["trace.overhead_s"] = (traced_learn_s - untraced_learn_s, "s")
    return out


def _print_report(workload: str, result: dict, seed: int) -> None:
    for rec in result["jobs"]:
        print("job " + json.dumps(rec))
    for name, calls, incl, self_s in result["spans"]:
        print("span %-44s calls=%-9d incl=%.4fs self=%.4fs" % (name, calls, incl, self_s))
    for p in result["problems"]:
        print("problem " + p)
    print("workload %s seed=%d repetitions=%d attempted=%d failed=%d fail_frac=%.4f "
          "learn_wall_s=%.4f"
          % (workload, seed, result["repetitions"], result["attempted"],
             result["failed"], result["failed"] / result["attempted"],
             result["learn_wall_s"]))
    for name, m in result["metrics"].items():
        print("metric %-44s %14.6f %s" % (name, m["value"], m["unit"]))


def _run_all(args) -> int:
    """Each workload in a fresh process, so memory peaks stay separate."""
    table, status = {}, 0
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print("workload %s failed with exit code %d" % (w, proc.returncode))
            status = 1
            continue
        table[w] = json.loads(lines[-1])
    if not table:
        return 1
    names = list(next(iter(table.values()))["metrics"])
    print("%-44s %-6s" % ("metric", "unit") + "".join("%16s" % w for w in table))
    for name in names:
        unit = next(iter(table.values()))["metrics"][name]["unit"]
        print("%-44s %-6s" % (name, unit) + "".join(
            "%16.6g" % r["metrics"][name]["value"] for r in table.values()))
    print("%-44s %-6s" % ("fail_frac", "share") + "".join(
        "%16.6g" % (r["failed"] / r["attempted"]) for r in table.values()))
    print(json.dumps({w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for w, r in table.items()}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_library()
    except ImportError as exc:
        print("perfbench: cannot import mmnlearn: %s" % exc, file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import jobs

    result = measure(jobs.jobs(args.workload, args.seed), args.seconds, bool(args.trace))
    _print_report(args.workload, result, args.seed)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

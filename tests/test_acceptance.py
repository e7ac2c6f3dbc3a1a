"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budgets are generous wall-clock ceilings, not benchmarks.
"""

import random
import time

import pytest

from mmnlearn.benchmarks import (
    binary_counter,
    counter_with_init,
    from_spec,
    mqtt_lighting,
    rand_mmn,
    shipped_specs,
)
from mmnlearn.componentwise import CaParams, ccwl, cwl, mnl
from mmnlearn.harness import ExperimentConfig, run_experiment, thm_bound_check
from mmnlearn.machine import equivalent
from mmnlearn.network import InducedMoore
from mmnlearn.oracles import EqTestConfig, Sul
from tests.test_machine import brute_force_equivalent, random_machine
from tests.test_network import materialize, simulate


def sul_for(mmn, seed):
    return Sul(mmn, EqTestConfig(seed=seed))


def report(criterion, ok, detail):
    print("[criterion %s] %s  %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def within(value, target, tol):
    return abs(value - target) <= tol * target


def test_criterion_1_binary_counter_5_exact_structure():
    t0 = time.monotonic()
    s = sul_for(binary_counter(5), seed=1)
    r = ccwl(s, CaParams())
    ok = (
        (r.n_states, r.n_transitions, s.stats.eq_count) == (14, 25, 1)
        and within(s.stats.oq_resets, 30, 0.25)
        and within(s.stats.oq_steps, 45, 0.25)
    )
    detail = "ccwl st=%d tr=%d eq=%d oqr=%d oqs=%d" % (
        r.n_states, r.n_transitions, s.stats.eq_count,
        s.stats.oq_resets, s.stats.oq_steps,
    )

    s2 = sul_for(binary_counter(5), seed=1)
    r2 = cwl(s2)
    ok = ok and (r2.n_states, r2.n_transitions, s2.stats.eq_count) == (15, 30, 6)
    detail += " | cwl st=%d tr=%d eq=%d" % (r2.n_states, r2.n_transitions, s2.stats.eq_count)

    s3 = sul_for(binary_counter(5), seed=1)
    r3 = mnl(s3)
    ok = ok and (r3.n_states, r3.n_transitions, s3.stats.eq_count) == (70, 140, 2)
    ok = ok and within(s3.stats.oq_resets, 212, 0.25)
    ok = ok and within(s3.stats.oq_steps, 5900, 0.25)
    detail += " | mnl st=%d tr=%d eq=%d oqr=%d oqs=%d" % (
        r3.n_states, r3.n_transitions, s3.stats.eq_count,
        s3.stats.oq_resets, s3.stats.oq_steps,
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10
    report(1, ok, detail + " (%.1fs)" % elapsed)


def test_criterion_2_binary_counter_10():
    t0 = time.monotonic()
    s = sul_for(binary_counter(10), seed=1)
    r = ccwl(s, CaParams())
    ok = (r.n_states, r.n_transitions, s.stats.eq_count) == (29, 50, 1)
    s2 = sul_for(binary_counter(10), seed=1)
    r2 = cwl(s2)
    ok = ok and (r2.n_states, r2.n_transitions) == (30, 60)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    report(
        2, ok,
        "ccwl st=%d tr=%d eq=%d | cwl st=%d tr=%d (%.1fs)" % (
            r.n_states, r.n_transitions, s.stats.eq_count,
            r2.n_states, r2.n_transitions, elapsed,
        ),
    )


def test_criterion_3_mqtt_ordering():
    t0 = time.monotonic()
    s = sul_for(mqtt_lighting(), seed=1)
    r_ccwl = ccwl(s, CaParams())
    ok = s.validate_exact(r_ccwl.mmn) is True
    s2 = sul_for(mqtt_lighting(), seed=1)
    r_cwl = cwl(s2)
    ok = ok and s2.validate_exact(r_cwl.mmn) is True
    s3 = sul_for(mqtt_lighting(), seed=1)
    r_mnl = mnl(s3)
    ok = ok and r_ccwl.n_states < r_cwl.n_states < r_mnl.n_states
    ok = ok and within(r_ccwl.n_states, 27, 0.15)
    ok = ok and within(r_cwl.n_states, 39, 0.15)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(
        3, ok,
        "states ccwl=%d cwl=%d mnl=%d (targets 27/39/169) (%.1fs)" % (
            r_ccwl.n_states, r_cwl.n_states, r_mnl.n_states, elapsed,
        ),
    )


def test_criterion_4_unsound_parameters_recover():
    t0 = time.monotonic()
    s = sul_for(binary_counter(5), seed=1)
    r = ccwl(s, CaParams("eq", None, "d", 0))
    valid = s.validate_exact(r.mmn) is True
    ok = s.stats.eq_count >= 5 and valid
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    report(4, ok, "eq=%d (paper mean 15.4) validated=%s (%.1fs)"
           % (s.stats.eq_count, valid, elapsed))


def _bullet_free(sul, queried):
    for c, words in queried.items():
        ia = sul.component_input_alphabet(c)
        factor_names = [f.names() for f in ia.factors]
        for word in words:
            for sym in word:
                for pos, d in enumerate(ia.digits(sym)):
                    if "_b" in factor_names[pos][d]:
                        return False
    return True


class RecordingSul(Sul):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.queried = {}

    def oq_c(self, c, word):
        self.queried.setdefault(c, []).append(tuple(word))
        return super().oq_c(c, word)


def test_criterion_5_redundancy_elimination():
    t0 = time.monotonic()
    pairs = []
    s = RecordingSul(counter_with_init(), EqTestConfig(seed=1))
    r = ccwl(s, CaParams())
    s2 = sul_for(counter_with_init(), seed=1)
    r2 = cwl(s2)
    pairs.append(("counter_init", r.n_states, r2.n_states, True))
    ok = r.n_states <= 0.6 * r2.n_states
    for seed in range(5):
        s = RecordingSul(rand_mmn("path", 3, "rich", seed=seed, mean=5.0), EqTestConfig(seed=seed))
        r = ccwl(s, CaParams())
        clean = _bullet_free(s, s.queried)
        s2 = sul_for(rand_mmn("path", 3, "rich", seed=seed, mean=5.0), seed=seed)
        r2 = cwl(s2)
        pairs.append(("rich:%d" % seed, r.n_states, r2.n_states, clean))
        ok = ok and r.n_states <= 0.6 * r2.n_states and clean
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report(
        5, ok,
        " ".join("%s %d/%d%s" % (n, a, b, "" if cl else " BULLET!") for n, a, b, cl in pairs)
        + " (%.1fs)" % elapsed,
    )


def test_criterion_6_exact_eq_regression_all_params():
    t0 = time.monotonic()
    params = [
        CaParams("eq", None, "dinf", None),
        CaParams("eqk", 0, "dinf", None),
        CaParams("uni", None, "d", 0),
        CaParams("eq", None, "d", 0),
    ]
    failures = []
    count = 0
    for spec in shipped_specs(max_total_states=60):
        for p in params:
            s = sul_for(from_spec(spec), seed=3)
            r = ccwl(s, p, eq=s.exact_eq)
            count += 1
            if s.validate_exact(r.mmn) is not True:
                failures.append((spec, str(p)))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    report(6, ok, "%d runs, failures=%r (%.1fs)" % (count, failures, elapsed))


def test_criterion_7_brute_force_agreement():
    t0 = time.monotonic()
    rng = random.Random(2024)
    from mmnlearn.alphabet import Alphabet
    from mmnlearn.machine import DetMoore

    oa = Alphabet(["o0", "o1"])
    disagreements = 0
    pairs = 0
    while pairs < 200:
        m1 = random_machine(rng, n_max=6, i_max=3, partial=True, oa=oa)
        if rng.random() < 0.25:
            m2 = m1
        else:
            m2 = random_machine(rng, n_max=6, i_max=3, partial=True, oa=oa)
            if len(m2.input_alphabet) != len(m1.input_alphabet):
                continue
            m2 = DetMoore(
                m1.input_alphabet, oa, m2.n_states, m2.initial,
                m2.transitions, m2.outputs,
            )
        res = equivalent(m1, m2)
        ref = brute_force_equivalent(m1, m2, 2 * m1.n_states * m2.n_states)
        if (res is True) != (ref is True):
            disagreements += 1
        pairs += 1

    sim_failures = 0
    for seed in range(50):
        topo = ("path", "star", "compl")[seed % 3]
        m = rand_mmn(topo, 2, "lean", seed=seed, mean=3.0)
        ind = InducedMoore(m)
        for _ in range(100):
            word = tuple(rng.randrange(len(m.system_inputs)) for _ in range(12))
            traces = simulate(m, word)
            sem = ind.semantics(word)
            for pos, e in enumerate(m.network.system_out_edges):
                if traces[e] != [m.system_outputs.digit(x, pos) for x in sem]:
                    sim_failures += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and sim_failures == 0 and elapsed < 120
    report(
        7, ok,
        "200 pairs, disagreements=%d; 50 MMNs x 100 words, simulate/induced "
        "mismatches=%d (%.1fs)" % (disagreements, sim_failures, elapsed),
    )


def test_criterion_8_theorem_bound_sanity():
    t0 = time.monotonic()
    failures = []

    def check(res, sound):
        # componentwise bounds use summed SUL component sizes; mnl uses the
        # reachable configuration count
        if res.algorithm == "mnl":
            res.sul_total_states = materialize(from_spec(res.benchmark)).n_states
        if not thm_bound_check(res, constant=10.0, sound=sound):
            failures.append((res.benchmark, res.algorithm, res.ca_params))

    grid = [
        ("binctr:5", "mnl", None),
        ("binctr:5", "cwl", None),
        ("binctr:5", "ccwl", CaParams()),
        ("binctr:10", "ccwl", CaParams()),
        ("counter_init", "mnl", None),
        ("counter_init", "cwl", None),
        ("counter_init", "ccwl", CaParams()),
        ("mmn_ex", "ccwl", CaParams()),
        ("mqtt", "ccwl", CaParams()),
        ("mqtt", "cwl", None),
        ("rand:path3:lean", "ccwl", CaParams()),
        ("rand:path3:lean", "cwl", None),
    ]
    for bench, algo, ca in grid:
        cfg = ExperimentConfig(bench, algo, ca_params=ca, seed=1, validate=False)
        res = run_experiment(cfg)
        check(res, sound=True)
    # unsound runs against the extended bound
    for bench in ("binctr:5", "counter_init"):
        cfg = ExperimentConfig(bench, "ccwl", ca_params=CaParams("eq", None, "d", 0),
                               seed=1, validate=False)
        res = run_experiment(cfg)
        check(res, sound=False)
    elapsed = time.monotonic() - t0
    ok = not failures
    report(8, ok, "failures=%r (%.1fs)" % (failures, elapsed))

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from mmnlearn import componentwise, network
from mmnlearn.alphabet import product_alphabet
from mmnlearn.benchmarks import (
    binary_counter,
    counter_with_init,
    from_spec,
    mmn_ex,
    rand_mmn,
)
from mmnlearn.componentwise import (
    OUTPUT_CAP,
    CaBlowupError,
    CaParams,
    _partition_for,
    _walk_quotient,
    analyze_cex_componentwise,
    assemble,
    ccwl,
    cwl,
    mnl,
    one_ext_er,
    resolve_depth,
)
from mmnlearn.lstar import OqCache
from mmnlearn.network import InducedMoore
from mmnlearn.harness import ExperimentConfig, build_sul
from mmnlearn.oracles import EqTestConfig, Sul
from mmnlearn.table import ObservationTable
from tests.test_lstar import reference_hypothesis
from tests.test_machine import identity_partition, partition_from_block_of
from tests.test_network import memo_entries_agree, reference_quotient_mmn


def fresh_tables(sul):
    caches, tables = {}, {}
    for c in sul.components:
        cache = OqCache(partial(sul.oq_c, c), partial(sul.oq_c_lasts, c))
        caches[c] = cache
        tables[c] = ObservationTable(
            sul.component_input_alphabet(c), sul.component_output_alphabet(c),
            cache.lasts,
        )
    return tables, caches


def run_to_fixpoint(sul, params, tables):
    """Close + extend until the 1Ext proposals add nothing."""
    while True:
        for c in sul.components:
            tables[c].close()
        hyp = assemble(sul, tables)
        missing = sorted(
            (c, s, i)
            for (c, s, i) in one_ext_er(hyp, params, tables)
            if s + (i,) not in tables[c]
        )
        if not missing:
            return hyp
        for c, s, i in missing:
            tables[c].add_extension(s + (i,))


# -- CaParams -------------------------------------------------------------------


def test_ca_params_parse_and_soundness():
    p = CaParams.parse("eqk:2", "d:3")
    assert p.abstraction == "eqk" and p.k == 2
    assert p.bound == "d" and p.depth == 3
    assert not p.sound
    assert CaParams.parse("eq", "dinf").sound
    assert not CaParams.parse("uni", "dsum").sound
    with pytest.raises(ValueError):
        CaParams("nope", None, "dinf", None)


@pytest.mark.parametrize("abstraction, bound, quoted", [
    ("eqk:x", "dinf", "'eqk:x'"),
    ("eqk:", "dinf", "'eqk:'"),
    ("eq", "d:", "'d:'"),
    ("eq", "d:1.5", "'d:1.5'"),
    ("eqk:-1", "dinf", "-1"),
    ("eq", "d:-2", "-2"),
])
def test_ca_params_parse_errors_quote_the_spec(abstraction, bound, quoted):
    with pytest.raises(ValueError, match=quoted):
        CaParams.parse(abstraction, bound)


def test_ca_params_reject_stray_k_and_depth():
    # a k or depth the abstraction or bound does not read would print and
    # compare differently from the parameters it stands for
    for bad in (
        lambda: CaParams("uni", 3),
        lambda: CaParams("eq", 0),
        lambda: CaParams("eq", None, "dinf", 2),
        lambda: CaParams("eqk", 1, "dmin", 0),
    ):
        with pytest.raises(ValueError, match="only for"):
            bad()
    assert CaParams.parse("uni", "dinf") == CaParams("uni")
    assert str(CaParams.parse("eqk:1", "d:2")) == "(eqk:1,d:2)"


def test_resolve_depth():
    sul = Sul(binary_counter(5), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    assert resolve_depth(CaParams(), tables) is None
    assert resolve_depth(CaParams("eq", None, "d", 0), tables) == 0
    run_to_fixpoint(sul, CaParams(), tables)
    sizes = [len({t.row(s) for s in t.S}) for t in tables.values()]
    assert resolve_depth(CaParams("eq", None, "dsum"), tables) == sum(sizes) == 14
    assert resolve_depth(CaParams("eq", None, "dmax"), tables) == max(sizes) == 3
    assert resolve_depth(CaParams("eq", None, "dmin"), tables) == min(sizes) == 2


# -- 1Ext -----------------------------------------------------------------------


def test_one_ext_fixpoint_is_empty_on_converged_tables():
    sul = Sul(binary_counter(3), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    hyp = run_to_fixpoint(sul, CaParams(), tables)
    proposals = one_ext_er(hyp, CaParams(), tables)
    assert all(s + (i,) in tables[c] for (c, s, i) in proposals)


def test_one_ext_depth_zero_initial_context_only():
    sul = Sul(binary_counter(3), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    hyp = assemble(sul, tables)
    proposals = one_ext_er(hyp, CaParams("eq", None, "d", 0), tables)
    # at the initial configuration every carry edge holds 0, so only c1
    # sees both input characters
    by_comp = {}
    for c, s, i in proposals:
        by_comp.setdefault(c, set()).add(i)
    assert len(by_comp["c1"]) == 2
    assert len(by_comp["c2"]) == 1 and len(by_comp["c3"]) == 1


def test_one_ext_sound_fixpoint_complete_on_reachable_part():
    sul = Sul(binary_counter(4), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    hyp = run_to_fixpoint(sul, CaParams(), tables)
    ind = InducedMoore(hyp)
    frontier = [0]
    seen = {0}
    while frontier:
        q = frontier.pop()
        for i in hyp.system_inputs:
            t = ind.step(q, i)
            assert t is not None, "induced hypothesis must be complete when sound CA reaches its fixpoint"
            if t not in seen:
                seen.add(t)
                frontier.append(t)


def test_one_ext_abstraction_monotone():
    # coarser abstraction and deeper bound both emit supersets
    sul = Sul(mmn_ex(), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    hyp = run_to_fixpoint(sul, CaParams(), tables)
    fine = one_ext_er(hyp, CaParams(), tables)
    eq0 = one_ext_er(hyp, CaParams("eqk", 0, "dinf", None), tables)
    uni = one_ext_er(hyp, CaParams("uni", None, "dinf", None), tables)
    assert fine <= eq0 <= uni
    d0 = one_ext_er(hyp, CaParams("eq", None, "d", 0), tables)
    d2 = one_ext_er(hyp, CaParams("eq", None, "d", 2), tables)
    assert d0 <= d2 <= fine
    # a finer partition's quotient walk reaches no more than a coarser one's
    for seed in range(4):
        sul = Sul(rand_mmn("path", 2, "lean", seed=seed, mean=3.0), EqTestConfig(seed=0))
        tables, _ = fresh_tables(sul)
        hyp = run_to_fixpoint(sul, CaParams(), tables)
        fine, eq1, eq0, uni = (
            one_ext_er(hyp, CaParams.parse(a, "dinf"), tables)
            for a in ("eq", "eqk:1", "eqk:0", "uni")
        )
        assert fine <= eq1 <= eq0 <= uni


@pytest.mark.parametrize("bound", ["dinf", "d:0", "d:1", "d:3", "dsum", "dmax", "dmin"])
def test_ccwl_context_walk_matches_reference_every_round(monkeypatch, bound):
    # Whole ccwl runs: the eq analysis walks the epoch's system machine,
    # resuming under dinf and re-walking the memo under the other bounds,
    # while the EQs intern configurations of their own between rounds.  In
    # every round its proposals must equal the reference quotient walk's
    # over identity partitions of the same hypothesis.  Rounds are told
    # apart by where the walk starts: the first round of a new epoch (a
    # fresh memo), a round right after a fall-off counterexample, or a later
    # round of the epoch ("later"; "grew" if its walk interned
    # configurations the memo lacked).
    params = CaParams.parse("eq", bound)
    kinds = set()
    for spec in ("binctr:4", "mqtt", "rand:star3:lean:mean=5:seed=0",
                 "rand:compl3:rich:mean=5:seed=1"):
        sul = build_sul(ExperimentConfig(spec, "ccwl", ca_params=params), 0)
        last = {"induced": None, "fell_off": False}

        def checking_one_ext_er(hyp, params, tables, induced, partitions):
            assert induced.mmn is hyp
            if induced is not last["induced"]:
                kind = "new epoch" if last["induced"] else "first"
            else:
                kind = "after fall-off" if last["fell_off"] else "later"
            last.update(induced=induced, fell_off=False)
            known = induced.n_explored()
            got = one_ext_er(hyp, params, tables, induced, partitions)
            ids = {c: identity_partition(hyp.machines[c]) for c in hyp.components}
            depth = resolve_depth(params, tables)
            assert got == reference_walk_quotient(
                hyp, reference_quotient_mmn(hyp, ids), ids, tables, depth,
            )
            # The walk hands out frozen copies of the pairs that a resumed
            # walk extends, and walking again changes nothing.
            received = induced.contexts(depth)
            assert all(type(pairs) is frozenset for pairs in received)
            assert one_ext_er(hyp, params, tables, induced) == got
            kinds.add(kind)
            if kind == "later" and induced.n_explored() > known:
                kinds.add("grew")
            return got

        def checking_eq(ind):
            verdict = sul.eq(ind)
            if verdict is not True:
                last["fell_off"] = len(ind.trajectory(verdict.word)) <= len(verdict.word)
            return verdict

        monkeypatch.setattr(componentwise, "one_ext_er", checking_one_ext_er)
        res = ccwl(sul, params, eq=checking_eq)
        assert sul.validate_exact(res.mmn) is True
    # Only the sound bound leaves no hypothesis to fall off, and only depth
    # 0 never steps the memo.
    fall_off = {"after fall-off"} if bound != "dinf" else set()
    grew = {"grew"} if bound != "d:0" else set()
    assert kinds == {"first", "new epoch", "later"} | fall_off | grew


def reference_walk_quotient(hypothesis, quotients, partitions, tables, depth):
    """Context analysis on whole ``NondetMoore`` quotients of the hypothesis
    components, every block's moves built up front: the reference for
    ``_walk_quotient``, which reads block moves off the hypothesis tables
    only for the blocks it expands.

    An abstract configuration holds one block per component, and a block
    emits every output of its states.  Per block and bases, the block's
    targets on every system input (the union over the bases plus that
    input's system-input part) are computed once, also on the last level,
    which is recorded but not expanded.
    """
    comps = hypothesis.components
    wiring = hypothesis.network.wiring
    sys_parts, feeds = wiring.sys_parts, wiring.feeds
    outputs = [quotients[c].outputs for c in comps]
    transitions = [quotients[c].transitions for c in comps]
    moves = [[{} for _ in trans] for trans in transitions]

    start = tuple(
        partitions[c].block_of[q]
        for c, q in zip(comps, hypothesis.initial_configuration())
    )
    seen = {start}
    frontier = [start]
    level = 0
    while frontier:
        expand = depth is None or level < depth
        nxt = []
        for cfg in frontier:
            out_sets = [o[b] for o, b in zip(outputs, cfg)]
            combos = 1
            for outs in out_sets:
                combos *= len(outs)
            if combos > OUTPUT_CAP:
                raise CaBlowupError("reference walk hit the output cap")
            targets = []
            for k, b in enumerate(cfg):
                bases = (0,)
                for src, stride, size, tstride in feeds[k]:
                    digits = sorted({(v // stride) % size for v in out_sets[src]})
                    bases = tuple(x + d * tstride for x in bases for d in digits)
                known = moves[k][b]
                t = known.get(bases)
                if t is None:
                    row = transitions[k][b]
                    t = known[bases] = [
                        frozenset().union(*(row.get(x + p, ()) for x in bases))
                        for p in sys_parts[k]
                    ]
                targets.append(t)
            if expand:
                for per_comp in zip(*targets):
                    for succ in itertools.product(*per_comp):
                        if succ not in seen:
                            seen.add(succ)
                            nxt.append(succ)
        if not expand:
            break
        frontier = nxt
        level += 1

    emitted = set()
    for k, c in enumerate(comps):
        received = [
            {x + p for bases in known for x in bases for p in sys_parts[k]}
            for known in moves[k]
        ]
        for q, s in enumerate(tables[c].S):
            emitted.update((c, s, i) for i in received[partitions[c].block_of[q]])
    return emitted


def proposed(hypothesis, tables, received):
    """``one_ext_er``'s rule on a walk's per-component (state, base) pairs:
    the state's access string with base plus each system-input part."""
    sys_parts = hypothesis.network.wiring.sys_parts
    return {
        (c, tables[c].S[q], base + part)
        for c, pairs, sys_part in zip(hypothesis.components, received, sys_parts)
        for q, base in pairs for part in sys_part
    }


def assert_every_round_matches(spec, params, reference):
    """Run a close/extend/EQ loop (exact EQs) under ``params``; on every
    round, partial hypotheses included, ``one_ext_er`` must equal
    ``reference(hyp, tables)``.  Returns (rounds that added extensions,
    EQs whose counterexample falls off the hypothesis)."""
    sul = Sul(from_spec(spec), EqTestConfig(seed=0))
    tables, caches = fresh_tables(sul)
    extended_rounds = fell_off_cexs = 0
    for _ in range(500):
        for c in sul.components:
            tables[c].close()
        hyp = assemble(sul, tables)
        fast = one_ext_er(hyp, params, tables)
        assert fast == reference(hyp, tables)
        missing = sorted((c, s, i) for (c, s, i) in fast if s + (i,) not in tables[c])
        if missing:
            # some visited configuration has no move on some input
            extended_rounds += 1
            for c, s, i in missing:
                tables[c].add_extension(s + (i,))
            continue
        ind = InducedMoore(hyp)
        verdict = sul.exact_eq(ind)
        if verdict is True:
            break
        if len(ind.trajectory(verdict.word)) <= len(verdict.word):
            fell_off_cexs += 1
        analyze_cex_componentwise(ind, verdict.word, sul, tables, caches)
    else:
        pytest.fail("no convergence within 500 rounds")
    assert extended_rounds > 0
    assert sul.validate_exact(hyp) is True
    return extended_rounds, fell_off_cexs


WALK_SPECS = [
    "mmn_ex", "counter_init", "binctr:4", "mqtt",
    "rand:star3:lean:mean=5:seed=0", "rand:compl3:rich:mean=5:seed=1",
]


@pytest.mark.parametrize("bound", ["dinf", "d:0", "d:1", "d:2", "dmin"])
@pytest.mark.parametrize("spec", WALK_SPECS)
def test_one_ext_eq_matches_generic_walk_on_identity_quotient(spec, bound):
    # The eq abstraction walks the deterministic hypothesis directly; the
    # reference quotient walk over identity partitions is its reference, and
    # the library's quotient walk over them must agree too.
    params = CaParams.parse("eq", bound)

    def reference(hyp, tables):
        partitions = {
            c: identity_partition(hyp.machines[c]) for c in hyp.components
        }
        depth = resolve_depth(params, tables)
        want = reference_walk_quotient(
            hyp, reference_quotient_mmn(hyp, partitions), partitions, tables, depth,
        )
        assert proposed(hyp, tables, _walk_quotient(
            hyp, partitions, hyp.quotient_mmn(partitions), depth)) == want
        return want

    _, fell_off = assert_every_round_matches(spec, params, reference)
    assert (fell_off > 0) == (bound != "dinf")


@pytest.mark.parametrize("bound", ["d:0", "d:1", "dinf", "dmin"])
@pytest.mark.parametrize("abstraction", ["eqk:0", "eqk:1", "uni", "pairs"])
@pytest.mark.parametrize("spec", WALK_SPECS)
def test_quotient_walk_matches_reference_quotient_walk(spec, abstraction, bound):
    # The quotient walk reads block moves off the hypothesis tables, only
    # for the blocks it expands; the reference walks whole quotients.
    # "pairs" is a hand-made partition, neither eqk nor uni, merging states
    # 2j and 2j+1 whatever their outputs: its blocks read several bases and
    # reach several blocks, which no built-in abstraction shows.  Its rounds
    # are driven by eqk:0.
    params = CaParams.parse("eqk:0" if abstraction == "pairs" else abstraction, bound)

    def reference(hyp, tables):
        depth = resolve_depth(params, tables)
        if abstraction == "pairs":
            pairs = {
                c: partition_from_block_of(m.n_states, [q // 2 for q in range(m.n_states)])
                for c, m in hyp.machines.items()
            }
            assert proposed(hyp, tables, _walk_quotient(
                hyp, pairs, hyp.quotient_mmn(pairs), depth,
            )) == reference_walk_quotient(
                hyp, reference_quotient_mmn(hyp, pairs), pairs, tables, depth,
            )
        partitions = {
            c: _partition_for(params, hyp.machines[c]) for c in hyp.components
        }
        return reference_walk_quotient(
            hyp, reference_quotient_mmn(hyp, partitions), partitions, tables, depth,
        )

    _, fell_off = assert_every_round_matches(spec, params, reference)
    # Unsound bounds leave EQs partial hypotheses to fall off, except under
    # uni, whose single block per component receives every character.
    assert (fell_off > 0) == (bound != "dinf" and abstraction != "uni")


_HASH_SEED_PROBE = """
import json
from mmnlearn.benchmarks import from_spec
from mmnlearn.componentwise import CaParams, ccwl, cwl, mnl
from mmnlearn.oracles import EqTestConfig, Sul
runs = []
learners = [mnl, cwl] + [
    lambda sul, ca=ca: ccwl(sul, CaParams.parse(*ca))
    for ca in (("uni", "d:0"), ("eqk:0", "d:0"), ("eq", "dinf"), ("eq", "dmin"))
]
for learn in learners:
    sul = Sul(from_spec("mqtt"), EqTestConfig(seed=0))
    res = learn(sul)
    runs.append([sul.stats.snapshot(), res.n_states, res.n_transitions])
print(json.dumps(runs))
"""


def test_ccwl_counts_independent_of_hash_seed():
    """The probe's counts of ``mnl``, ``cwl`` and ``ccwl`` on ``mqtt``
    match under two hash seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]


def test_one_ext_output_cap_diagnostic(monkeypatch):
    sul = Sul(mmn_ex(), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    hyp = run_to_fixpoint(sul, CaParams(), tables)
    monkeypatch.setattr(componentwise, "OUTPUT_CAP", 1)
    with pytest.raises(CaBlowupError):
        one_ext_er(hyp, CaParams("uni", None, "d", 0), tables)


# -- the three algorithms ----------------------------------------------------------


def test_mnl_matches_component_lstar_on_single_component_network():
    mmn = rand_mmn("path", 1, "lean", seed=5, mean=3.0)
    sul = Sul(mmn, EqTestConfig(seed=5))
    res = mnl(sul)
    assert sul.validate_exact(res.machine) is True


def test_cwl_assembles_validating_system():
    for spec_mmn in (binary_counter(4), counter_with_init()):
        sul = Sul(spec_mmn, EqTestConfig(seed=3))
        res = cwl(sul)
        assert sul.validate_exact(res.mmn) is True


def test_ccwl_binary_counter_exact_counts():
    sul = Sul(binary_counter(5), EqTestConfig(seed=1))
    res = ccwl(sul, CaParams())
    assert res.n_states == 14
    assert res.n_transitions == 25
    assert sul.stats.eq_count == 1
    assert sul.stats.oq_resets == 30
    assert sul.stats.oq_steps == 45
    assert sul.validate_exact(res.mmn) is True


def test_ccwl_prunes_unreachable_counter_half():
    sul = Sul(counter_with_init(), EqTestConfig(seed=1))
    res = ccwl(sul, CaParams())
    assert res.mmn.machines["c2"].n_states == 3  # error cycle never learned
    assert sul.validate_exact(res.mmn) is True
    # the error half is observable in isolation
    full = counter_with_init().machines["c2"]
    assert full.n_states == 7


def test_ccwl_eq_d0_unsound_terminates_validated():
    sul = Sul(binary_counter(5), EqTestConfig(seed=1))
    res = ccwl(sul, CaParams("eq", None, "d", 0))
    assert sul.stats.eq_count >= 5
    assert sul.validate_exact(res.mmn) is True


def test_ccwl_pruning_dominance_per_component():
    for mmn_fn in (counter_with_init, lambda: binary_counter(5)):
        a = Sul(mmn_fn(), EqTestConfig(seed=2))
        ra = ccwl(a, CaParams())
        b = Sul(mmn_fn(), EqTestConfig(seed=2))
        rb = cwl(b)
        for c in ra.mmn.components:
            assert ra.mmn.machines[c].n_states <= rb.mmn.machines[c].n_states


def test_cwl_rejects_partial_component_with_clear_error():
    # the example system's c2 has a dead-end state: naive componentwise
    # learning drives queries past it and must fail loudly, while the
    # contextual learner never goes there
    from mmnlearn.table import SpuriousCounterexampleError

    sul = Sul(mmn_ex(), EqTestConfig(seed=2))
    with pytest.raises(SpuriousCounterexampleError, match="partial"):
        cwl(sul)
    assert sul.contract_violations > 0

    sul2 = Sul(mmn_ex(), EqTestConfig(seed=2))
    res = ccwl(sul2, CaParams())
    assert sul2.contract_violations == 0
    assert sul2.validate_exact(res.mmn) is True


def test_analyze_cex_componentwise_rejects_a_word_without_a_difference():
    # The hypothesis is the SUL itself: the word never falls off, and every
    # tick's total output agrees, so the word is no counterexample.
    from mmnlearn.table import SpuriousCounterexampleError

    sul = Sul(binary_counter(3), EqTestConfig(seed=0))
    induced = InducedMoore(sul._mmn)
    word = (1, 0, 1, 1, 1)
    with pytest.raises(SpuriousCounterexampleError, match="no difference in total outputs"):
        analyze_cex_componentwise(induced, word, sul, {}, {})
    assert sul.stats.oq_resets == len(sul.components)  # the one total query


def test_ccwl_correct_under_exact_eq_on_random_mmns():
    for seed in range(4):
        mmn = rand_mmn("path", 2, "lean", seed=seed, mean=3.0)
        sul = Sul(mmn, EqTestConfig(seed=seed))
        res = ccwl(sul, CaParams(), eq=sul.exact_eq)
        assert sul.validate_exact(res.mmn) is True


def test_ccwl_all_params_exact_eq_small_benchmarks():
    params = [
        CaParams(),
        CaParams("eqk", 0, "dinf", None),
        CaParams("uni", None, "d", 0),
        CaParams("eq", None, "d", 0),
    ]
    for p in params:
        sul = Sul(binary_counter(3), EqTestConfig(seed=7))
        res = ccwl(sul, p, eq=sul.exact_eq)
        assert sul.validate_exact(res.mmn) is True, str(p)


def test_ccwl_uni_d0_binary_counter_counts():
    sul = Sul(binary_counter(10), EqTestConfig(seed=1))
    res = ccwl(sul, CaParams("uni", None, "d", 0))
    assert (res.n_states, res.n_transitions) == (29, 58)
    assert sul.stats.oq_resets == 68
    assert sul.stats.oq_steps == 114
    assert sul.stats.eq_count == 1


def test_ccwl_event_log():
    log = []
    sul = Sul(binary_counter(2), EqTestConfig(seed=1))
    ccwl(sul, CaParams(), event_log=log)
    assert any(line.startswith("round") for line in log)
    assert log[-1].startswith("eq yes")
    # Each EQ reports the configurations its epoch's system machine already
    # held besides the initial one, interned by the context analysis or by
    # earlier EQs of the epoch: none in the first epoch's first EQ, as
    # depth 0 visits only the initial configuration, some once a fall-off
    # counterexample kept the epoch going.
    log = []
    sul = Sul(binary_counter(4), EqTestConfig(seed=5))
    ccwl(sul, CaParams("eq", None, "d", 0), event_log=log)
    issued = [line for line in log if line.startswith("eq issued")]
    known = [int(line.split("known=")[1]) for line in issued]
    assert len(known) == len(issued) > 1
    assert known[0] == 0 and max(known[1:]) > 0


def test_ccwl_event_log_pinned_on_mqtt():
    # The whole log of one job: a round line per round, an "eq issued" line
    # per EQ, and after each counterexample exactly one analyzer line.
    params = CaParams.parse("eqk:0", "d:0")
    sul = build_sul(ExperimentConfig("mqtt", "ccwl", ca_params=params), 0)
    log = []
    ccwl(sul, params, event_log=log)
    kinds = [" ".join(line.split()[:2]) for line in log]
    assert len(log) == 347
    assert kinds.count("eq cex") == 85 and kinds.count("eq issued") == 86
    assert kinds.count("cex missing-transition") == 80
    assert kinds.count("cex wrong-output") == 5
    assert [b.split()[0] for a, b in zip(kinds, kinds[1:]) if a == "eq cex"] == ["cex"] * 85
    assert log[-1] == "eq yes after 86 queries"
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert digest == "e910371e6c3123ca1f4451849062c9554927c0cc3f74b72b1f7f1b79d360de34"


@pytest.mark.parametrize("spec, ca", [
    ("mqtt", "eqk:0,d:0"), ("rand:star3:lean:mean=5:seed=2", "eq,dmin"),
])
def test_analyze_cex_componentwise_returns_its_branch(monkeypatch, spec, ca):
    # The analyzer returns (component, tick): tick is None exactly when the
    # word falls off the hypothesis, and then the component's R grew; else
    # its E grew and tick is the first tick whose total outputs differ.
    # No other table changes.
    params = CaParams.parse(*ca.split(","))
    sul = build_sul(ExperimentConfig(spec, "ccwl", ca_params=params), 0)
    analyze = componentwise.analyze_cex_componentwise
    branches = []

    def checking_analyze(induced, word, sul, tables, caches):
        configs = induced.trajectory(word)
        fell_off = len(configs) <= len(word)
        if not fell_off:
            observed = sul.oq_bar(word)
            first = next(t for t, config in enumerate(configs)
                         if observed[t] != induced.mmn.total_output(config))
        sizes = {c: (len(t.S), len(t.R), len(t.E)) for c, t in tables.items()}
        c, tick = analyze(induced, word, sul, tables, caches)
        after = {c: (len(t.S), len(t.R), len(t.E)) for c, t in tables.items()}
        assert (tick is None) == fell_off
        s, r, e = sizes[c]
        if fell_off:
            assert after[c][0] == s and after[c][1] > r and after[c][2] == e
        else:
            assert tick == first
            assert after[c][:2] == (s, r) and after[c][2] > e
        assert {k: v for k, v in after.items() if k != c} == {
            k: v for k, v in sizes.items() if k != c}
        branches.append(tick is None)
        return c, tick

    monkeypatch.setattr(componentwise, "analyze_cex_componentwise", checking_analyze)
    ccwl(sul, params)
    assert True in branches and False in branches


@pytest.mark.parametrize("ca", ["eqk:0,d:0", "eq,dmin", "eq,dinf"])
def test_ccwl_keeps_the_eq_product_per_epoch_and_releases_it(ca):
    # After every EQ with a counterexample the SUL keeps the product for the
    # epoch's memo; the last EQ drops it, so ccwl returns with none kept.
    params = CaParams.parse(*ca.split(","))
    sul = build_sul(ExperimentConfig("mqtt", "ccwl", ca_params=params), 0)
    kept = []

    def recording_eq(ind):
        verdict = sul.eq(ind)
        kept.append(sul._product is not None and sul._product[0] is ind)
        return verdict

    res = ccwl(sul, params, eq=recording_eq)
    assert sul._product is None
    assert len(kept) > 1 and all(kept[:-1]) and not kept[-1]
    assert sul.validate_exact(res.mmn) is True


@pytest.mark.parametrize("ca", ["eqk:0,d:0", "eqk:1,dmin", "uni,d:0"])
def test_ccwl_partitions_each_hypothesis_machine_once(monkeypatch, ca):
    # Tables hand out the same machine while unchanged, and ccwl keeps the
    # partitions per machine: each machine is partitioned once, fewer times
    # than once per component and round.
    params = CaParams.parse(*ca.split(","))
    sul = build_sul(ExperimentConfig("mqtt", "ccwl", ca_params=params), 0)
    built = []  # holds the machines, so their ids stay unique

    def counting_partition_for(params, machine):
        built.append(machine)
        return _partition_for(params, machine)

    monkeypatch.setattr(componentwise, "_partition_for", counting_partition_for)
    log = []
    assert sul.validate_exact(ccwl(sul, params, event_log=log).mmn) is True
    rounds = sum(line.startswith("round ") for line in log)
    assert len({id(m) for m in built}) == len(built)
    assert len(sul.components) <= len(built) < rounds * len(sul.components)


@pytest.mark.parametrize("ca", ["eqk:0,d:0", "eqk:1,dinf", "uni,d:1"])
def test_one_ext_er_rebuilds_only_the_changed_tables_quotient(ca):
    # one_ext_er keeps each component's machine, partition and block output
    # sets; after only one table changed, only that component's kept entry
    # is a new object, and the proposals equal those of a fresh walk.
    params = CaParams.parse(*ca.split(","))
    sul = Sul(from_spec("mqtt"), EqTestConfig(seed=0))
    tables, _ = fresh_tables(sul)
    kept = {}
    one_ext_er(assemble(sul, tables), params, tables, None, kept)
    before = dict(kept)
    changed = sul.components[1]
    tables[changed].add_extension((0,))
    for c in sul.components:
        tables[c].close()
    hyp = assemble(sul, tables)
    got = one_ext_er(hyp, params, tables, None, kept)
    assert got == one_ext_er(hyp, params, tables)
    assert [c for c in sul.components if kept[c] is not before[c]] == [changed]
    machine, partition, outputs = kept[changed]
    assert machine is hyp.machines[changed]
    assert partition == _partition_for(params, machine)
    assert outputs == hyp.quotient_mmn({changed: partition})[changed]


def test_analyze_cex_progress_across_eq_rounds():
    # with depth 0 every EQ round must grow some table
    sul = Sul(binary_counter(4), EqTestConfig(seed=5))
    tables, caches = fresh_tables(sul)
    sizes = []
    for _ in range(60):
        for c in sul.components:
            tables[c].close()
        hyp = assemble(sul, tables)
        missing = sorted(
            (c, s, i)
            for (c, s, i) in one_ext_er(hyp, CaParams("eq", None, "d", 0), tables)
            if s + (i,) not in tables[c]
        )
        if missing:
            for c, s, i in missing:
                tables[c].add_extension(s + (i,))
            continue
        ind = InducedMoore(hyp)
        verdict = sul.eq(ind)
        if verdict is True:
            break
        total = sum(len(t.S) + len(t.R) + len(t.E) for t in tables.values())
        analyze_cex_componentwise(ind, verdict.word, sul, tables, caches)
        total_after = sum(len(t.S) + len(t.R) + len(t.E) for t in tables.values())
        assert total_after > total
        sizes.append((total, total_after))
    assert sul.validate_exact(assemble(sul, tables)) is True


def test_ccwl_rounds_share_the_network_wiring(monkeypatch):
    params = CaParams.parse("eqk:0", "d:0")
    sul = build_sul(ExperimentConfig("mqtt", "ccwl", ca_params=params), 0)
    hypotheses = []
    products = []

    def recording_assemble(sul, tables):
        hypotheses.append(assemble(sul, tables))
        return hypotheses[-1]

    def counting_product(factors):
        products.append(factors)
        return product_alphabet(factors)

    monkeypatch.setattr(componentwise, "assemble", recording_assemble)
    monkeypatch.setattr(network, "product_alphabet", counting_product)
    res = ccwl(sul, params)
    assert res.mmn is hypotheses[-1] and len(hypotheses) > 1
    assert products == []
    assert {id(h.network.wiring) for h in hypotheses} == {id(sul.network.wiring)}


@pytest.mark.parametrize("ca", ["eq,dinf", "eqk:0,d:0"])
def test_ccwl_completion_is_one_batch_per_table(monkeypatch, ca):
    """A round adds each table's missing rows with one ``add_extension``
    call, which asks its component's oracle at most one batch."""
    params = CaParams.parse(*ca.split(","))
    sul = build_sul(ExperimentConfig("mqtt", "ccwl", ca_params=params), 0)
    rounds, batches = [], []
    add_extension, oq_c_lasts = ObservationTable.add_extension, Sul.oq_c_lasts

    def round_assemble(sul, tables):
        rounds.append([])
        return assemble(sul, tables)

    def logged_add_extension(table, *prefixes):
        asked = len(batches)
        add_extension(table, *prefixes)
        rounds[-1].append((table, len(prefixes), len(batches) - asked))

    def logged_oq_c_lasts(sul, c, words):
        batches.append(len(words))
        return oq_c_lasts(sul, c, words)

    monkeypatch.setattr(componentwise, "assemble", round_assemble)
    monkeypatch.setattr(ObservationTable, "add_extension", logged_add_extension)
    monkeypatch.setattr(Sul, "oq_c_lasts", logged_oq_c_lasts)
    assert sul.validate_exact(ccwl(sul, params).mmn) is True
    calls = [call for r in rounds for call in r]
    for r in rounds:
        assert len({id(table) for table, _, _ in r}) == len(r)
    assert all(asked <= 1 for _, _, asked in calls)
    assert max(n for _, n, _ in calls) > 1
    assert sum(asked for _, _, asked in calls) > 0


@pytest.mark.parametrize("ca", ["eq,dinf", "eqk:0,d:0", "eq,dmin"])
@pytest.mark.parametrize("spec", ["binctr:5", "mqtt", "rand:path3:lean:mean=5:seed=0"])
def test_ccwl_epoch_invariant(monkeypatch, spec, ca):
    # Every round's table hypotheses equal a from-scratch build, the EQs of
    # one epoch (no suffix added in between) share one system machine, and
    # its memo agrees with the current hypothesis before and after each EQ.
    params = CaParams.parse(*ca.split(","))
    sul = build_sul(ExperimentConfig(spec, "ccwl", ca_params=params), 0)
    rounds, eqs, checked = [], [], []

    def checking_assemble(sul, tables):
        for t in tables.values():
            assert t.hypothesis() == reference_hypothesis(t)
        rounds.append((assemble(sul, tables), sum(len(t.E) for t in tables.values())))
        return rounds[-1][0]

    def checking_eq(ind):
        hyp, suffixes = rounds[-1]
        assert ind.mmn is hyp
        if eqs:
            last, last_suffixes = eqs[-1]
            assert (ind is last) == (suffixes == last_suffixes)
        eqs.append((ind, suffixes))
        memo_entries_agree(ind)
        verdict = sul.eq(ind)
        checked.append(memo_entries_agree(ind))
        return verdict

    monkeypatch.setattr(componentwise, "assemble", checking_assemble)
    ccwl(sul, params, eq=checking_eq)
    assert len(rounds) > 1 and sum(checked) > 0


def test_rebind_forgets_memoized_falloffs():
    sul = Sul(mmn_ex(), EqTestConfig(seed=0))
    tables, caches = fresh_tables(sul)
    hyp = assemble(sul, tables)  # no transitions yet
    ind = InducedMoore(hyp)
    w = (sul.system_inputs.symbol("(a,c)"),) * 3
    before = ind.semantics(w)
    assert len(before) == 1 and ind._trans[0][w[0]] is None  # memoized fall-off
    for _ in hyp.components:  # each component lacks its tick-0 move
        assert len(ind.semantics(w)) == 1
        analyze_cex_componentwise(ind, w, sul, tables, caches)  # adds one row
        for t in tables.values():
            t.close()
        hyp = assemble(sul, tables)
        ind.rebind(hyp)
    after = ind.semantics(w)
    assert len(after) > len(before)
    assert after == InducedMoore(hyp).semantics(w)

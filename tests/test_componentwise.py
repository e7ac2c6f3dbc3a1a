import random

import pytest

from mmnlearn import componentwise
from mmnlearn.benchmarks import (
    binary_counter,
    counter_with_init,
    from_spec,
    mmn_ex,
    rand_mmn,
)
from mmnlearn.componentwise import (
    CaBlowupError,
    CaParams,
    _walk_quotient,
    analyze_cex_componentwise,
    assemble,
    ccwl,
    cwl,
    mnl,
    one_ext_er,
    resolve_depth,
)
from mmnlearn.machine import identity_partition
from mmnlearn.lstar import OqCache
from mmnlearn.network import InducedMoore
from mmnlearn.oracles import EqTestConfig, Sul
from mmnlearn.table import ObservationTable


def fresh_tables(sul):
    caches, tables = {}, {}
    for c in sul.components:
        cache = OqCache(lambda w, c=c: sul.oq_c(c, w))
        caches[c] = cache
        tables[c] = ObservationTable(
            sul.component_input_alphabet(c), sul.component_output_alphabet(c),
            cache.last,
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


@pytest.mark.parametrize("bound", ["dinf", "d:0", "d:1", "d:2", "dmin"])
@pytest.mark.parametrize("spec", [
    "mmn_ex", "counter_init", "binctr:4", "mqtt",
    "rand:star3:lean:mean=5:seed=0", "rand:compl3:rich:mean=5:seed=1",
])
def test_one_ext_eq_matches_generic_walk_on_identity_quotient(spec, bound):
    # The eq abstraction walks the deterministic hypothesis directly; the
    # generic quotient walk over identity partitions is its reference, on
    # every round of a close/extend/EQ loop, partial hypotheses included.
    params = CaParams.parse("eq", bound)
    sul = Sul(from_spec(spec), EqTestConfig(seed=0))
    tables, caches = fresh_tables(sul)
    fell_off_rounds = 0
    for _ in range(500):
        for c in sul.components:
            tables[c].close()
        hyp = assemble(sul, tables)
        fast = one_ext_er(hyp, params, tables)
        partitions = {
            c: identity_partition(hyp.machines[c]) for c in hyp.components
        }
        reference = _walk_quotient(
            hyp.quotient_mmn(partitions), partitions, tables,
            resolve_depth(params, tables),
        )
        assert fast == reference
        missing = sorted((c, s, i) for (c, s, i) in fast if s + (i,) not in tables[c])
        if missing:
            # some visited configuration has no move on some input
            fell_off_rounds += 1
            for c, s, i in missing:
                tables[c].add_extension(s + (i,))
            continue
        verdict = sul.exact_eq(InducedMoore(hyp))
        if verdict is True:
            break
        analyze_cex_componentwise(hyp, verdict.word, sul, tables, caches)
    else:
        pytest.fail("no convergence within 500 rounds")
    assert fell_off_rounds > 0
    assert sul.validate_exact(hyp) is True


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
        verdict = sul.eq(InducedMoore(hyp))
        if verdict is True:
            break
        total = sum(len(t.S) + len(t.R) + len(t.T) for t in tables.values())
        analyze_cex_componentwise(hyp, verdict.word, sul, tables, caches)
        total_after = sum(len(t.S) + len(t.R) + len(t.T) for t in tables.values())
        assert total_after > total
        sizes.append((total, total_after))
    assert sul.validate_exact(assemble(sul, tables)) is True

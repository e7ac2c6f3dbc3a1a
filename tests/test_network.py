import random
from dataclasses import replace

import pytest

import mmnlearn
from mmnlearn.alphabet import Alphabet, unit_alphabet
from mmnlearn.benchmarks import binary_counter, mmn_ex, rand_mmn
from mmnlearn.machine import DetMoore, partition_eq_k, partition_uni, identity_partition
from mmnlearn.network import (
    InducedMoore,
    Mmn,
    Network,
    NetworkError,
    NODE_COMPONENT,
    NODE_INPUT,
    NODE_OUTPUT,
    validate,
)


def names(alpha, syms):
    return [alpha.name(s) for s in syms]


# -- validation ----------------------------------------------------------------


def test_example_network_validates():
    assert validate(mmn_ex()) == []


def test_missing_output_nodes_diagnosed():
    nodes = [("i", NODE_INPUT), ("c", NODE_COMPONENT)]
    edges = [("i", "c", Alphabet(["a"])), ("c", "c", Alphabet(["b"]))]
    net = Network(nodes, edges)
    assert any("output nodes empty" in d for d in net.diagnostics())


def test_alphabet_accordance_diagnosed():
    m = mmn_ex()
    bad = DetMoore(
        Alphabet(["only"]), m.machines["c1"].output_alphabet, 1, 0, ({0: 0},), (0,)
    )
    diags = Mmn(m.network, {**m.machines, "c1": bad}, check=False).diagnostics()
    assert any("'c1' input alphabet" in d for d in diags)
    with pytest.raises(NetworkError):
        Mmn(m.network, {**m.machines, "c1": bad})


def test_duplicate_edges_rejected():
    with pytest.raises(NetworkError):
        Network(
            [("i", NODE_INPUT), ("c", NODE_COMPONENT), ("o", NODE_OUTPUT)],
            [("i", "c", Alphabet(["a"])), ("i", "c", Alphabet(["b"])),
             ("c", "o", Alphabet(["x"]))],
        )


# -- system alphabets and restriction -------------------------------------------


def test_system_alphabets_match_worked_example():
    m = mmn_ex()
    assert m.system_inputs.names() == ["(a,c)", "(a,d)", "(b,c)", "(b,d)"]
    assert m.system_outputs.names() == ["(x,z)", "(x,w)", "(y,z)", "(y,w)"]
    assert len(m.total_outputs) == 16
    ic1 = m.network.component_input_alphabet("c1")
    assert ic1.names() == ["(a,3)", "(a,4)", "(b,3)", "(b,4)"]
    oc1 = m.network.component_output_alphabet("c1")
    assert oc1.names() == ["(x,1)", "(x,2)", "(y,1)", "(y,2)"]
    ic2 = m.network.component_input_alphabet("c2")
    assert ic2.names() == ["(c,1)", "(c,2)", "(d,1)", "(d,2)"]
    oc2 = m.network.component_output_alphabet("c2")
    assert oc2.names() == ["(z,3)", "(z,4)", "(w,3)", "(w,4)"]


def test_component_input_restriction_example():
    # system input (a,c) with total output ((x,1),(z,3)) feeds (a,3) to c1
    m = mmn_ex()
    cfg = m.initial_configuration()
    outs = m.total_output(cfg)
    i = m.system_inputs.symbol("(a,c)")
    i_c1 = m.component_input("c1", i, outs)
    assert m.machines["c1"].input_alphabet.name(i_c1) == "(a,3)"
    i_c2 = m.component_input("c2", i, outs)
    assert m.machines["c2"].input_alphabet.name(i_c2) == "(c,1)"


def test_restrict_over_empty_edge_set_is_unit():
    m = mmn_ex()
    unit = unit_alphabet()
    assert m.system_inputs.restrict_to(unit, 3) == 0


# -- total output and transitions ------------------------------------------------


def test_total_output_initial():
    m = mmn_ex()
    outs = m.total_output(m.initial_configuration())
    assert m.machines["c1"].output_alphabet.name(outs[0]) == "(x,1)"
    assert m.machines["c2"].output_alphabet.name(outs[1]) == "(z,3)"


def test_uni_quotient_total_output_sets():
    m = mmn_ex()
    q = m.quotient_mmn({c: partition_uni(m.machines[c]) for c in m.components})
    sets = q.total_output_sets(q.initial_configuration())
    assert len(sets[0]) == 2 and len(sets[1]) == 4  # 2 x 4 = 8 tuples


def test_system_transition_example():
    m = mmn_ex()
    cfg = m.initial_configuration()
    nxt = m.system_transition(cfg, m.system_inputs.symbol("(a,c)"))
    assert nxt == (1, 0)  # c1 latches, c2 loops


def test_system_transition_fixed_point():
    ia = Alphabet(["a"])
    nodes = [("i", NODE_INPUT), ("c", NODE_COMPONENT), ("o", NODE_OUTPUT)]
    edges = [("i", "c", ia), ("c", "o", Alphabet(["x"]))]
    net = Network(nodes, edges)
    m = DetMoore(
        net.component_input_alphabet("c"), net.component_output_alphabet("c"),
        1, 0, ({0: 0},), (0,),
    )
    mmn = Mmn(net, {"c": m})
    assert mmn.system_transition((0,), 0) == (0,)


def test_system_transition_absent_when_component_stuck():
    m = mmn_ex()
    # configuration with c2 in its transition-less (z,4) state
    for i in m.system_inputs:
        assert m.system_transition((1, 2), i) is None
    # started in c2's state 1, c1's first output sends c2 into (z,4),
    # where the run stops
    stuck = Mmn(m.network, {**m.machines, "c2": replace(m.machines["c2"], initial=1)})
    for i in m.system_inputs:
        configs = stuck.trajectory((i, i, i))
        assert len(configs) == 2 and configs[-1][1] == 2
        assert len(InducedMoore(stuck).semantics((i, i, i))) == 2


# -- induced machine ---------------------------------------------------------------


def test_induced_semantics_example():
    m = mmn_ex()
    ind = InducedMoore(m)
    out = ind.semantics((m.system_inputs.symbol("(a,c)"),))
    assert names(m.system_outputs, out) == ["(x,z)", "(y,z)"]


def test_induced_binary_counter_example():
    m = binary_counter(2)
    ind = InducedMoore(m)
    word = tuple(m.system_inputs.symbol(c) for c in ["(1)", "(0)", "(0)"])
    assert names(m.system_outputs, ind.semantics(word)) == [
        "(0,0)", "(1,0)", "(1,0)", "(1,0)"
    ]


def test_induced_consistency_with_system_transition():
    m = mmn_ex()
    ind = InducedMoore(m)
    rng = random.Random(3)
    for _ in range(200):
        word = tuple(rng.randrange(len(m.system_inputs)) for _ in range(6))
        q = ind.initial
        cfg = m.initial_configuration()
        for i in word:
            nxt_q = ind.step(q, i)
            nxt_cfg = m.system_transition(cfg, i)
            assert (nxt_q is None) == (nxt_cfg is None)
            if nxt_q is None:
                break
            assert ind.configuration(nxt_q) == nxt_cfg
            assert ind.output(nxt_q) == m.system_output(nxt_cfg)
            q, cfg = nxt_q, nxt_cfg


def test_package_exports_resolve():
    assert [name for name in mmnlearn.__all__ if not hasattr(mmnlearn, name)] == []


def test_materialize_budget_refused():
    m = binary_counter(3)
    with pytest.raises(NetworkError):
        m.materialize(budget=2)


def test_single_component_identity_wiring():
    ia = Alphabet(["a", "b"])
    oa = Alphabet(["x", "y"])
    nodes = [("i", NODE_INPUT), ("c", NODE_COMPONENT), ("o", NODE_OUTPUT)]
    net = Network(nodes, [("i", "c", ia), ("c", "o", oa)])
    comp = DetMoore(
        net.component_input_alphabet("c"), net.component_output_alphabet("c"),
        2, 0, ({0: 1, 1: 0}, {0: 0, 1: 1}), (0, 1),
    )
    mmn = Mmn(net, {"c": comp})
    ind = mmn.materialize()
    assert ind.n_states == 2
    for word_len in range(5):
        rng = random.Random(word_len)
        word = tuple(rng.randrange(2) for _ in range(word_len))
        assert ind.semantics(word) == comp.semantics(word)


# -- simulate ---------------------------------------------------------------------


def test_simulate_epsilon_gives_initial_outputs():
    m = mmn_ex()
    traces = m.simulate(())
    for e, tr in traces.items():
        assert len(tr) == 1


def test_simulate_intercomponent_trace_example():
    m = mmn_ex()
    traces = m.simulate((m.system_inputs.symbol("(a,c)"),))
    c1c2 = traces[("c1", "c2")]
    alpha = m.network.edge_alphabet[("c1", "c2")]
    assert [alpha.name(s) for s in c1c2] == ["1", "2"]


def test_simulate_agrees_with_induced_semantics():
    rng = random.Random(17)
    for seed in range(6):
        m = rand_mmn("path", 2, "lean", seed=seed, mean=3.0)
        ind = InducedMoore(m)
        for _ in range(30):
            word = tuple(rng.randrange(len(m.system_inputs)) for _ in range(8))
            traces = m.simulate(word)
            sem = ind.semantics(word)
            assert len(m.trajectory(word)) == len(sem)
            for pos, e in enumerate(m.network.system_out_edges):
                got = traces[e]
                want = [m.system_outputs.digit(s, pos) for s in sem]
                assert got == want


def test_binary_counter_carry_spacing():
    m = binary_counter(5)
    ind = InducedMoore(m)
    word_syms = [m.system_inputs.symbol("(1)")] + [m.system_inputs.symbol("(0)")] * 5
    word = tuple(word_syms + word_syms)
    out = ind.semantics(word)
    assert names(m.system_outputs, out[-1:]) == ["(0,1,0,0,0)"]  # binary 2, LSB first


# -- quotient MMNs ------------------------------------------------------------------


def test_quotient_mmn_identity_isomorphic():
    m = mmn_ex()
    q = m.quotient_mmn({c: identity_partition(m.machines[c]) for c in m.components})
    assert not q.is_deterministic
    assert all(q.machines[c].n_states == m.machines[c].n_states for c in m.components)


def test_quotient_mmn_eq0_equals_identity_on_distinct_outputs():
    m = mmn_ex()
    q = m.quotient_mmn({c: partition_eq_k(m.machines[c], 0) for c in m.components})
    assert all(q.machines[c].n_states == m.machines[c].n_states for c in m.components)


def test_quotient_mmn_overapproximates_reachability():
    # every concrete reachable configuration's block tuple is reachable
    rng = random.Random(7)
    for seed in range(4):
        m = rand_mmn("path", 2, "lean", seed=seed, mean=3.0)
        parts = {c: partition_eq_k(m.machines[c], rng.choice([0, 1])) for c in m.components}
        q = m.quotient_mmn(parts)
        concrete = {m.initial_configuration()}
        frontier = [m.initial_configuration()]
        while frontier:
            cfg = frontier.pop()
            for i in m.system_inputs:
                nxt = m.system_transition(cfg, i)
                if nxt is not None and nxt not in concrete:
                    concrete.add(nxt)
                    frontier.append(nxt)
        abstract = set(q.initial_configurations())
        frontier = list(abstract)
        while frontier:
            cfg = frontier.pop()
            for i in m.system_inputs:
                for nxt in q.nd_system_transition(cfg, i):
                    if nxt not in abstract:
                        abstract.add(nxt)
                        frontier.append(nxt)
        for cfg in concrete:
            blocks = tuple(parts[c].block_of[q_] for c, q_ in zip(m.components, cfg))
            assert blocks in abstract


def test_configuration_count_bound():
    m = binary_counter(4)
    full = 1
    for c in m.components:
        full *= m.machines[c].n_states
    assert m.materialize().n_states <= full

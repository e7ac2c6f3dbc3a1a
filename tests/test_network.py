import random
from collections import deque
from dataclasses import replace

import pytest

import mmnlearn
from mmnlearn.alphabet import Alphabet, AlphabetError
from mmnlearn.benchmarks import binary_counter, counter_with_init, mmn_ex, rand_mmn
from mmnlearn.machine import DetMoore, partition_eq_k, partition_uni
from mmnlearn.network import (
    InducedMoore,
    Mmn,
    Network,
    NetworkError,
    NODE_COMPONENT,
    NODE_INPUT,
    NODE_OUTPUT,
)
from tests.test_machine import identity_partition, quotient, wrap_nondet


def names(alpha, syms):
    return [alpha.name(s) for s in syms]


def materialize(mmn, budget=10**6):
    """Eagerly explore ``mmn``'s induced machine into a plain DetMoore,
    states numbered as ``InducedMoore`` interns them.

    Refuses (raises ``NetworkError``) once more than ``budget``
    configurations appear.
    """
    ind = InducedMoore(mmn)
    frontier = deque([0])
    trans = [dict()]
    seen = 1
    while frontier:
        q = frontier.popleft()
        for i in mmn.system_inputs:
            t = ind.step(q, i)
            if t is None:
                continue
            trans[q][i] = t
            if t >= seen:
                seen = t + 1
                trans.append(dict())
                frontier.append(t)
                if seen > budget:
                    raise NetworkError(
                        "induced machine exceeds configuration budget %d" % budget
                    )
    outputs = tuple(ind.output(q) for q in range(seen))
    return DetMoore(
        mmn.system_inputs, mmn.system_outputs, seen, 0, tuple(trans), outputs
    )


def simulate(mmn, word):
    """Tick-by-tick character traces on every non-system-input edge.

    Truncates at the first undefined component transition; traces keep the
    tick-0 characters, so a complete run yields length ``len(word) + 1``.
    """
    net = mmn.network
    traces = {e: [] for e in net.edges if net.node_class[e[0]] != NODE_INPUT}
    for config in InducedMoore(mmn).trajectory(word):
        outs = mmn.total_output(config)
        for k, c in enumerate(mmn.components):
            alpha = net.component_output_alphabet(c)
            for pos, e in enumerate(net.out_edges[c]):
                traces[e].append(alpha.digit(outs[k], pos))
    return traces


# -- validation ----------------------------------------------------------------


def test_example_network_validates():
    assert mmn_ex().diagnostics() == []


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


def test_nondeterministic_component_diagnosed():
    m = mmn_ex()
    machines = {**m.machines, "c1": wrap_nondet(m.machines["c1"])}
    diags = Mmn(m.network, machines, check=False).diagnostics()
    assert diags == ["component 'c1' is not a deterministic Moore machine"]
    with pytest.raises(NetworkError):
        Mmn(m.network, machines)


def test_duplicate_edges_rejected():
    with pytest.raises(NetworkError):
        Network(
            [("i", NODE_INPUT), ("c", NODE_COMPONENT), ("o", NODE_OUTPUT)],
            [("i", "c", Alphabet(["a"])), ("i", "c", Alphabet(["b"])),
             ("c", "o", Alphabet(["x"]))],
        )


def test_direct_input_to_output_edge_rejected():
    # A system output read straight off a system input has no component to
    # delay it, so no wiring can compose it.
    nodes = [("i", NODE_INPUT), ("c", NODE_COMPONENT), ("o", NODE_OUTPUT)]
    edges = [("i", "c", Alphabet(["a"])), ("c", "o", Alphabet(["x"])),
             ("i", "o", Alphabet(["y"]))]
    net = Network(nodes, edges)
    m = DetMoore(Alphabet(["a"]), Alphabet(["x"]), 1, 0, ({0: 0},), (0,))
    with pytest.raises(NetworkError, match="joins a system input"):
        Mmn(net, {"c": m})
    assert net.diagnostics() == [
        "edge ('i', 'o') joins a system input to a system output"
    ]


def test_component_without_in_edges_rejected_by_network_message():
    nodes = [("i", NODE_INPUT), ("c1", NODE_COMPONENT), ("c2", NODE_COMPONENT),
             ("o", NODE_OUTPUT)]
    edges = [("i", "c1", Alphabet(["a"])), ("c2", "c1", Alphabet(["b"])),
             ("c1", "o", Alphabet(["x"]))]
    net = Network(nodes, edges)
    m = DetMoore(Alphabet(["a"]), Alphabet(["x"]), 1, 0, ({0: 0},), (0,))
    machines = {"c1": m, "c2": m}
    assert Mmn(net, machines, check=False).diagnostics() == net.diagnostics()
    with pytest.raises(
        NetworkError, match="component 'c2' must have incoming and outgoing edges"
    ):
        Mmn(net, machines)


def test_wiring_built_once_per_network():
    m = mmn_ex()
    net = m.network
    assert net.component_input_alphabet("c1") is net.component_input_alphabet("c1")
    assert Mmn(net, m.machines).system_inputs is m.system_inputs


# -- system alphabets and restriction -------------------------------------------


def test_system_alphabets_match_worked_example():
    m = mmn_ex()
    assert m.system_inputs.names() == ["(a,c)", "(a,d)", "(b,c)", "(b,d)"]
    assert m.system_outputs.names() == ["(x,z)", "(x,w)", "(y,z)", "(y,w)"]
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


# -- total output and transitions ------------------------------------------------


def test_total_output_initial():
    m = mmn_ex()
    outs = m.total_output(m.initial_configuration())
    assert m.machines["c1"].output_alphabet.name(outs[0]) == "(x,1)"
    assert m.machines["c2"].output_alphabet.name(outs[1]) == "(z,3)"


def reference_system_output(mmn, config):
    """The system output at ``config``, decoded from the per-component
    outputs: the reference for ``InducedMoore``'s interned outputs."""
    outs = mmn.total_output(config)
    return sum(
        ((outs[src] // stride) % size) * tstride
        for src, stride, size, tstride in mmn.network.wiring.out_reads
    )


def reference_system_transition(mmn, config, sys_in):
    """One synchronous tick, every component's input character recomputed
    from the system input and the per-component outputs; None if any
    component falls off.  The reference for ``InducedMoore``'s move
    vectors."""
    outs = mmn.total_output(config)
    nxt = []
    for c, q, transitions in zip(mmn.components, config, mmn.transitions_by_comp):
        t = transitions[q].get(mmn.component_input(c, sys_in, outs))
        if t is None:
            return None
        nxt.append(t)
    return tuple(nxt)


def reference_quotient_mmn(mmn, partitions):
    """Each component's reference quotient under its partition; the
    quotients keep the component alphabets, so the network's ``wiring``
    still describes how they are composed."""
    return {c: quotient(mmn.machines[c], partitions[c]) for c in mmn.components}


def test_uni_quotient_total_output_sets():
    m = mmn_ex()
    parts = {c: partition_uni(m.machines[c]) for c in m.components}
    q = reference_quotient_mmn(m, parts)
    assert [len(q[c].outputs[0]) for c in m.components] == [2, 4]  # 8 tuples
    assert m.quotient_mmn(parts) == {c: q[c].outputs for c in m.components}
    # Output sets are built only for the partitions passed.
    for c in m.components:
        eq0 = {c: partition_eq_k(m.machines[c], 0)}
        assert m.quotient_mmn(eq0) == {c: reference_quotient_mmn(m, {**parts, **eq0})[c].outputs}
    assert m.quotient_mmn({}) == {}


def test_system_transition_example():
    m = mmn_ex()
    cfg = m.initial_configuration()
    i = m.system_inputs.symbol("(a,c)")
    assert reference_system_transition(m, cfg, i) == (1, 0)  # c1 latches, c2 loops
    ind = InducedMoore(m)
    assert ind.configuration(ind.step(ind.initial, i)) == (1, 0)


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
    assert reference_system_transition(mmn, (0,), 0) == (0,)
    assert InducedMoore(mmn).step(0, 0) == 0


def test_system_transition_absent_when_component_stuck():
    m = mmn_ex()
    # configuration with c2 in its transition-less (z,4) state
    for i in m.system_inputs:
        assert reference_system_transition(m, (1, 2), i) is None
    # started in c2's state 1, c1's first output sends c2 into (z,4),
    # where the run stops
    stuck = Mmn(m.network, {**m.machines, "c2": replace(m.machines["c2"], initial=1)})
    for i in m.system_inputs:
        configs = InducedMoore(stuck).trajectory((i, i, i))
        assert len(configs) == 2 and configs[-1][1] == 2
        assert len(InducedMoore(stuck).semantics((i, i, i))) == 2


# -- induced machine ---------------------------------------------------------------


def test_induced_semantics_example():
    m = mmn_ex()
    ind = InducedMoore(m)
    out = ind.semantics((m.system_inputs.symbol("(a,c)"),))
    assert names(m.system_outputs, out) == ["(x,z)", "(y,z)"]


def test_foreign_system_input_rejected():
    m = mmn_ex()
    assert len(m.system_inputs) == 4
    for i in (-1, 4):
        with pytest.raises(AlphabetError):
            InducedMoore(m).semantics((i,))
    with pytest.raises(AlphabetError):
        InducedMoore(m).trajectory((0, 4))
    # The whole word is checked, also past the tick where a run falls off
    # and on memo hits.
    stuck = InducedMoore(
        Mmn(m.network, {**m.machines, "c2": replace(m.machines["c2"], initial=1)})
    )
    word = (0, 0, 0)
    assert len(stuck.semantics(word)) == 2
    for bad in (-1, 4):
        for pos in range(len(word) + 1):
            foreign = word[:pos] + (bad,) + word[pos:]
            with pytest.raises(AlphabetError):
                stuck.semantics(foreign)


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
            nxt_cfg = reference_system_transition(m, cfg, i)
            assert (nxt_q is None) == (nxt_cfg is None)
            if nxt_q is None:
                break
            assert ind.configuration(nxt_q) == nxt_cfg
            assert ind.output(nxt_q) == reference_system_output(m, nxt_cfg)
            q, cfg = nxt_q, nxt_cfg


def reference_trajectory(mmn, word):
    """The configurations a run on ``word`` visits, up to the first
    fall-off, stepped by ``reference_system_transition``."""
    configs = [mmn.initial_configuration()]
    for i in word:
        nxt = reference_system_transition(mmn, configs[-1], i)
        if nxt is None:
            break
        configs.append(nxt)
    return configs


def memo_entries_agree(ind):
    """Check every memo entry of ``ind`` (output, move or fall-off) against
    its current MMN; return how many moves were checked."""
    mmn, checked = ind.mmn, 0
    for q in range(ind.n_explored()):
        config = ind.configuration(q)
        assert ind.output(q) == reference_system_output(mmn, config)
        for i, t in enumerate(ind._trans[q] or ()):  # None: not yet filled
            want = reference_system_transition(mmn, config, i)
            assert want is None if t is None else ind.configuration(t) == want
            checked += 1
    return checked


def assert_runs_match_reference(ind, rng, n_words=30, length=12):
    """Random runs of ``ind`` and a bounded breadth-first expansion of its
    memo agree with the reference tick; returns how many runs fell off."""
    mmn = ind.mmn
    fell_off = 0
    for _ in range(n_words):
        word = tuple(rng.randrange(len(mmn.system_inputs)) for _ in range(length))
        configs = reference_trajectory(mmn, word)
        assert ind.trajectory(word) == configs
        assert ind.semantics(word) == tuple(reference_system_output(mmn, c) for c in configs)
        fell_off += len(configs) <= len(word)
    frontier = [ind.initial]
    seen = {ind.initial}
    while frontier and len(seen) < 300:
        q = frontier.pop(0)
        for i in ind.input_alphabet:
            t = ind.step(q, i)
            if t is not None and t not in seen:
                seen.add(t)
                frontier.append(t)
    assert memo_entries_agree(ind) > 0
    return fell_off


def growing_mmns(mmn, rng, keeps):
    """Hypotheses grown from one another as within a ``ccwl`` epoch: the
    ``j``-th keeps each component transition of ``mmn`` whose random rank
    lies below ``keeps[j]``, so it keeps every transition of those before."""
    rank = {
        (c, q, i): rng.random()
        for c, m in mmn.machines.items()
        for q, row in enumerate(m.transitions)
        for i in row
    }
    grown = []
    for keep in keeps:
        machines = {
            c: replace(m, transitions=tuple(
                {i: t for i, t in row.items() if rank[c, q, i] < keep}
                for q, row in enumerate(m.transitions)
            ))
            for c, m in mmn.machines.items()
        }
        grown.append(Mmn(mmn.network, machines, check=False))
    return grown


KERNEL_MMNS = [
    ("star", 3, "lean"), ("compl", 3, "lean"), ("path", 3, "lean"),
    ("star", 2, "rich"), ("compl", 2, "rich"),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("topology,k,kind", KERNEL_MMNS)
def test_induced_kernel_matches_reference_on_random_mmns(topology, k, kind, seed):
    m = rand_mmn(topology, k, kind, seed, mean=4)
    assert assert_runs_match_reference(InducedMoore(m), random.Random(seed)) == 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("topology,k,kind", KERNEL_MMNS)
def test_induced_kernel_matches_reference_on_partial_hypotheses(topology, k, kind, seed):
    rng = random.Random(seed)
    fell_off = 0
    for hyp in growing_mmns(rand_mmn(topology, k, kind, seed, mean=4), rng, [0.6, 0.85]):
        fell_off += assert_runs_match_reference(InducedMoore(hyp), rng)
    assert fell_off > 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("topology,k,kind", KERNEL_MMNS)
def test_rebound_kernel_matches_reference(topology, k, kind, seed):
    # One memo carried along hypotheses grown from one another, as in a
    # ccwl epoch: after every rebind it agrees with a fresh reference, and
    # some move undefined before a rebind is defined after it.
    rng = random.Random(seed)
    hyps = growing_mmns(rand_mmn(topology, k, kind, seed, mean=4), rng, [0.5, 0.7, 0.85, 1.0])
    ind = InducedMoore(hyps[0])
    undefined, defined = [], 0
    for hyp in hyps:
        ind.rebind(hyp)
        defined += sum(ind.step(q, i) is not None for q, i in undefined)
        assert_runs_match_reference(ind, rng)
        undefined = [
            (q, i)
            for q in range(ind.n_explored())
            for i in ind.input_alphabet
            if ind.step(q, i) is None
        ]
    assert defined > 0


@pytest.mark.parametrize("seed", range(3))
def test_first_step_fills_a_whole_row_and_rebind_keeps_complete_rows(seed):
    rng = random.Random(seed)
    hyp, grown = growing_mmns(rand_mmn("star", 3, "lean", seed, mean=4), rng, [0.9, 1.0])
    ind = InducedMoore(hyp)
    n = len(ind.input_alphabet)
    q = ind.initial
    for _ in range(40):  # one step per visit, then on along the row
        ind.step(q, rng.randrange(n))
        assert len(ind._trans[q]) == n
        q = rng.choice([t for t in ind._trans[q] if t is not None] or [ind.initial])
    memo_entries_agree(ind)
    rows = {q: row for q, row in enumerate(ind._trans) if row is not None}
    partial = [q for q, row in rows.items() if None in row]
    assert partial and len(partial) < len(rows)
    ind.rebind(grown)
    for q, row in rows.items():
        assert (ind._trans[q] is row) == (q not in partial)
    for q in partial:
        ind.step(q, 0)
        assert ind._trans[q] is not rows[q] and len(ind._trans[q]) == n
    memo_entries_agree(ind)


def test_rebind_completes_a_partial_move_vector():
    # c1 lacks its move on (a,3) in its initial state; stepping the initial
    # configuration on (b,c) builds c1's vector, partial on the a inputs.
    m = mmn_ex()
    c1 = m.machines["c1"]
    a3 = c1.input_alphabet.symbol("(a,3)")
    trans = list(c1.transitions)
    trans[c1.initial] = {i: t for i, t in trans[c1.initial].items() if i != a3}
    hyp = Mmn(m.network, {**m.machines, "c1": replace(c1, transitions=tuple(trans))})
    ac, bc = m.system_inputs.symbol("(a,c)"), m.system_inputs.symbol("(b,c)")
    ind = InducedMoore(hyp)
    assert ind.step(0, bc) is not None
    assert ind.step(0, ac) is None
    ind.rebind(m)
    assert ind.configuration(ind.step(0, ac)) == reference_system_transition(
        m, m.initial_configuration(), ac
    )
    assert memo_entries_agree(ind) == len(m.system_inputs)


def found_last(m, states):
    """``m`` with its states renumbered so that ``states`` come last, in
    order: a hypothesis that finds them last."""
    order = [q for q in range(m.n_states) if q not in states] + list(states)
    label = {q: new for new, q in enumerate(order)}
    return replace(m, initial=label[m.initial], outputs=tuple(m.outputs[q] for q in order),
                   transitions=tuple({i: label[t] for i, t in m.transitions[q].items()}
                                     for q in order))


def first_states(m, n):
    """``m`` cut down to its first ``n`` states: the moves into the others
    dropped, as in a hypothesis before those states are found."""
    return replace(m, n_states=n, outputs=m.outputs[:n], transitions=tuple(
        {i: t for i, t in row.items() if t < n} for row in m.transitions[:n]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("topology,k,kind", KERNEL_MMNS)
def test_rebind_keeps_the_vectors_of_unchanged_components(topology, k, kind, seed):
    # One component gains a state per rebind, a new outputs tuple each
    # time; the others keep their machine objects, and with them their
    # move vectors.  The states gained are among those of the first
    # configurations, so that the reference runs reach them.
    rng = random.Random(seed)
    m = rand_mmn(topology, k, kind, seed, mean=4)
    probe = InducedMoore(m)
    near = []
    while len(near) < min(300, probe.n_explored()):  # rows in id order: breadth first
        probe.row(len(near))
        near.append(probe.configuration(len(near)))
    grew = 0
    for j, c in enumerate(m.components):
        states = list(dict.fromkeys(config[j] for config in near))[1:][-2:]
        if not states:  # the component never leaves its initial state
            continue
        full = found_last(m.machines[c], states)
        grown = [first_states(full, full.n_states - d) for d in range(len(states), 0, -1)]
        hyps = [Mmn(m.network, {**m.machines, c: g}, check=False) for g in grown + [full]]
        ind = InducedMoore(hyps[0])
        assert_runs_match_reference(ind, rng)
        for hyp in hyps[1:]:
            kept = [dict(moves) for moves in ind._moves]
            ind.rebind(hyp)
            assert ind._moves[j] == {}
            others = [i for i in range(len(kept)) if i != j]
            assert any(kept[i] for i in others)
            assert all(ind._moves[i] == kept[i] for i in others)
            assert_runs_match_reference(ind, rng)
            new = hyp.machines[c].n_states - 1
            assert any(ind.configuration(q)[j] == new for q in range(ind.n_explored()))
            grew += 1
    assert grew > 0


def test_package_exports_resolve():
    assert [name for name in mmnlearn.__all__ if not hasattr(mmnlearn, name)] == []


def test_materialize_budget_refused():
    m = binary_counter(3)
    with pytest.raises(NetworkError):
        materialize(m, budget=2)


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
    ind = materialize(mmn)
    assert ind.n_states == 2
    for word_len in range(5):
        rng = random.Random(word_len)
        word = tuple(rng.randrange(2) for _ in range(word_len))
        assert ind.semantics(word) == comp.semantics(word)


# -- simulate ---------------------------------------------------------------------


def test_simulate_epsilon_gives_initial_outputs():
    m = mmn_ex()
    traces = simulate(m, ())
    for e, tr in traces.items():
        assert len(tr) == 1


def test_simulate_intercomponent_trace_example():
    m = mmn_ex()
    traces = simulate(m, (m.system_inputs.symbol("(a,c)"),))
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
            traces = simulate(m, word)
            sem = ind.semantics(word)
            assert len(ind.trajectory(word)) == len(sem)
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
    parts = {c: identity_partition(m.machines[c]) for c in m.components}
    q = reference_quotient_mmn(m, parts)
    assert list(q) == m.components
    assert all(q[c] == wrap_nondet(m.machines[c]) for c in m.components)
    outs = m.quotient_mmn(parts)
    assert list(outs) == m.components
    assert all(outs[c] == q[c].outputs for c in m.components)


def test_quotient_mmn_eq0_equals_identity_on_distinct_outputs():
    m = mmn_ex()
    parts = {c: partition_eq_k(m.machines[c], 0) for c in m.components}
    q = reference_quotient_mmn(m, parts)
    assert all(q[c].n_states == m.machines[c].n_states for c in m.components)
    outs = m.quotient_mmn(parts)
    assert all(len(outs[c]) == m.machines[c].n_states for c in m.components)
    assert all(outs[c] == q[c].outputs for c in m.components)


def test_induced_step_rejects_foreign_symbol():
    ind = InducedMoore(mmn_ex())
    for i in ind.input_alphabet:  # fill the memo row of the initial state
        ind.step(0, i)
    for bad in (-1, len(ind.input_alphabet), 99):
        with pytest.raises(AlphabetError):
            ind.step(0, bad)


def test_induced_explores_reachable_configurations_only():
    m = counter_with_init()
    ind = InducedMoore(m)
    assert ind.n_explored() == 1
    assert ind.configuration(0) == m.initial_configuration()
    seen, frontier = {0}, [0]
    while frontier:
        q = frontier.pop()
        for i in ind.input_alphabet:
            t = ind.step(q, i)
            if t is not None and t not in seen:
                seen.add(t)
                frontier.append(t)
    assert ind.n_explored() == len(seen) == materialize(m).n_states
    # c2's error half is never part of a reachable configuration
    assert {ind.configuration(q)[1] for q in seen} == {0, 1, 2}
    assert m.machines["c2"].n_states == 7


def test_configuration_count_bound():
    m = binary_counter(4)
    full = 1
    for c in m.components:
        full *= m.machines[c].n_states
    assert materialize(m).n_states <= full

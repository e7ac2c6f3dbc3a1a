import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from mmnlearn.alphabet import Alphabet, AlphabetError
from mmnlearn.benchmarks import from_spec, mmn_ex
from mmnlearn.componentwise import CaParams, ccwl
from mmnlearn.machine import (
    Counterexample,
    DetMoore,
    EQUIVALENT,
    MooreError,
    StatePartition,
    equivalent,
    partition_eq_k,
    partition_uni,
)
from mmnlearn.network import InducedMoore, Mmn
from mmnlearn.oracles import EqTestConfig, Sul


def fig_c1():
    return mmn_ex().machines["c1"]


def fig_c2():
    return mmn_ex().machines["c2"]


def w(machine, *names):
    return tuple(machine.input_alphabet.symbol(n) for n in names)


def out_names(machine, syms):
    return [machine.output_alphabet.name(s) for s in syms]


# -- references for the set-valued side ------------------------------------------


@dataclass(frozen=True)
class NondetMoore:
    """Nondeterministic Moore machine: set-valued transitions and outputs.

    The reference for what context analysis walks under a coarse
    abstraction: ``quotient`` builds one per component, and the library's
    quotient walk must agree with a walk over these machines."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    n_states: int
    initials: frozenset
    transitions: tuple  # per state: input sym -> frozenset of states
    outputs: tuple  # per state: frozenset of output syms

    def __post_init__(self):
        if not all(0 <= q < self.n_states for q in self.initials):
            raise MooreError("initial state out of range")
        for outs in self.outputs:
            if not outs:
                raise MooreError("output sets must be nonempty")


def partition_from_block_of(n_states, block_of):
    """The partition grouping states by ``block_of``, blocks renumbered by
    smallest member: the reference for the partitions the library builds."""
    groups = {}
    for q, b in enumerate(block_of):
        groups.setdefault(b, []).append(q)
    order = sorted(groups.values(), key=lambda g: g[0])
    remap = {}
    for new_b, g in enumerate(order):
        for q in g:
            remap[q] = new_b
    return StatePartition(
        n_states,
        tuple(remap[q] for q in range(n_states)),
        tuple(tuple(g) for g in order),
    )


def identity_partition(machine):
    return partition_from_block_of(machine.n_states, range(machine.n_states))


def quotient(machine, partition):
    """Quotient Moore machine: blocks as states, unioned moves and outputs.

    The result is nondeterministic and overapproximates the source's
    defined behavior.
    """
    if partition.n_states != machine.n_states:
        raise MooreError("partition is over a different state count")
    nb = partition.n_blocks()
    block_of = partition.block_of
    trans = [dict() for _ in range(nb)]
    outs = [set() for _ in range(nb)]
    for q in range(machine.n_states):
        b = block_of[q]
        outs[b].add(machine.outputs[q])
        for i, t in machine.transitions[q].items():
            trans[b].setdefault(i, set()).add(block_of[t])
    return NondetMoore(
        machine.input_alphabet,
        machine.output_alphabet,
        nb,
        frozenset((block_of[machine.initial],)),
        tuple({i: frozenset(ts) for i, ts in row.items()} for row in trans),
        tuple(frozenset(o) for o in outs),
    )


def wrap_nondet(machine):
    """Singleton embedding of a deterministic machine."""
    return NondetMoore(
        machine.input_alphabet,
        machine.output_alphabet,
        machine.n_states,
        frozenset((machine.initial,)),
        tuple({i: frozenset((t,)) for i, t in row.items()} for row in machine.transitions),
        tuple(frozenset((o,)) for o in machine.outputs),
    )


def nd_semantics(machine, states, word):
    """Output sets along ``word`` from ``states``, length ``len(word) + 1``;
    empty once stuck."""
    cur = frozenset(states)
    out = [frozenset(o for q in cur for o in machine.outputs[q])]
    for i in word:
        cur = frozenset(t for q in cur for t in machine.transitions[q].get(i, ()))
        out.append(frozenset(o for q in cur for o in machine.outputs[q]))
    return out


def refines(finer, coarser):
    """Every block of ``finer`` lies inside one block of ``coarser``."""
    return all(len({coarser.block_of[q] for q in b}) == 1 for b in finer.blocks)


# -- runs and semantics -------------------------------------------------------


def test_foreign_symbol_rejected_anywhere_in_word():
    m2 = fig_c2()
    word = w(m2, "(c,2)", "(c,1)", "(c,1)")  # falls off at the last symbol
    assert len(m2.semantics(word)) == 3
    assert m2.lasts([word]) == ([m2.semantics(word)[-1]], 1)
    for bad in (-1, len(m2.input_alphabet)):
        for pos in range(len(word) + 1):  # pos 3 lies past the fall-off
            foreign = word[:pos] + (bad,) + word[pos:]
            for walk in (m2.semantics, lambda w: m2.lasts([w])):
                with pytest.raises(AlphabetError):
                    walk(foreign)


def drop_transitions(rng, machine, share):
    """``machine`` with about ``share`` of its transitions removed."""
    return replace(machine, transitions=tuple(
        {i: t for i, t in row.items() if rng.random() >= share}
        for row in machine.transitions
    ))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_last_agrees_with_semantics(seed):
    """On random machines, partial ones included, and on the induced
    machines of random MMNs, some with transitions dropped, ``lasts`` of a
    one-word batch reads the same run as ``semantics``; a foreign symbol
    after a fall-off still raises, although ``lasts`` checks the word only
    at a fall-off.  A batch of all the words answers each like its own
    batch and counts the fall-offs."""
    rng = random.Random(seed)
    spec = "rand:%s2:lean:mean=3:seed=%d" % (rng.choice(("compl", "path", "star")), seed)
    mmn = from_spec(spec)
    share = rng.choice((0.0, 0.1, 0.3))
    partial_mmn = Mmn(mmn.network, {
        c: drop_transitions(rng, m, share) for c, m in mmn.machines.items()
    })
    machines = (random_machine(rng, partial=True), random_machine(rng),
                InducedMoore(partial_mmn))
    for machine in machines:
        n = len(machine.input_alphabet)
        words, singles = [], []
        for _ in range(25):
            word = tuple(rng.randrange(n) for _ in range(rng.randrange(9)))
            got = machine.lasts([word])  # first, so that InducedMoore misses its memo
            out = machine.semantics(word)
            assert got == ([out[-1]], int(len(out) != len(word) + 1))
            words.append(word)
            singles.append(got)
            if not got[1]:
                continue
            for bad in (-1, n, 99):  # inserted after word[len(out) - 1], the fall-off
                pos = rng.randrange(len(out), len(word) + 1)
                with pytest.raises(AlphabetError):
                    machine.lasts([word[:pos] + (bad,) + word[pos:]])
        assert machine.lasts(words) == (
            [last for (last,), _ in singles], sum(f for _, f in singles))


def test_semantics_from_given_state():
    m = fig_c1()
    a3 = w(m, "(a,3)")
    assert m.step(0, a3[0]) == 1
    assert m.semantics(a3, q=0) == (m.outputs[0], m.outputs[1])
    m2 = fig_c2()
    # the (z,4) state has no outgoing transitions at all
    assert m2.transitions[2] == {}
    assert m2.step(2, w(m2, "(c,1)")[0]) is None
    assert out_names(m2, m2.semantics(w(m2, "(c,1)"), q=2)) == ["(z,4)"]
    assert m2.semantics((), q=2) == (m2.outputs[2],)


def test_step_rejects_foreign_symbols():
    m = fig_c1()
    for bad in (-1, len(m.input_alphabet), 99):
        with pytest.raises(AlphabetError):
            m.step(0, bad)


def test_detmoore_rejects_malformed_tables():
    ok = dict(
        input_alphabet=Alphabet(["i"]),
        output_alphabet=Alphabet(["x"]),
        n_states=2,
        initial=0,
        transitions=({0: 1}, {}),
        outputs=(0, 0),
    )
    DetMoore(**ok)
    for bad in (
        dict(initial=2),
        dict(initial=-1),
        dict(transitions=({0: 1},)),
        dict(outputs=(0,)),
        dict(transitions=({1: 1}, {})),  # input outside the alphabet
        dict(transitions=({0: 2}, {})),  # target outside the states
        dict(outputs=(0, 1)),  # output outside the alphabet
    ):
        with pytest.raises(MooreError):
            DetMoore(**{**ok, **bad})


def test_nondetmoore_rejects_malformed_tables():
    nm = wrap_nondet(fig_c2())
    with pytest.raises(MooreError):
        replace(nm, initials=frozenset((nm.n_states,)))
    with pytest.raises(MooreError):
        replace(nm, outputs=(frozenset(),) + nm.outputs[1:])


def test_semantics_examples():
    m = fig_c1()
    assert out_names(m, m.semantics(w(m, "(a,3)", "(b,4)"))) == ["(x,1)", "(y,2)", "(y,2)"]
    assert out_names(m, m.semantics(()))== ["(x,1)"]
    m2 = fig_c2()
    got = m2.semantics(w(m2, "(c,2)", "(c,1)", "(c,1)"))
    assert out_names(m2, got) == ["(z,3)", "(w,3)", "(z,4)"]  # truncates


def test_semantics_length_invariant():
    rng = random.Random(5)
    for _ in range(50):
        m = random_machine(rng, partial=True)
        word = tuple(rng.randrange(len(m.input_alphabet)) for _ in range(rng.randrange(8)))
        out = m.semantics(word)
        q = m.initial
        defined = 0
        for i in word:
            q = m.transitions[q].get(i)
            if q is None:
                break
            defined += 1
        assert len(out) == 1 + defined
        if m.is_complete:
            assert len(out) == len(word) + 1


# -- partitions, and the reference quotients -----------------------------------


def test_partition_eq0_groups_by_output():
    ia = Alphabet(["i"])
    oa = Alphabet(["x", "y"])
    m = DetMoore(ia, oa, 3, 0, ({0: 1}, {0: 2}, {0: 2}), (0, 0, 1))
    p = partition_eq_k(m, 0)
    assert p.blocks == ((0, 1), (2,))


def test_partition_eq0_distinct_outputs_fig2():
    p = partition_eq_k(fig_c2(), 0)
    assert p.n_blocks() == 4


def test_partition_eqk_distinct_outputs_is_identity():
    m = fig_c2()
    for k in (0, 1, 5):
        assert partition_eq_k(m, k).blocks == identity_partition(m).blocks


def test_partition_uni():
    m = fig_c1()
    p = partition_uni(m)
    assert p.blocks == ((0, 1),)


def test_partition_refinement_chain():
    rng = random.Random(11)
    for _ in range(30):
        m = random_machine(rng, partial=True)
        parts = [partition_eq_k(m, k) for k in range(4)] + [identity_partition(m)]
        for finer, coarser in zip(parts[1:], parts):
            assert refines(finer, coarser)
        assert all(refines(partition_eq_k(m, k), partition_uni(m)) for k in range(3))


def test_partition_eqk_partiality_matters():
    # same outputs, but one state lacks the transition: Eq_1 must split them
    ia = Alphabet(["i"])
    oa = Alphabet(["x"])
    m = DetMoore(ia, oa, 2, 0, ({0: 0}, {}), (0, 0))
    assert partition_eq_k(m, 0).n_blocks() == 1
    assert partition_eq_k(m, 1).n_blocks() == 2


def test_quotient_identity_matches_wrap():
    m = fig_c2()
    q = quotient(m, identity_partition(m))
    nm = wrap_nondet(m)
    assert q.transitions == nm.transitions
    assert q.outputs == nm.outputs
    assert q.initials == nm.initials


def test_quotient_uni_example():
    m = fig_c2()
    q = quotient(m, partition_uni(m))
    assert q.n_states == 1
    assert q.outputs[0] == frozenset(
        m.output_alphabet.symbol(n) for n in ["(z,3)", "(w,3)", "(z,4)", "(w,4)"]
    )
    # the library's block output sets are the reference quotient's outputs
    mmn = mmn_ex()
    parts = {c: partition_uni(mmn.machines[c]) for c in mmn.components}
    assert mmn.quotient_mmn(parts)["c2"] == q.outputs


def test_quotient_uni_semantics_example():
    m = fig_c2()
    q = quotient(m, partition_uni(m))
    allout = frozenset(
        m.output_alphabet.symbol(n) for n in ["(z,3)", "(w,3)", "(z,4)", "(w,4)"]
    )
    assert nd_semantics(q, q.initials, w(m, "(c,1)")) == [allout, allout]


def test_quotient_unions_moves_of_merged_states():
    ia, oa = Alphabet(["i", "j"]), Alphabet(["x", "y"])
    # state 2 has no i-move; states 1 and 2 share output y
    m = DetMoore(ia, oa, 3, 0, ({0: 1}, {0: 2, 1: 0}, {1: 2}), (0, 1, 1))
    part = partition_eq_k(m, 0)
    assert part.blocks == ((0,), (1, 2))
    q = quotient(m, part)
    assert q.initials == frozenset((0,))
    assert q.outputs == (frozenset((0,)), frozenset((1,)))
    assert q.transitions == (
        {0: frozenset((1,))},
        {0: frozenset((1,)), 1: frozenset((0, 1))},
    )


def test_quotient_rejects_partition_of_other_machine():
    with pytest.raises(MooreError):
        quotient(fig_c2(), identity_partition(fig_c1()))


def test_partition_blocks_numbered_by_smallest_member():
    p = partition_from_block_of(5, [7, 3, 7, 9, 3])
    assert p.blocks == ((0, 2), (1, 4), (3,))
    assert p.block_of == (0, 1, 0, 2, 1)
    assert p.n_blocks() == 3
    # The library numbers its partitions' blocks the same way.
    rng = random.Random(31)
    for _ in range(60):
        m = random_machine(rng, n_max=8, partial=rng.random() < 0.5)
        for p in [partition_uni(m)] + [partition_eq_k(m, k) for k in (0, 1, 2, 5)]:
            assert p == partition_from_block_of(m.n_states, p.block_of)


def test_quotient_overapproximates():
    rng = random.Random(23)
    for _ in range(40):
        m = random_machine(rng, partial=True)
        k = rng.choice([0, 1, None])
        fine = partition_eq_k(m, k) if k is not None else identity_partition(m)
        part = fine if rng.random() < 0.7 else partition_uni(m)
        q = quotient(m, part)
        word = tuple(rng.randrange(len(m.input_alphabet)) for _ in range(6))
        det = m.semantics(word)
        nd = nd_semantics(q, {part.block_of[m.initial]}, word)
        for j, ch in enumerate(det):
            assert ch in nd[j]


# -- equivalence ---------------------------------------------------------------


def random_machine(rng, n_max=6, i_max=3, partial=False, oa=None):
    n = rng.randint(1, n_max)
    ia = Alphabet(["i%d" % j for j in range(rng.randint(1, i_max))])
    oa = oa or Alphabet(["o%d" % j for j in range(rng.randint(1, 3))])
    trans = []
    for _ in range(n):
        row = {}
        for i in ia:
            if not partial or rng.random() < 0.85:
                row[i] = rng.randrange(n)
        trans.append(row)
    outs = tuple(rng.randrange(len(oa)) for _ in range(n))
    return DetMoore(ia, oa, n, rng.randrange(n), tuple(trans), outs)


def brute_force_equivalent(m1, m2, max_len):
    """Exhaustive word enumeration, capped to a feasible depth.

    The full 2*|Q1|*|Q2| horizon is astronomically large for |I|=3, so the
    depth is clamped to keep the enumeration around 2e5 words; shortest
    counterexamples of random small machines sit far below either limit.
    """
    n_in = len(m1.input_alphabet)
    depth = 0
    total = 1
    while depth < max_len and total * n_in <= 200_000:
        total *= n_in
        depth += 1
    # Words level by level in lexicographic order, each with the states the
    # machines reach on it (None once fallen off).  Every word of a level
    # agrees before the next level starts, so an extension u+(i,) differs
    # exactly when its last step does.
    if m1.output(m1.initial) != m2.output(m2.initial):
        return Counterexample(())
    level = [((), m1.initial, m2.initial)]
    for _ in range(depth):
        nxt = []
        for word, q1, q2 in level:
            for i in range(n_in):
                w = word + (i,)
                if q1 is None:  # both fell off earlier
                    nxt.append((w, None, None))
                    continue
                t1, t2 = m1.step(q1, i), m2.step(q2, i)
                if (t1 is None) != (t2 is None) or (
                    t1 is not None and m1.output(t1) != m2.output(t2)
                ):
                    return Counterexample(w)
                nxt.append((w, t1, t2))
        level = nxt
    return EQUIVALENT


def path_bfs_equivalent(m1, m2):
    """Reference for ``equivalent``: the same BFS, carrying every pair's
    full access path."""
    start = (m1.initial, m2.initial)
    seen = {start: ()}
    queue = [start]
    for q1, q2 in queue:
        path = seen[(q1, q2)]
        if m1.output(q1) != m2.output(q2):
            return Counterexample(path)
        for i in m1.input_alphabet:
            t1, t2 = m1.step(q1, i), m2.step(q2, i)
            if (t1 is None) != (t2 is None):
                return Counterexample(path + (i,))
            if t1 is not None and (t1, t2) not in seen:
                seen[(t1, t2)] = path + (i,)
                queue.append((t1, t2))
    return EQUIVALENT


def test_equivalent_reflexive():
    m = fig_c2()
    assert equivalent(m, m) is True


def test_equivalent_trivial_output_difference():
    ia = Alphabet(["i"])
    m1 = DetMoore(ia, Alphabet(["x", "y"]), 1, 0, ({0: 0},), (0,))
    m2 = DetMoore(ia, Alphabet(["x", "y"]), 1, 0, ({0: 0},), (1,))
    res = equivalent(m1, m2)
    assert res == Counterexample(())


def test_equivalent_rejects_alphabet_mismatch():
    x = Alphabet(["x"])
    m = DetMoore(Alphabet(["i"]), x, 1, 0, ({0: 0},), (0,))
    wider = DetMoore(Alphabet(["i", "j"]), x, 1, 0, ({},), (0,))
    renamed = DetMoore(Alphabet(["i"]), Alphabet(["y"]), 1, 0, ({0: 0},), (0,))
    for other in (wider, renamed):
        with pytest.raises(MooreError):
            equivalent(m, other)


def test_equivalent_ignores_unreachable_states():
    ia, oa = Alphabet(["i"]), Alphabet(["x", "y"])
    small = DetMoore(ia, oa, 1, 0, ({0: 0},), (0,))
    # states 1 and 2 differ from everything in ``small`` but are unreachable
    big = DetMoore(ia, oa, 3, 0, ({0: 0}, {0: 2}, {}), (0, 1, 1))
    assert equivalent(small, big) is EQUIVALENT
    assert equivalent(small, replace(big, initial=1)) == Counterexample(())


def test_equivalent_counterexample_replays():
    rng = random.Random(77)
    oa = Alphabet(["o0", "o1"])
    checked = 0
    while checked < 60:
        ia = Alphabet(["i%d" % j for j in range(rng.randint(1, 3))])
        m1 = random_machine(rng, partial=True, oa=oa)
        m2 = random_machine(rng, partial=True, oa=oa)
        if len(m1.input_alphabet) != len(m2.input_alphabet):
            continue
        m2 = DetMoore(
            m1.input_alphabet, oa, m2.n_states, m2.initial, m2.transitions, m2.outputs
        )
        res = equivalent(m1, m2)
        sym = equivalent(m2, m1)
        assert res == path_bfs_equivalent(m1, m2)  # the same shortest witness
        assert (res is True) == (sym is True)
        if res is not True:
            assert m1.semantics(res.word) != m2.semantics(res.word)
        checked += 1


def test_equivalent_agrees_with_brute_force():
    rng = random.Random(99)
    oa = Alphabet(["o0", "o1"])
    for trial in range(60):
        m1 = random_machine(rng, n_max=4, partial=True, oa=oa)
        if rng.random() < 0.3:
            m2 = m1  # force some equivalent pairs
        else:
            m2 = random_machine(rng, n_max=4, partial=True, oa=oa)
            if len(m2.input_alphabet) != len(m1.input_alphabet):
                continue
            m2 = DetMoore(
                m1.input_alphabet, oa, m2.n_states, m2.initial,
                m2.transitions, m2.outputs,
            )
        res = equivalent(m1, m2)
        ref = brute_force_equivalent(m1, m2, 2 * m1.n_states * m2.n_states)
        assert (res is True) == (ref is True)
        if ref is not True:
            assert len(res.word) == len(ref.word)  # BFS returns a shortest witness


class StepBudget:
    """The surface ``equivalent`` uses, failing once more than ``budget``
    moves are read: one per ``step``, one per entry of a ``row``.  A pass
    that never ends fails here too."""

    def __init__(self, machine, budget):
        self.input_alphabet = machine.input_alphabet
        self.output_alphabet = machine.output_alphabet
        self.initial = machine.initial
        self.output = machine.output
        self._step = machine.step
        self._row = machine.row
        self.budget = budget

    def _charge(self, moves):
        self.budget -= moves
        assert self.budget >= 0, "step budget exceeded"

    def step(self, q, i):
        self._charge(1)
        return self._step(q, i)

    def row(self, q):
        row = self._row(q)
        self._charge(len(row))
        return row


def reachable_states(m):
    """Reachable states in BFS discovery order."""
    seen = {m.initial}
    order = [m.initial]
    for q in order:
        for i in m.input_alphabet:
            t = m.step(q, i)
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    return order


# What ``equivalent`` and the oracles read of a machine, eager or lazy.
SHARED_SURFACE = ("initial", "row", "step", "output", "semantics", "lasts",
                  "input_alphabet", "output_alphabet")


def test_det_and_induced_machines_expose_one_surface():
    rng = random.Random(7)
    mmn = from_spec("rand:star2:lean:mean=3:seed=7")
    partial_mmn = Mmn(mmn.network, {
        c: drop_transitions(rng, m, 0.2) for c, m in mmn.machines.items()
    })
    fall_offs = 0
    for machine in (random_machine(rng, n_max=8, partial=True), InducedMoore(partial_mmn)):
        assert [name for name in SHARED_SURFACE if not hasattr(machine, name)] == []
        for q in reachable_states(machine):
            row = machine.row(q)
            assert row == [machine.step(q, i) for i in machine.input_alphabet]
            fall_offs += row.count(None)
    assert fall_offs > 0


def ring(n, ia, oa):
    """n states in a ring with one output; input 0 moves one on, input 1 two."""
    trans = tuple({0: (q + 1) % n, 1: (q + 2) % n} for q in range(n))
    return DetMoore(ia, oa, n, 0, trans, (0,) * n)


def test_equivalent_work_bound_coprime_rings():
    ia, oa = Alphabet(["a", "b"]), Alphabet(["x"])
    # All 30 * 31 state pairs are reachable: a product walk steps each side
    # 1,860 times.
    budget = (30 + 31) * 2
    r30 = StepBudget(ring(30, ia, oa), budget)
    r31 = StepBudget(ring(31, ia, oa), budget)
    assert equivalent(r30, r31) is EQUIVALENT


def test_equivalent_work_bound_learned_system():
    # ccwl's model and the SUL's induced machine are both far from minimal;
    # their reachable product has tens of thousands of pairs.
    spec = "rand:compl4:lean:mean=5:seed=0"
    model = ccwl(Sul(from_spec(spec), EqTestConfig()), CaParams()).mmn
    learned, target = InducedMoore(model), InducedMoore(from_spec(spec))
    n_configs = len(reachable_states(learned)) + len(reachable_states(target))
    budget = n_configs * len(learned.input_alphabet)
    res = equivalent(StepBudget(learned, budget), StepBudget(target, budget))
    assert res is EQUIVALENT


def unrolled(m, k):
    """``m`` times a k-state counter that ticks on every move: equivalent to
    ``m`` but k times its size.  State q*k + c is q at count c."""
    trans = tuple(
        {i: t * k + (c + 1) % k for i, t in m.transitions[q].items()}
        for q in range(m.n_states)
        for c in range(k)
    )
    outs = tuple(o for o in m.outputs for _ in range(k))
    return DetMoore(
        m.input_alphabet, m.output_alphabet, m.n_states * k, m.initial * k, trans, outs
    )


def test_equivalent_unrolled_copies_and_single_edits():
    rng = random.Random(31)
    oa = Alphabet(["o0", "o1"])
    for _ in range(200):
        m = random_machine(rng, partial=True, oa=oa)
        copy = unrolled(m, rng.randint(2, 4))
        budget = (m.n_states + copy.n_states) * len(m.input_alphabet)
        for a, b in ((m, copy), (copy, m)):
            res = equivalent(StepBudget(a, budget), StepBudget(b, budget))
            assert res is EQUIVALENT
        # One edit at a reachable state of the copy: drop a move or flip
        # the output.  Either makes the machines differ.
        q = rng.choice(reachable_states(copy))
        row = copy.transitions[q]
        if row and rng.random() < 0.5:
            dropped = rng.choice(sorted(row))
            trans = list(copy.transitions)
            trans[q] = {i: t for i, t in row.items() if i != dropped}
            edited = replace(copy, transitions=tuple(trans))
        else:
            outs = list(copy.outputs)
            outs[q] = 1 - outs[q]
            edited = replace(copy, outputs=tuple(outs))
        for a, b in ((m, edited), (edited, m)):
            res = equivalent(a, b)
            assert res is not EQUIVALENT
            assert res == path_bfs_equivalent(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 6))
def test_complete_machine_semantics_full_length(seed, wlen):
    rng = random.Random(seed)
    m = random_machine(rng, partial=False)
    word = tuple(rng.randrange(len(m.input_alphabet)) for _ in range(wlen))
    assert len(m.semantics(word)) == wlen + 1

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mmnlearn.alphabet import Alphabet, AlphabetError
from mmnlearn.benchmarks import mmn_ex
from mmnlearn.machine import (
    Counterexample,
    DetMoore,
    EQUIVALENT,
    equivalent,
    det_run,
    identity_partition,
    nd_semantics,
    partition_eq_k,
    partition_uni,
    quotient,
    reachable,
    wrap_nondet,
)


def fig_c1():
    return mmn_ex().machines["c1"]


def fig_c2():
    return mmn_ex().machines["c2"]


def w(machine, *names):
    return tuple(machine.input_alphabet.symbol(n) for n in names)


def out_names(machine, syms):
    return [machine.output_alphabet.name(s) for s in syms]


# -- runs and semantics -------------------------------------------------------


def test_det_run_example_machine():
    m = fig_c1()
    assert det_run(m, 0, w(m, "(a,3)")) == 1
    assert det_run(m, 0, ()) == 0
    m2 = fig_c2()
    # the (z,4) state has no outgoing transitions at all
    assert det_run(m2, 2, w(m2, "(c,1)")) is None
    assert det_run(m2, 2, ()) == 2


def test_det_run_rejects_foreign_symbols():
    m = fig_c1()
    with pytest.raises(AlphabetError):
        det_run(m, 0, (99,))


def test_foreign_symbol_rejected_anywhere_in_word():
    m2 = fig_c2()
    word = w(m2, "(c,2)", "(c,1)", "(c,1)")  # falls off at the last symbol
    assert len(m2.semantics(word)) == 3
    for bad in (-1, len(m2.input_alphabet)):
        for pos in range(len(word) + 1):  # pos 3 lies past the fall-off
            foreign = word[:pos] + (bad,) + word[pos:]
            with pytest.raises(AlphabetError):
                m2.semantics(foreign)
            with pytest.raises(AlphabetError):
                m2.run(m2.initial, foreign)


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


# -- nondeterministic ---------------------------------------------------------


def test_nd_semantics_empty_start():
    nm = wrap_nondet(fig_c2())
    res = nd_semantics(nm, (), w(fig_c2(), "(c,1)"))
    assert res == [frozenset(), frozenset()]


def test_nd_semantics_wraps_determinism():
    m = fig_c2()
    nm = wrap_nondet(m)
    word = w(m, "(c,2)", "(c,1)", "(c,1)")
    det = m.semantics(word)
    nd = nd_semantics(nm, {m.initial}, word)
    assert len(nd) == len(word) + 1
    for j, outs in enumerate(nd):
        if j < len(det):
            assert outs == frozenset((det[j],))
        else:
            assert outs == frozenset()


def test_nd_semantics_uni_quotient_example():
    m = fig_c2()
    q = quotient(m, partition_uni(m))
    word = w(m, "(c,1)")
    res = nd_semantics(q, q.initials, word)
    allout = frozenset(
        m.output_alphabet.symbol(n) for n in ["(z,3)", "(w,3)", "(z,4)", "(w,4)"]
    )
    assert res == [allout, allout]


# -- reachability -------------------------------------------------------------


def test_reachable_depth_zero():
    m = fig_c2()
    assert reachable(m, depth=0) == {0}


def test_reachable_all_states():
    assert reachable(fig_c2()) == {0, 1, 2, 3}


def test_reachable_depth_bound():
    m = fig_c2()
    assert reachable(m, depth=1) == {0, 1}
    assert reachable(m, depth=2) == {0, 1, 2, 3}


# -- partitions and quotients --------------------------------------------------


def test_partition_eq0_groups_by_output():
    ia = Alphabet(["i"])
    oa = Alphabet(["x", "y"])
    m = DetMoore(ia, oa, 3, 0, ({0: 1}, {0: 2}, {0: 2}), (0, 0, 1))
    p = partition_eq_k(m, 0)
    assert p.blocks == ((0, 1), (2,))


def test_partition_eq0_distinct_outputs_fig2():
    p = partition_eq_k(fig_c2(), 0)
    assert p.n_blocks() == 4


def test_partition_eqk_sentinel_is_identity():
    m = fig_c2()
    assert partition_eq_k(m, None).blocks == identity_partition(m).blocks


def test_partition_uni():
    m = fig_c1()
    p = partition_uni(m)
    assert p.blocks == ((0, 1),)


def test_partition_refinement_chain():
    rng = random.Random(11)
    for _ in range(30):
        m = random_machine(rng, partial=True)
        parts = [partition_eq_k(m, k) for k in range(4)] + [partition_eq_k(m, None)]
        for finer, coarser in zip(parts[1:], parts):
            assert finer.refines(coarser)
        assert all(partition_eq_k(m, k).refines(partition_uni(m)) for k in range(3))


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


def test_quotient_overapproximates():
    rng = random.Random(23)
    for _ in range(40):
        m = random_machine(rng, partial=True)
        k = rng.choice([0, 1, None])
        part = partition_eq_k(m, k) if rng.random() < 0.7 else partition_uni(m)
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
    for length in range(depth + 1):
        for word in itertools.product(range(n_in), repeat=length):
            if m1.semantics(word) != m2.semantics(word):
                return Counterexample(word)
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 6))
def test_complete_machine_semantics_full_length(seed, wlen):
    rng = random.Random(seed)
    m = random_machine(rng, partial=False)
    word = tuple(rng.randrange(len(m.input_alphabet)) for _ in range(wlen))
    assert len(m.semantics(word)) == wlen + 1

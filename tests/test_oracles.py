import random
import time

import pytest

from mmnlearn import oracles
from mmnlearn.alphabet import AlphabetError
from mmnlearn.benchmarks import binary_counter, mmn_ex, rand_mmn
from mmnlearn.machine import Counterexample, DetMoore
from mmnlearn.network import InducedMoore
from mmnlearn.oracles import EqTestConfig, QueryStats, Sul, random_word


def sul_for(mmn, seed=0, words=100, length=260):
    return Sul(mmn, EqTestConfig(words, length, seed))


def w(alpha, *names):
    return tuple(alpha.symbol(n) for n in names)


# -- output queries -----------------------------------------------------------


def test_oq_epsilon():
    s = sul_for(mmn_ex())
    out = s.oq(())
    assert [s.system_outputs.name(x) for x in out] == ["(x,z)"]
    assert s.stats.oq_resets == 1 and s.stats.oq_steps == 0


def test_oq_binary_counter():
    s = sul_for(binary_counter(2))
    out = s.oq(w(s.system_inputs, "(1)", "(0)", "(0)"))
    assert [s.system_outputs.name(x) for x in out] == ["(0,0)", "(1,0)", "(1,0)", "(1,0)"]
    assert s.stats.oq_resets == 1 and s.stats.oq_steps == 3


def test_oq_example_system():
    s = sul_for(mmn_ex())
    out = s.oq(w(s.system_inputs, "(a,c)"))
    assert [s.system_outputs.name(x) for x in out] == ["(x,z)", "(y,z)"]


def test_oq_rejects_foreign_character():
    s = sul_for(mmn_ex())
    with pytest.raises(AlphabetError):
        s.oq((999,))
    with pytest.raises(AlphabetError):
        s.oq_bar((-1,))
    with pytest.raises(AlphabetError):
        s.oq_c("c1", (99,))
    assert s.stats.snapshot() == QueryStats().snapshot()  # nothing charged


def test_oq_c_examples():
    s = sul_for(mmn_ex())
    ia = s.component_input_alphabet("c1")
    oa = s.component_output_alphabet("c1")
    out = s.oq_c("c1", w(ia, "(a,3)"))
    assert [oa.name(x) for x in out] == ["(x,1)", "(y,2)"]
    assert s.stats.oq_resets == 1 and s.stats.oq_steps == 1

    s2 = sul_for(binary_counter(5))
    ia1 = s2.component_input_alphabet("c1")
    oa1 = s2.component_output_alphabet("c1")
    out = s2.oq_c("c1", w(ia1, "(1)", "(1)"))
    assert [oa1.name(x) for x in out] == ["(0,0)", "(0,1)", "(1,0)"]


def test_oq_c_partial_component_flags_contract():
    s = sul_for(mmn_ex())
    ia = s.component_input_alphabet("c2")
    out = s.oq_c("c2", w(ia, "(c,2)", "(c,1)", "(c,1)"))
    assert len(out) == 3  # truncated
    assert s.contract_violations == 1


def test_oq_bar_examples():
    s = sul_for(mmn_ex())
    trace = s.oq_bar(())
    assert trace == [s._mmn.total_output(s._mmn.initial_configuration())]
    s2 = sul_for(mmn_ex())
    trace = s2.oq_bar(w(s2.system_inputs, "(a,c)"))
    oc1 = s2.component_output_alphabet("c1")
    oc2 = s2.component_output_alphabet("c2")
    got = [(oc1.name(a), oc2.name(b)) for a, b in trace]
    assert got == [("(x,1)", "(z,3)"), ("(y,2)", "(z,3)")]
    # |V^c| resets, |V^c| * |w| steps
    assert s2.stats.oq_resets == 2
    assert s2.stats.oq_steps == 2


def test_oq_bar_agrees_with_oq_projection():
    rng = random.Random(4)
    s = sul_for(binary_counter(3))
    net = s.network
    # Which component and output digit each system output edge reads.
    reads = [
        (s.components.index(e[0]), net.out_edges[e[0]].index(e))
        for e in net.system_out_edges
    ]
    for _ in range(200):
        word = tuple(rng.randrange(len(s.system_inputs)) for _ in range(10))
        bar = s.oq_bar(word)
        out = s.oq(word)
        for tick, tot in enumerate(bar):
            digits = []
            for comp_idx, pos in reads:
                alpha = s.component_output_alphabet(s.components[comp_idx])
                digits.append(alpha.digit(tot[comp_idx], pos))
            assert s.system_outputs.encode(digits) == out[tick]


# -- equivalence queries ---------------------------------------------------------


def test_eq_exact_copy_passes_and_charges():
    s = sul_for(binary_counter(2), seed=5)
    copy = s._mmn.materialize()
    verdict = s.eq(copy)
    assert verdict is True
    assert s.stats.eq_count == 1
    assert s.stats.eq_resets == 100
    assert s.stats.eq_steps == 100 * 260


def test_eq_wrong_initial_output_found_on_first_word():
    s = sul_for(binary_counter(2), seed=5)
    m = s._mmn.materialize()
    wrong = DetMoore(
        m.input_alphabet, m.output_alphabet, m.n_states, m.initial,
        m.transitions, ((m.outputs[0] + 1) % len(m.output_alphabet),) + m.outputs[1:],
    )
    verdict = s.eq(wrong)
    assert isinstance(verdict, Counterexample)
    assert s.stats.eq_resets == 1
    first = random.Random(5)
    n = len(m.input_alphabet)
    assert verdict.word == tuple(first.randrange(n) for _ in range(260))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 100, 255, 256, 1000, 2**20 + 1])
def test_random_word_is_the_randrange_stream(n):
    for seed, length in ((0, 260), (97, 13)):
        ref, fast = random.Random(seed), random.Random(seed)
        for _ in range(20):
            expected = tuple(ref.randrange(n) for _ in range(length))
            assert random_word(fast, n, length) == expected
        assert fast.getstate() == ref.getstate()


def test_eq_detects_missing_transition_truncation():
    s = sul_for(binary_counter(2), seed=5)
    m = s._mmn.materialize()
    trimmed = DetMoore(
        m.input_alphabet, m.output_alphabet, m.n_states, m.initial,
        (dict(),) + m.transitions[1:], m.outputs,
    )
    verdict = s.eq(trimmed)
    assert isinstance(verdict, Counterexample)
    assert m.semantics(verdict.word) != trimmed.semantics(verdict.word)


def test_eq_deterministic_per_seed():
    a = sul_for(binary_counter(2), seed=42)
    b = sul_for(binary_counter(2), seed=42)
    ha, hb = a._mmn.materialize(), b._mmn.materialize()
    assert a.eq(ha) is True and b.eq(hb) is True
    assert a.stats.eq_steps == b.stats.eq_steps


def test_eq_c_mirror():
    s = sul_for(binary_counter(2), seed=9)
    c1 = s._mmn.machines["c1"]
    assert s.eq_c("c1", c1) is True
    wrong = DetMoore(
        c1.input_alphabet, c1.output_alphabet, c1.n_states, c1.initial,
        c1.transitions, ((c1.outputs[0] + 1) % len(c1.output_alphabet),) + c1.outputs[1:],
    )
    assert isinstance(s.eq_c("c1", wrong), Counterexample)


# -- exact validation --------------------------------------------------------------


def test_validate_exact_copy():
    s = sul_for(mmn_ex())
    before = s.stats.snapshot()
    assert s.validate_exact(mmn_ex()) is True
    assert s.stats.snapshot() == before  # not charged


def test_validate_exact_finds_difference():
    s = sul_for(binary_counter(2))
    other = binary_counter(2)
    m = other.machines["c2"]
    flipped = DetMoore(
        m.input_alphabet, m.output_alphabet, m.n_states, m.initial, m.transitions,
        tuple((o + 1) % len(m.output_alphabet) for o in m.outputs),
    )
    broken = type(other)(other.network, {**other.machines, "c2": flipped}, check=False)
    res = s.validate_exact(broken)
    assert isinstance(res, Counterexample)


def test_validate_exact_agrees_with_word_enumeration():
    import itertools

    def perturbed(mmn):
        m = mmn.machines["c2"]
        flipped = DetMoore(
            m.input_alphabet, m.output_alphabet, m.n_states, m.initial,
            m.transitions,
            m.outputs[:-1] + ((m.outputs[-1] + 1) % len(m.output_alphabet),),
        )
        return type(mmn)(mmn.network, {**mmn.machines, "c2": flipped}, check=False)

    s = sul_for(mmn_ex())
    sul_ind = InducedMoore(s._mmn)
    for cand_mmn in (mmn_ex(), perturbed(mmn_ex())):
        cand = InducedMoore(cand_mmn)
        res = s.validate_exact(cand_mmn)
        found = None
        for length in range(8):
            for word in itertools.product(range(len(s.system_inputs)), repeat=length):
                if cand.semantics(word) != sul_ind.semantics(word):
                    found = word
                    break
            if found:
                break
        assert (res is True) == (found is None)
        if found is not None:
            assert len(res.word) <= len(found)  # BFS witness is shortest


# -- stats conservation --------------------------------------------------------------


def test_stats_conservation():
    s = sul_for(binary_counter(2), seed=1, words=5, length=7)
    words = [(0,), (1, 0), (1, 1, 0)]
    for word in words:
        s.oq(word)
    s.oq_c("c1", (0, 1))
    s.eq(s._mmn.materialize())
    assert s.stats.oq_resets == len(words) + 1
    assert s.stats.oq_steps == sum(len(w_) for w_ in words) + 2
    assert s.stats.eq_resets == 5
    assert s.stats.eq_steps == 5 * 7


def test_stats_snapshot_is_the_five_totals():
    s = sul_for(binary_counter(2), seed=1, words=5, length=7)
    s.oq((0, 1))
    s.oq_c("c1", (0,))
    s.eq(s._mmn.materialize())
    assert s.stats.snapshot() == {
        "oq_resets": 2,
        "oq_steps": 3,
        "eq_count": 1,
        "eq_resets": 5,
        "eq_steps": 35,
    }


def test_exact_eq_charges_one_eq_and_no_words():
    s = sul_for(binary_counter(2))
    assert s.exact_eq(s._mmn.materialize()) is True
    assert s.exact_eq_c("c1", s._mmn.machines["c1"]) is True
    assert s.stats.snapshot() == {**QueryStats().snapshot(), "eq_count": 2}


def test_exact_eq_time_counts_as_oracle_time(monkeypatch):
    real = oracles.equivalent

    def slow_equivalent(m1, m2):
        time.sleep(0.05)
        return real(m1, m2)

    monkeypatch.setattr(oracles, "equivalent", slow_equivalent)
    s = sul_for(binary_counter(2))
    assert s.exact_eq(s._mmn.materialize()) is True
    assert s.exact_eq_c("c1", s._mmn.machines["c1"]) is True
    assert s.oracle_seconds >= 0.1

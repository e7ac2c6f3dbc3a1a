import random
import time

import pytest

from mmnlearn import oracles
from mmnlearn.alphabet import Alphabet, AlphabetError
from mmnlearn.benchmarks import binary_counter, mmn_ex, rand_mmn
from mmnlearn.componentwise import CaParams
from mmnlearn.harness import ExperimentConfig, run_experiment
from mmnlearn.machine import Counterexample, DetMoore
from mmnlearn.network import InducedMoore, Mmn
from mmnlearn.oracles import EqTestConfig, QueryStats, Sul, random_word
from tests.test_network import materialize


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


def test_oq_c_last_charges_and_flags_like_oq_c():
    word_names = ("(c,2)", "(c,1)", "(c,1)")  # falls off c2 at the last symbol
    full, last = sul_for(mmn_ex()), sul_for(mmn_ex())
    word = w(full.component_input_alphabet("c2"), *word_names)
    out = full.oq_c("c2", word)
    assert last.oq_c_lasts("c2", [word]) == [out[-1]]
    assert last.stats.snapshot() == full.stats.snapshot()
    assert last.stats.oq_resets == 1 and last.stats.oq_steps == 3
    assert last.contract_violations == full.contract_violations == 1
    # A complete run is charged alike and flags nothing.
    assert last.oq_c_lasts("c2", [word[:2]]) == [full.oq_c("c2", word[:2])[-1]]
    assert last.stats.snapshot() == full.stats.snapshot()
    assert last.contract_violations == 1


def test_oq_last_charges_like_oq():
    full, last = sul_for(binary_counter(3)), sul_for(binary_counter(3))
    rng = random.Random(4)
    for n in range(8):
        word = tuple(rng.randrange(len(full.system_inputs)) for _ in range(n))
        assert last.oq_lasts([word]) == [full.oq(word)[-1]]
    assert last.stats.snapshot() == full.stats.snapshot()
    with pytest.raises(AlphabetError):
        last.oq_lasts([(0, len(last.system_inputs))])
    assert last.stats.snapshot() == full.stats.snapshot()  # rejected: not charged


def _batch_oracles(sul):
    """(batch oracle, per-word full-trace oracle, input alphabet size) for
    the system and for ``mmn_ex``'s partial component ``c2``."""
    return [
        (sul.oq_lasts, sul.oq, len(sul.system_inputs)),
        (lambda ws: sul.oq_c_lasts("c2", ws), lambda x: sul.oq_c("c2", x),
         len(sul.component_input_alphabet("c2"))),
    ]


def test_batch_last_queries_charge_the_per_word_sums():
    """On random batches, repeats and the empty word included, a batch is
    charged one reset and ``len(w)`` steps per word, and on the partial
    component one contract violation per word that falls off: the sums
    of asking each word on its own."""
    rng = random.Random(11)
    batched, single = sul_for(mmn_ex()), sul_for(mmn_ex())
    for (lasts, _, n), (_, oq, _) in zip(_batch_oracles(batched), _batch_oracles(single)):
        for _ in range(30):
            words = [tuple(rng.randrange(n) for _ in range(rng.randrange(7)))
                     for _ in range(rng.randrange(1, 12))]
            words.append(rng.choice(words))
            assert lasts(words) == [oq(word)[-1] for word in words]
            assert batched.stats.snapshot() == single.stats.snapshot()
            assert batched.contract_violations == single.contract_violations
    assert batched.contract_violations > 0  # the component batches fell off


def test_batch_with_foreign_symbol_raises_and_charges_nothing():
    """A foreign symbol anywhere in a batch, also past a fall-off, raises
    ``AlphabetError`` before any word of the batch is charged or flagged,
    also words ahead of it that fell off."""
    s = sul_for(mmn_ex())
    c2 = s.component_input_alphabet("c2")
    fall_off = w(c2, "(c,2)", "(c,1)", "(c,1)")  # c2 falls off; the system does not
    for lasts, _, n in _batch_oracles(s):
        good = [(), (0,), (n - 1, 0), fall_off]
        for bad in (-1, n):
            for foreign in ((bad,), (0, bad), fall_off + (bad,)):
                with pytest.raises(AlphabetError):
                    lasts(good + [foreign] + good)
                assert s.stats.snapshot() == QueryStats().snapshot()
                assert s.contract_violations == 0


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


def mmn_ex_without_a3_latch():
    """``mmn_ex`` with c1's initial move on (a,3) removed: the system word
    (a,c) falls off at its first tick."""
    m = mmn_ex()
    c1 = m.machines["c1"]
    a3 = c1.input_alphabet.symbol("(a,3)")
    trans = ({i: t for i, t in c1.transitions[0].items() if i != a3},) + c1.transitions[1:]
    cut = DetMoore(c1.input_alphabet, c1.output_alphabet, c1.n_states, c1.initial,
                   trans, c1.outputs)
    return Mmn(m.network, {**m.machines, "c1": cut}, check=False)


def test_system_oq_falling_off_flags_the_contract():
    # A system fall-off is a component's fall-off, flagged like oq_c's.
    s = sul_for(mmn_ex_without_a3_latch())
    word = w(s.system_inputs, "(a,c)", "(b,d)")
    assert len(s.oq(word)) == 1  # truncated at the first tick
    assert s.contract_violations == 1
    assert s.oq_lasts([word, (), word[1:]]) == [s.oq(word)[-1], s.oq(())[-1],
                                                 s.oq(word[1:])[-1]]
    assert s.contract_violations == 3  # one per fall-off, in and out of a batch
    assert s.stats.oq_resets == 7 and s.stats.oq_steps == 8


def test_oq_bar_falling_off_raises_after_charging():
    s = sul_for(mmn_ex_without_a3_latch())
    word = w(s.system_inputs, "(b,c)", "(a,c)", "(b,d)")
    with pytest.raises(oracles.OracleContractError):
        s.oq_bar(word)
    # Charged |V^c| resets and |V^c| * |w| steps before the raise, counted
    # as a contract violation and timed as oracle time.
    assert s.stats.snapshot() == {**QueryStats().snapshot(), "oq_resets": 2, "oq_steps": 6}
    assert s.contract_violations == 1
    assert s.oracle_seconds > 0
    assert s.oq_bar(word[:1]) == [s._mmn.total_output(s._mmn.initial_configuration())] * 2


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
    copy = materialize(s._mmn)
    verdict = s.eq(copy)
    assert verdict is True
    assert s.stats.eq_count == 1
    assert s.stats.eq_resets == 100
    assert s.stats.eq_steps == 100 * 260


def test_eq_wrong_initial_output_found_on_first_word():
    s = sul_for(binary_counter(2), seed=5)
    m = materialize(s._mmn)
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


@pytest.mark.parametrize("n", [*range(1, 301), 1000, 2**20 + 1])
def test_random_word_is_the_randrange_stream(n):
    # n <= 255 draws batches of top bytes and a tail of at most four symbols
    # one by one; n > 255 draws every symbol one by one.  Lengths 0-8 cover
    # words that are all tail, 260 is the EQ default.
    for seed, usual in ((0, 260), (97, 13)):
        ref, fast = random.Random(seed), random.Random(seed)
        for length in [usual] * 20 + [*range(9), 260]:
            expected = tuple(ref.randrange(n) for _ in range(length))
            assert random_word(fast, n, length) == expected
            assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("length", [1, 3, 4, 5, 260])
@pytest.mark.parametrize("n", [1, 2, 5, 255, 256, 300])
def test_random_word_bulk_draw_is_the_consecutive_words(n, length):
    # An EQ whose product closes draws its words left in one call: each
    # symbol tried takes one generator output, whatever the word boundaries.
    for m in (1, 2, 7, 100):
        apart, bulk = random.Random(m), random.Random(m)
        words = [random_word(apart, n, length) for _ in range(m)]
        assert random_word(bulk, n, m * length) == tuple(s for w in words for s in w)
        assert bulk.getstate() == apart.getstate()


def test_eq_detects_missing_transition_truncation():
    s = sul_for(binary_counter(2), seed=5)
    m = materialize(s._mmn)
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
    ha, hb = materialize(a._mmn), materialize(b._mmn)
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


# -- the product walk against the two-run comparison ----------------------------


def reference_eq(target, hypothesis, cfg, rng, stats):
    """The comparison ``Sul._random_eq`` replaced: both machines run every
    whole word, and the two output tuples are compared.  Words are drawn one
    ``randrange`` per symbol, the stream ``random_word`` must reproduce."""
    stats._eq()
    n = len(target.input_alphabet)
    for _ in range(cfg.words_per_eq):
        word = tuple(rng.randrange(n) for _ in range(cfg.word_length))
        stats.eq_resets += 1
        stats.eq_steps += len(word)
        if target.semantics(word) != hypothesis.semantics(word):
            return Counterexample(word)
    return True


def assert_eqs_match_reference(pairs, cfg):
    """Run the EQs of ``pairs`` in order on one SUL and on the reference;
    the verdicts, charges and generator states agree after every EQ."""
    sul = Sul(mmn_ex(), cfg)
    rng, stats = random.Random(cfg.seed), QueryStats()
    verdicts = []
    for target, hypothesis, ref_target, ref_hypothesis in pairs:
        got = sul._random_eq(target, hypothesis)
        want = reference_eq(ref_target, ref_hypothesis, cfg, rng, stats)
        assert got == want
        assert sul.stats.snapshot() == stats.snapshot()
        assert sul._rng.getstate() == rng.getstate()
        verdicts.append(got is True)
    return verdicts


def random_moore(rng, n_in, n_out, density=1.0):
    n = rng.randint(1, 6)
    trans = tuple(
        {i: rng.randrange(n) for i in range(n_in) if rng.random() < density}
        for _ in range(n)
    )
    return DetMoore(
        Alphabet(["i%d" % i for i in range(n_in)]),
        Alphabet(["o%d" % o for o in range(n_out)]),
        n, rng.randrange(n), trans, tuple(rng.randrange(n_out) for _ in range(n)),
    )


def renumbered(m, rng):
    """An isomorphic copy with shuffled state ids: the same output traces."""
    perm = list(range(m.n_states))
    rng.shuffle(perm)
    trans = [None] * m.n_states
    outs = [None] * m.n_states
    for q in range(m.n_states):
        trans[perm[q]] = {i: perm[t] for i, t in m.transitions[q].items()}
        outs[perm[q]] = m.outputs[q]
    return DetMoore(m.input_alphabet, m.output_alphabet, m.n_states,
                    perm[m.initial], tuple(trans), tuple(outs))


def mutated(m, rng, kind):
    """``m`` with one change: a flipped output, a dropped or redirected
    transition, or (``same``) none."""
    trans = [dict(row) for row in m.transitions]
    outs = list(m.outputs)
    q = rng.randrange(m.n_states)
    if kind == "output":
        outs[q] = (outs[q] + 1) % len(m.output_alphabet)
    elif kind == "drop" and trans[q]:
        del trans[q][rng.choice(sorted(trans[q]))]
    elif kind == "redirect" and trans[q]:
        i = rng.choice(sorted(trans[q]))
        trans[q][i] = (trans[q][i] + 1) % m.n_states
    return DetMoore(m.input_alphabet, m.output_alphabet, m.n_states, m.initial,
                    tuple(trans), tuple(outs))


KINDS = ("same", "output", "drop", "redirect")


@pytest.mark.parametrize("seed", range(6))
def test_product_eq_matches_reference_on_complete_pairs(seed):
    rng = random.Random(seed)
    pairs = []
    for _ in range(12):
        n_in, n_out = rng.randint(1, 4), rng.randint(1, 3)
        target = random_moore(rng, n_in, n_out)
        if rng.random() < 0.25:  # an unrelated complete machine
            hyp = random_moore(rng, n_in, n_out)
        else:
            kind = rng.choice(("same", "output", "redirect"))
            hyp = renumbered(mutated(target, rng, kind), rng)
        pairs.append((target, hyp, target, hyp))
    verdicts = assert_eqs_match_reference(pairs, EqTestConfig(8, 12, seed))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("seed", range(6))
def test_product_eq_matches_reference_on_partial_pairs(seed):
    # Partial hypotheses of complete targets, and hypotheses falling off at
    # the same tick as a partial target (isomorphic copies, mutated or not).
    rng = random.Random(100 + seed)
    pairs = []
    for _ in range(12):
        n_in, n_out = rng.randint(1, 4), rng.randint(1, 3)
        if rng.random() < 0.5:
            target = random_moore(rng, n_in, n_out)
            hyp = mutated(target, rng, "drop")
            hyp = random_moore(rng, n_in, n_out, density=0.7) if rng.random() < 0.3 else hyp
        else:
            target = random_moore(rng, n_in, n_out, density=0.8)
            hyp = mutated(target, rng, rng.choice(KINDS))
        hyp = renumbered(hyp, rng)
        pairs.append((target, hyp, target, hyp))
    verdicts = assert_eqs_match_reference(pairs, EqTestConfig(8, 12, seed))
    assert True in verdicts and False in verdicts


def test_product_eq_matches_reference_on_initial_output_difference():
    rng = random.Random(7)
    pairs = []
    for _ in range(5):
        target = random_moore(rng, 3, 2, density=rng.choice((0.6, 1.0)))
        outs = list(target.outputs)
        outs[target.initial] ^= 1
        hyp = DetMoore(target.input_alphabet, target.output_alphabet, target.n_states,
                       target.initial, target.transitions, tuple(outs))
        pairs.append((target, hyp, target, hyp))
    assert assert_eqs_match_reference(pairs, EqTestConfig(8, 12, 7)) == [False] * 5


def test_product_eq_matches_reference_with_larger_hypothesis_alphabet():
    rng = random.Random(11)
    pairs = []
    for kind in KINDS * 2:
        target = random_moore(rng, 3, 2)
        base = mutated(target, rng, kind)
        wide = DetMoore(
            Alphabet(target.input_alphabet.names() + ["extra"]), base.output_alphabet,
            base.n_states, base.initial,
            tuple({**row, 3: rng.randrange(base.n_states)} for row in base.transitions),
            base.outputs,
        )
        pairs.append((target, wide, target, wide))
    verdicts = assert_eqs_match_reference(pairs, EqTestConfig(8, 12, 11))
    assert True in verdicts and False in verdicts


def partial_mmn(mmn, rng, keep):
    """``mmn`` with each component transition kept with probability ``keep``."""
    machines = {}
    for c, m in mmn.machines.items():
        trans = tuple(
            {i: t for i, t in row.items() if rng.random() < keep} for row in m.transitions
        )
        machines[c] = DetMoore(m.input_alphabet, m.output_alphabet, m.n_states,
                               m.initial, trans, m.outputs)
    return Mmn(mmn.network, machines, check=False)


def mark_kinds(sul, target, memo):
    """The kinds of the marks in the product ``sul`` keeps for ``memo``:
    ``fall-off`` where a side has no move, else ``output``."""
    _, pairs, _, _, marks, _ = sul._product
    kinds = set()
    for p, i in marks:
        t, h = pairs[p]
        t, h = target.step(t, i), memo.step(h, i)
        kinds.add("fall-off" if None in (t, h) else "output")
    return kinds


@pytest.mark.parametrize("flip", [False, True])
def test_product_eq_matches_reference_on_rebound_induced_machines(flip):
    # As in ccwl: Sul.eq keeps its product for one hypothesis memo, which is
    # rebound to a hypothesis grown from the last between two EQs.  Partial
    # hypotheses leave fall-off marks and, with a flipped component, output
    # marks, which the next EQ must reset: after every EQ the verdict, the
    # charges and the generator state equal the reference's.
    target = rand_mmn("star", 3, "lean", 2, mean=5)
    full = target
    if flip:
        c = full.components[-1]
        m = full.machines[c]
        outs = (m.outputs[0],) + tuple((o + 1) % len(m.output_alphabet) for o in m.outputs[1:])
        flipped = DetMoore(m.input_alphabet, m.output_alphabet, m.n_states,
                           m.initial, m.transitions, outs)
        full = Mmn(target.network, {**target.machines, c: flipped}, check=False)
    rng = random.Random(3)
    hyps = [full]
    for keep in (0.95, 0.9, 0.85, 0.8):
        hyps.insert(0, partial_mmn(hyps[0], rng, keep))
    cfg = EqTestConfig(20, 30, 5)
    sul, memo = Sul(target, cfg), InducedMoore(hyps[0])
    ref_rng, ref_stats = random.Random(cfg.seed), QueryStats()
    verdicts, kinds, products = [], set(), []
    for hyp in hyps:
        memo.rebind(hyp)  # a no-op on the first hypothesis
        got = sul.eq(memo)
        assert got == reference_eq(InducedMoore(target), InducedMoore(hyp), cfg,
                                   ref_rng, ref_stats)
        assert sul.stats.snapshot() == ref_stats.snapshot()
        assert sul._rng.getstate() == ref_rng.getstate()
        assert (sul._product is None) == (got is True)
        if sul._product is not None:
            assert sul._product[0] is memo
            products.append(sul._product[1])  # the pairs list grows in place
            kinds |= mark_kinds(sul, sul._induced, memo)
        verdicts.append(got is True)
    assert verdicts == [False] * (len(hyps) - 1) + [not flip]
    assert all(pairs is products[0] for pairs in products)
    assert kinds == ({"fall-off", "output"} if flip else {"fall-off"})


def test_eq_keeps_the_product_per_hypothesis_object():
    # Whatever the hypothesis type, a counterexample keeps the product for the
    # next EQ on the same object; an EQ on another object, or an "equivalent"
    # answer, drops it.  mnl's and cwl's hypotheses are new DetMoore objects
    # every round, so their next EQ builds a product afresh.
    s = sul_for(binary_counter(2), seed=9)
    c1 = s._mmn.machines["c1"]
    wrong = DetMoore(c1.input_alphabet, c1.output_alphabet, c1.n_states, c1.initial,
                     c1.transitions, tuple((o + 1) % 2 for o in c1.outputs))
    assert isinstance(s.eq_c("c1", wrong), Counterexample) and s._product[0] is wrong
    pairs = s._product[1]
    assert isinstance(s.eq_c("c1", wrong), Counterexample) and s._product[1] is pairs
    memo = InducedMoore(partial_mmn(s._mmn, random.Random(0), 0.5))
    assert isinstance(s.eq(memo), Counterexample) and s._product[0] is memo
    assert isinstance(s.eq_c("c1", wrong), Counterexample) and s._product[0] is wrong
    assert s._product[1] is not pairs
    system = materialize(s._mmn)
    assert s.eq(system) is True and s._product is None
    assert isinstance(s.eq(memo), Counterexample) and s._product[0] is memo
    assert s.eq(system) is True and s._product is None


def test_eq_reuses_a_product_only_against_its_own_target():
    # binctr's components share their alphabets, so one hypothesis object
    # fits both; a product built against c1 must not answer an EQ against c2.
    s = sul_for(binary_counter(2), seed=9)
    c1 = s._mmn.machines["c1"]
    wrong = DetMoore(c1.input_alphabet, c1.output_alphabet, c1.n_states, c1.initial,
                     c1.transitions, tuple((o + 1) % 2 for o in c1.outputs))
    assert isinstance(s.eq_c("c1", wrong), Counterexample)
    pairs = s._product[1]
    assert isinstance(s.eq_c("c2", wrong), Counterexample)
    assert s._product[0] is wrong and s._product[1] is not pairs


def recorded_draws(monkeypatch):
    """The lengths ``Sul._random_eq`` passes to ``random_word``, in order."""
    lengths = []

    def draw(rng, n, length):
        lengths.append(length)
        return random_word(rng, n, length)

    monkeypatch.setattr(oracles, "random_word", draw)
    return lengths


def equal_pairs(rng, machines):
    """Each machine against itself and against a renumbered copy."""
    for m in machines:
        yield m, m, m, m
        copy = renumbered(m, rng)
        yield m, copy, m, copy


@pytest.mark.parametrize("seed", range(4))
def test_product_eq_closed_product_draws_the_words_left_at_once(seed, monkeypatch):
    # 60 words of 10 symbols close these small products well before the last
    # word; every EQ then draws its words left in one call.
    rng = random.Random(200 + seed)
    machines = [random_moore(rng, rng.randint(1, 4), rng.randint(1, 3)) for _ in range(6)]
    pairs = list(equal_pairs(rng, machines))
    cfg = EqTestConfig(60, 10, seed)
    lengths = recorded_draws(monkeypatch)
    assert assert_eqs_match_reference(pairs, cfg) == [True] * len(pairs)
    assert sum(length > cfg.word_length for length in lengths) == len(pairs)
    assert len(lengths) < len(pairs) * cfg.words_per_eq


def test_product_eq_closed_product_over_a_large_alphabet(monkeypatch):
    # 300 input symbols: the bulk draw takes random_word's per-symbol path.
    rng = random.Random(5)
    machines = [
        DetMoore(Alphabet(["i%d" % i for i in range(300)]), Alphabet(["o0", "o1"]),
                 2, 0, tuple({i: rng.randrange(2) for i in range(300)} for _ in "ab"),
                 (0, k))
        for k in (0, 1)
    ]
    pairs = list(equal_pairs(rng, machines))
    cfg = EqTestConfig(2000, 10, 3)
    lengths = recorded_draws(monkeypatch)
    assert assert_eqs_match_reference(pairs, cfg) == [True] * len(pairs)
    assert sum(length > cfg.word_length for length in lengths) == len(pairs)


def restricted(m, n, drop_initial=False):
    """``m`` over the first ``n`` input symbols only; ``drop_initial`` also
    removes every move of the initial state."""
    trans = [{i: t for i, t in row.items() if i < n} for row in m.transitions]
    if drop_initial:
        trans[m.initial] = {}
    return DetMoore(Alphabet(m.input_alphabet.names()[:n]), m.output_alphabet,
                    m.n_states, m.initial, tuple(trans), m.outputs)


@pytest.mark.parametrize(
    "seed, drop, resets",
    [
        (3, False, 2),  # word 1 (1, 1, 2) agrees; word 2 (3, 0, 0) holds a 3
        (7, True, 1),  # word 1 (2, 1, 3) falls off at tick 1, before its 3
    ],
)
def test_eq_rejects_word_outside_smaller_hypothesis_alphabet(seed, drop, resets):
    # Words are charged before the check, as when the hypothesis's own
    # ``semantics`` rejected them.
    charged = {**QueryStats().snapshot(), "eq_count": 1,
               "eq_resets": resets, "eq_steps": 3 * resets}
    s = sul_for(mmn_ex(), seed=seed, words=20, length=3)
    with pytest.raises(AlphabetError):
        s.eq(restricted(materialize(s._mmn), 3, drop))
    assert s.stats.snapshot() == charged
    s = sul_for(mmn_ex(), seed=seed, words=20, length=3)
    with pytest.raises(AlphabetError):
        s.eq_c("c1", restricted(s._mmn.machines["c1"], 3, drop))
    assert s.stats.snapshot() == charged


@pytest.mark.parametrize(
    "spec, algorithm, ca, verdict, counts",
    [
        # The job whose hypotheses fall off most often: a product walk that
        # misread a fall-off would change these counts.
        ("rand:star3:lean:mean=5:seed=2", "ccwl", "eqk:0,d:0", "incorrect",
         (217, 7016, 138, 143520, 18)),
        ("binctr:5", "cwl", None, "validated", (44, 369, 6, 130260, 15)),
        # c1 reads 270 input symbols: its final EQ's bulk draw takes the
        # per-symbol path, and the EQs of c2 and c3 read the stream after it.
        ("rand:compl3:rich:mean=5:seed=0", "cwl", None, "validated",
         (26990, 144559, 12, 80340, 78)),
    ],
)
def test_eq_counts_pinned_through_run_experiment(spec, algorithm, ca, verdict, counts):
    params = CaParams.parse(*ca.split(",")) if ca else None
    res = run_experiment(ExperimentConfig(spec, algorithm, ca_params=params, seed=0))
    assert res.validation == verdict
    assert (res.oq_resets, res.oq_steps, res.eq_count, res.eq_steps, res.states) == counts


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
    s.eq(materialize(s._mmn))
    assert s.stats.oq_resets == len(words) + 1
    assert s.stats.oq_steps == sum(len(w_) for w_ in words) + 2
    assert s.stats.eq_resets == 5
    assert s.stats.eq_steps == 5 * 7


def test_stats_snapshot_is_the_five_totals():
    s = sul_for(binary_counter(2), seed=1, words=5, length=7)
    s.oq((0, 1))
    s.oq_c("c1", (0,))
    s.eq(materialize(s._mmn))
    assert s.stats.snapshot() == {
        "oq_resets": 2,
        "oq_steps": 3,
        "eq_count": 1,
        "eq_resets": 5,
        "eq_steps": 35,
    }


def test_exact_eq_charges_one_eq_and_no_words():
    s = sul_for(binary_counter(2))
    assert s.exact_eq(materialize(s._mmn)) is True
    assert s.exact_eq_c("c1", s._mmn.machines["c1"]) is True
    assert s.stats.snapshot() == {**QueryStats().snapshot(), "eq_count": 2}


def test_exact_eq_time_counts_as_oracle_time(monkeypatch):
    real = oracles.equivalent

    def slow_equivalent(m1, m2):
        time.sleep(0.05)
        return real(m1, m2)

    monkeypatch.setattr(oracles, "equivalent", slow_equivalent)
    s = sul_for(binary_counter(2))
    assert s.exact_eq(materialize(s._mmn)) is True
    assert s.exact_eq_c("c1", s._mmn.machines["c1"]) is True
    assert s.oracle_seconds >= 0.1

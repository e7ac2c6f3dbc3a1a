import random

import pytest

from mmnlearn.alphabet import Alphabet
from mmnlearn.benchmarks import binary_counter, mmn_ex
from mmnlearn.lstar import OqCache, analyze_cex, lstar, one_ext_lstar
from mmnlearn.machine import Counterexample, DetMoore, MooreError, equivalent
from mmnlearn.oracles import EqTestConfig, Sul
from mmnlearn.table import ObservationTable, SpuriousCounterexampleError
from tests.test_machine import random_machine


class CountingOracle:
    """Output-query and equivalence oracles backed by a plain machine, with
    exact equivalence EQs; ``oq_lasts`` counts each word like ``oq`` and
    logs each batch's size."""

    def __init__(self, machine):
        self.machine = machine
        self.oq_calls = 0
        self.oq_chars = 0
        self.eq_calls = 0
        self.words = set()
        self.batches = []

    def _charge(self, word):
        self.oq_calls += 1
        self.oq_chars += len(word)
        self.words.add(tuple(word))

    def oq(self, word):
        self._charge(word)
        return self.machine.semantics(word)

    def oq_lasts(self, words):
        self.batches.append(len(words))
        for word in words:
            self._charge(word)
        return self.machine.lasts(words)[0]

    def eq(self, hypothesis):
        self.eq_calls += 1
        return equivalent(hypothesis, self.machine)


def is_closed(tbl):
    """Every R row equals some S row."""
    s_rows = {tbl.row(s) for s in tbl.S}
    return all(tbl.row(r) in s_rows for r in tbl.R)


def n_distinct_rows(tbl):
    return len({tbl.row(u) for u in tbl.S + tbl.R})


def reference_hypothesis(tbl):
    """The table's hypothesis built from scratch: state q is S[q], with a
    move on i exactly where S[q]·i is in the table."""
    state_of = {tbl.row(s): q for q, s in enumerate(tbl.S)}
    assert len(state_of) == len(tbl.S), "S rows must stay pairwise distinct"
    transitions = tuple(
        {i: state_of[tbl.row(s + (i,))] for i in tbl.input_alphabet if s + (i,) in tbl}
        for s in tbl.S
    )
    outputs = tuple(tbl.row(s)[0] for s in tbl.S)
    return DetMoore(tbl.input_alphabet, tbl.output_alphabet, len(tbl.S),
                    state_of[tbl.row(())], transitions, outputs)


def table_for(machine, oracle=None):
    oracle = oracle or CountingOracle(machine)
    cache = OqCache(oracle.oq, oracle.oq_lasts)
    tbl = ObservationTable(machine.input_alphabet, machine.output_alphabet, cache.lasts)
    return tbl, cache, oracle


# -- table basics -------------------------------------------------------------


def test_init_table_contains_epsilon():
    m = mmn_ex().machines["c1"]
    tbl, _, oracle = table_for(m)
    assert tbl.S == [()] and tbl.E == [()] and tbl.R == []
    assert tbl.row(()) == (m.outputs[m.initial],)
    assert oracle.oq_calls == 1


def test_init_table_constant_machine():
    ia, oa = Alphabet(["i"]), Alphabet(["k"])
    m = DetMoore(ia, oa, 1, 0, ({0: 0},), (0,))
    tbl, _, _ = table_for(m)
    assert tbl.row(()) == (0,)


def test_closedness_witness_order():
    m = binary_counter(2).machines["c1"]
    tbl, _, _ = table_for(m)
    assert is_closed(tbl)  # R empty
    tbl.add_extension((0,))  # stays in row of epsilon
    tbl.add_extension((1,))  # new output row
    assert not is_closed(tbl)
    tbl.close()
    assert is_closed(tbl)
    assert tbl.S == [(), (1,)]
    tbl.close()  # idempotent
    assert tbl.S == [(), (1,)]


def test_hypothesis_single_row():
    ia, oa = Alphabet(["i"]), Alphabet(["k", "l"])
    m = DetMoore(ia, oa, 1, 0, ({0: 0},), (1,))
    tbl, _, _ = table_for(m)
    h = tbl.hypothesis()
    assert h.n_states == 1
    assert h.outputs == (1,)
    assert h.transitions == ({},)  # no extensions queried yet


def test_hypothesis_undefined_where_not_in_table():
    m = mmn_ex().machines["c1"]
    tbl, _, _ = table_for(m)
    loop = m.input_alphabet.symbol("(b,3)")  # self-loop at the initial state
    tbl.add_extension((loop,))
    assert is_closed(tbl)
    h = tbl.hypothesis()
    assert h.step(0, loop) == 0
    assert h.step(0, m.input_alphabet.symbol("(a,3)")) is None


def test_hypothesis_cached_until_table_changes():
    m = mmn_ex().machines["c1"]
    a3, loop = m.input_alphabet.symbol("(a,3)"), m.input_alphabet.symbol("(b,3)")
    tbl, _, _ = table_for(m)

    def fresh():
        h = tbl.hypothesis()
        assert tbl.hypothesis() is h  # unchanged table: the same object
        rebuilt = reference_hypothesis(tbl)
        assert h == rebuilt and equivalent(h, rebuilt) is True
        return h

    h0 = fresh()
    tbl.add_extension((loop,))  # defines a hypothesis transition
    assert fresh().step(0, loop) == 0 and h0.step(0, loop) is None
    tbl.add_extension((a3, a3))  # not a one-step extension of S: ignored
    fresh()
    tbl.add_extension((loop, a3))  # extends (loop,), an R word: ignored
    fresh()
    tbl.close()  # moves (a3, a3) into S
    assert tbl.S == [(), (a3, a3)] and fresh().n_states == 2
    tbl.add_suffix((a3,))  # table stays closed
    fresh()


def test_hypothesis_move_waits_for_its_prefix():
    # (1, 1) enters the table before its prefix (1,) does: its move appears
    # once (1,) is in S, as in a from-scratch build.
    m = binary_counter(2).machines["c1"]
    one = m.input_alphabet.symbol("(1)")
    tbl, _, _ = table_for(m)
    tbl.add_extension((one, one))
    tbl.close()
    assert tbl.hypothesis() == reference_hypothesis(tbl)
    tbl.add_extension((one,))
    tbl.close()
    h = tbl.hypothesis()
    assert h == reference_hypothesis(tbl)
    assert h.step(tbl.S.index((one,)), one) is not None


def test_one_ext_counts():
    m = mmn_ex().machines["c1"]
    tbl, _, _ = table_for(m)
    exts = one_ext_lstar(tbl)
    assert len(exts) == len(m.input_alphabet)  # one state
    for s, i in exts:
        tbl.add_extension(s + (i,))
    assert [e for e in one_ext_lstar(tbl) if e[0] + (e[1],) not in tbl] == []


# -- counterexample analysis ----------------------------------------------------


def test_analyze_cex_grows_suffixes():
    # last component of a counter: two states share outputs until a suffix splits them
    m = binary_counter(2).machines["c2"]
    tbl, cache, oracle = table_for(m)
    while True:
        tbl.close()
        missing = [(s, i) for (s, i) in one_ext_lstar(tbl) if s + (i,) not in tbl]
        if not missing:
            break
        for s, i in missing:
            tbl.add_extension(s + (i,))
    h = tbl.hypothesis()
    assert h.n_states == 2  # states (0,0) and (1,0) merged under E = {eps}
    cex = equivalent(h, m)
    assert isinstance(cex, Counterexample)
    rows_before = n_distinct_rows(tbl)
    analyze_cex(h, cex.word, cache, tbl)
    assert len(tbl.E) == 2
    assert n_distinct_rows(tbl) > rows_before


def test_analyze_cex_spurious_rejected():
    m = mmn_ex().machines["c1"]
    tbl, cache, _ = table_for(m)
    tbl.close()
    for s, i in one_ext_lstar(tbl):
        if s + (i,) not in tbl:
            tbl.add_extension(s + (i,))
    tbl.close()
    for s, i in one_ext_lstar(tbl):
        if s + (i,) not in tbl:
            tbl.add_extension(s + (i,))
    h = tbl.hypothesis()
    assert equivalent(h, m) is True
    with pytest.raises(SpuriousCounterexampleError):
        analyze_cex(h, (0, 0, 0), cache, tbl)


def toggle_table():
    """A closed, complete table of a two-state toggle (outputs 0, 1, 0, ...)
    and its cache; S is ``[(), (a,)]``."""
    ia, oa = Alphabet(["a"]), Alphabet(["0", "1"])
    m = DetMoore(ia, oa, 2, 0, ({0: 1}, {0: 0}), (0, 1))
    tbl, cache, _ = table_for(m)
    tbl.close()
    tbl.add_extension(*(s + (i,) for s, i in one_ext_lstar(tbl) if s + (i,) not in tbl))
    tbl.close()
    assert tbl.S == [(), (0,)] and tbl.hypothesis().n_states == 2
    return m, tbl, cache


def test_analyze_cex_rejects_a_difference_at_the_initial_output():
    m, tbl, cache = toggle_table()
    h = DetMoore(m.input_alphabet, m.output_alphabet, 2, 0, m.transitions, (1, 0))
    with pytest.raises(SpuriousCounterexampleError, match="initial output"):
        analyze_cex(h, (0,), cache, tbl)


def test_analyze_cex_rejects_a_counterexample_without_a_split():
    # A hypothesis whose second state's output disagrees with its own table
    # row: the word differs after one symbol, but the probes at both ends
    # ask the same word, so no split position can tell them apart.
    m, tbl, cache = toggle_table()
    h = DetMoore(m.input_alphabet, m.output_alphabet, 2, 0, m.transitions, (0, 0))
    with pytest.raises(SpuriousCounterexampleError, match="no valid split position"):
        analyze_cex(h, (0,), cache, tbl)
    assert tbl.E == [()]


def test_analyze_cex_progress_property():
    rng = random.Random(13)
    for _ in range(30):
        m = random_machine(rng, n_max=5, partial=False)
        oracle = CountingOracle(m)
        res = lstar(m.input_alphabet, m.output_alphabet, oracle.oq, oracle.oq_lasts, oracle.eq)
        assert equivalent(res.machine, m) is True


# -- the full loop ----------------------------------------------------------------


def test_lstar_constant_machine_one_eq():
    ia, oa = Alphabet(["i", "j"]), Alphabet(["k"])
    m = DetMoore(ia, oa, 1, 0, ({0: 0, 1: 0},), (0,))
    oracle = CountingOracle(m)
    res = lstar(ia, oa, oracle.oq, oracle.oq_lasts, oracle.eq)
    assert res.machine.n_states == 1
    assert oracle.eq_calls == 1


def test_lstar_learns_random_machines_exactly():
    rng = random.Random(2)
    for _ in range(25):
        m = random_machine(rng, n_max=8, partial=False)
        oracle = CountingOracle(m)
        res = lstar(m.input_alphabet, m.output_alphabet, oracle.oq, oracle.oq_lasts, oracle.eq)
        assert equivalent(res.machine, m) is True
        assert res.machine.is_complete
        # never more states than the target (which may not be minimal)
        assert res.machine.n_states <= m.n_states


def test_lstar_query_budget_sanity():
    rng = random.Random(8)
    for _ in range(15):
        m = random_machine(rng, n_max=8, partial=False)
        oracle = CountingOracle(m)
        res = lstar(m.input_alphabet, m.output_alphabet, oracle.oq, oracle.oq_lasts, oracle.eq)
        n = res.machine.n_states
        ell = len(m.input_alphabet)
        import math

        mlen = max(2, res.max_cex_length)
        assert oracle.oq_calls <= 10 * (ell * n * n + n * math.log2(mlen))
        assert oracle.eq_calls <= 10 * max(1, n)


def test_lstar_memoization_avoids_duplicate_words():
    m = binary_counter(2).machines["c1"]
    oracle = CountingOracle(m)
    lstar(m.input_alphabet, m.output_alphabet, oracle.oq, oracle.oq_lasts, oracle.eq)
    assert oracle.oq_calls == len(oracle.words)


def test_cache_batch_asks_each_unseen_word_once():
    m = binary_counter(2).machines["c1"]
    oracle = CountingOracle(m)
    cache = OqCache(oracle.oq, oracle.oq_lasts)
    a, b, c = (0,), (1, 0), (1, 1, 0)
    expect = {u: m.semantics(u)[-1] for u in ((), a, b, c)}
    assert cache.lasts([a, b, a, (), b]) == [expect[u] for u in (a, b, a, (), b)]
    assert oracle.batches == [3] and oracle.oq_calls == 3  # a, b and () once each
    assert cache.lasts([c, a, c]) == [expect[c], expect[a], expect[c]]
    assert oracle.batches == [3, 1] and oracle.oq_calls == 4
    assert cache.lasts([b, c]) == [expect[b], expect[c]]
    assert cache.last(a) == expect[a]
    assert oracle.batches == [3, 1]  # all seen: the oracle is not asked
    assert cache.last((0, 0)) == m.semantics((0, 0))[-1]
    assert oracle.batches == [3, 1, 1]


def test_lstar_completion_asks_its_oracle_once(monkeypatch):
    """Each round that completes the table adds all its missing
    extensions with one ``add_extension`` call, which asks the oracle at
    most one batch (none if the cache holds every cell)."""
    events, sizes = [], []

    def logged(name):
        method = getattr(ObservationTable, name)

        def wrapper(self, *args):
            events.append(name)
            if name == "add_extension":
                sizes.append(len(args))
            return method(self, *args)

        return wrapper

    for name in ("close", "add_extension", "add_suffix"):
        monkeypatch.setattr(ObservationTable, name, logged(name))
    rng = random.Random(5)
    for _ in range(10):
        m = random_machine(rng, n_max=8, partial=False)
        oracle = CountingOracle(m)

        def oq_lasts(words):
            events.append("oq_lasts")
            return oracle.oq_lasts(words)

        events.clear()
        res = lstar(m.input_alphabet, m.output_alphabet, oracle.oq, oq_lasts, oracle.eq)
        assert equivalent(res.machine, m) is True
        completions = [
            r.split() for r in " ".join(events).split("close") if "add_extension" in r
        ]
        assert ["add_extension", "oq_lasts"] in completions
        assert all(r in (["add_extension", "oq_lasts"], ["add_extension"])
                   for r in completions)
    assert max(sizes) > 1  # a completion adds more than one row at once


def test_lstar_no_memoization_still_correct():
    # memoization only affects query counts, never the learned machine
    for memoize in (True, False):
        m = binary_counter(2).machines["c2"]
        oracle = CountingOracle(m)
        res = lstar(
            m.input_alphabet, m.output_alphabet, oracle.oq, oracle.oq_lasts, oracle.eq,
            memoize=memoize,
        )
        assert equivalent(res.machine, m) is True


def test_lstar_with_random_testing_eq_binary_counter():
    sul = Sul(binary_counter(5), EqTestConfig(seed=0))
    res = lstar(sul.system_inputs, sul.system_outputs, sul.oq, sul.oq_lasts, sul.eq)
    assert res.machine.n_states == 70
    assert res.machine.n_transitions() == 140
    assert sul.validate_exact(res.machine) is True


def test_lstar_distinct_rows_monotone():
    m = binary_counter(2).machines["c2"]
    oracle = CountingOracle(m)
    cache = OqCache(oracle.oq, oracle.oq_lasts)
    tbl = ObservationTable(m.input_alphabet, m.output_alphabet, cache.lasts)
    history = [n_distinct_rows(tbl)]
    for _ in range(40):
        tbl.close()
        missing = [(s, i) for (s, i) in one_ext_lstar(tbl) if s + (i,) not in tbl]
        if missing:
            for s, i in missing:
                tbl.add_extension(s + (i,))
            history.append(n_distinct_rows(tbl))
            continue
        h = tbl.hypothesis()
        cex = equivalent(h, m)
        if cex is True:
            break
        analyze_cex(h, cex.word, cache, tbl)
        history.append(n_distinct_rows(tbl))
    assert history == sorted(history)
    assert equivalent(tbl.hypothesis(), m) is True


def test_hypothesis_agrees_with_table():
    sul = Sul(binary_counter(3), EqTestConfig(seed=1))
    res = lstar(sul.system_inputs, sul.system_outputs, sul.oq, sul.oq_lasts, sul.eq)
    tbl = res.table
    h = res.machine
    assert h.is_complete
    for u in tbl.S + tbl.R:
        for e, cell in zip(tbl.E, tbl.row(u), strict=True):
            assert h.semantics(u + e)[-1] == cell


def test_rows_match_oracle_after_every_operation():
    rng = random.Random(8)
    for _ in range(30):
        m = random_machine(rng)
        inputs = list(m.input_alphabet)
        tbl = ObservationTable(
            m.input_alphabet, m.output_alphabet,
            lambda words: [m.semantics(w)[-1] for w in words],
        )
        probes = [()] + [(i,) for i in inputs] + [
            (i, j, k) for i in inputs for j in inputs for k in inputs
        ]
        for _ in range(25):
            op = rng.choice(("extension", "suffix", "close"))
            if op == "extension":
                word = rng.choice(tbl.S + tbl.R) + (rng.choice(inputs),)
                if word not in tbl:
                    tbl.add_extension(word)
            elif op == "suffix":
                suffix = tuple(rng.choice(inputs) for _ in range(rng.randint(1, 3)))
                if suffix not in tbl.E:
                    tbl.add_suffix(suffix)
            else:
                tbl.close()
                assert is_closed(tbl)
            members = set(tbl.S + tbl.R)
            assert len(members) == len(tbl.S) + len(tbl.R)
            for u in members:
                assert u in tbl
                assert tbl.row(u) == tuple(m.semantics(u + e)[-1] for e in tbl.E)
            for u in probes + [u + (i,) for u in members for i in inputs]:
                assert (u in tbl) == (u in members)


def lying_table(machine, lies):
    """A table of ``machine`` whose oracle answers ``lies[word]`` for the
    words in ``lies`` and checks no word."""
    def oq_lasts(words):
        return [lies[w] if w in lies else machine.lasts([w])[0][0] for w in words]

    return ObservationTable(machine.input_alphabet, machine.output_alphabet, oq_lasts)


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("lie_on, steps", [
    ((), []),
    ((1,), [("add_extension", (1,))]),
    ((1, 0), [("add_extension", (1,)), ("add_suffix", (0,))]),  # an R row's cell
    ((0, 2), [("add_extension", (0,), (1,)), ("close",), ("add_suffix", (2,))]),  # an S row's
])
def test_table_rejects_foreign_outputs_by_the_hypothesis(bad, lie_on, steps):
    # Tables check cells where they enter, so their hypotheses skip
    # DetMoore's whole-machine check; a foreign output still raises
    # MooreError by the time hypothesis() returns.
    m = mmn_ex().machines["c1"]
    assert len(m.output_alphabet) == 4
    with pytest.raises(MooreError, match="not in alphabet"):
        tbl = lying_table(m, {lie_on: bad})
        for op, *words in steps:
            getattr(tbl, op)(*words)
        tbl.close()
        tbl.hypothesis()


@pytest.mark.parametrize("foreign", [-1, 4, 99])
def test_table_rejects_extensions_with_a_foreign_symbol(foreign):
    # A foreign last symbol would be a hypothesis move on no input; without
    # an oracle that checks words, the table raises before storing it.
    m = mmn_ex().machines["c1"]
    assert len(m.input_alphabet) == 4
    tbl = lying_table(m, {(foreign,): 0})
    with pytest.raises(MooreError, match="not in alphabet"):
        tbl.add_extension((0,), (foreign,))
        tbl.close()
        tbl.hypothesis()
    assert (0,) not in tbl and (foreign,) not in tbl


def test_table_dump_readable():
    m = mmn_ex().machines["c1"]
    tbl, _, _ = table_for(m)
    tbl.add_extension((0,))
    dump = tbl.dump()
    assert "prefix" in dump and "S ε" in dump

import random
import re

import pytest

from mmnlearn.benchmarks import (
    BenchmarkError,
    binary_counter,
    counter_with_init,
    from_spec,
    mmn_ex,
    mqtt_lighting,
    rand_mmn,
    shipped_specs,
)
from mmnlearn.network import InducedMoore
from tests.test_network import (
    reference_system_output,
    reference_system_transition,
    simulate,
)


def reachable(machine):
    """States of a deterministic machine reachable from its initial state."""
    seen = {machine.initial}
    frontier = [machine.initial]
    while frontier:
        for t in machine.transitions[frontier.pop()].values():
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def test_mmn_ex_structure():
    m = mmn_ex()
    assert m.diagnostics() == []
    assert m.machines["c1"].n_states == 2
    assert m.machines["c2"].n_states == 4
    assert m.system_inputs.names() == ["(a,c)", "(a,d)", "(b,c)", "(b,d)"]


def test_counter_with_init_redundancy():
    m = counter_with_init()
    assert m.diagnostics() == []
    # in isolation the error half is reachable
    assert len(reachable(m.machines["c2"])) == 7
    # composed, no reachable configuration has c2 in an error state
    seen_c2 = set()
    frontier = [m.initial_configuration()]
    seen = {m.initial_configuration()}
    while frontier:
        cfg = frontier.pop()
        seen_c2.add(cfg[1])
        for i in m.system_inputs:
            nxt = reference_system_transition(m, cfg, i)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen_c2 == {0, 1, 2}


def test_binary_counter_structure():
    for k in (1, 2, 5):
        m = binary_counter(k)
        assert m.diagnostics() == []
        assert len(m.components) == k
        assert all(mc.n_states == 3 for mc in m.machines.values())
        assert all(mc.is_complete for mc in m.machines.values())
    assert sum(m.n_states for m in binary_counter(5).machines.values()) == 15
    with pytest.raises(BenchmarkError):
        binary_counter(0)


def count_word(k, rng, max_ones):
    """Random input word with >= k zeros between 1s, and its expected count."""
    ones = rng.randint(0, max_ones)
    word = []
    for _ in range(ones):
        word.append(1)
        word.extend([0] * k)
    word.extend([0] * k)
    return word, ones


def test_binary_counter_counts_spaced_ones():
    rng = random.Random(0)
    for k in range(1, 7):
        m = binary_counter(k)
        ind = InducedMoore(m)
        one = m.system_inputs.symbol("(1)")
        zero = m.system_inputs.symbol("(0)")
        for _ in range(8):
            bits, ones = count_word(k, rng, min(2**k - 1, 9))
            word = tuple(one if b else zero for b in bits)
            if len(word) > 60:
                continue
            out = ind.semantics(word)
            final = m.system_outputs.digits(out[-1])
            value = sum(b << j for j, b in enumerate(final))
            assert value == ones, (k, bits)


def test_mqtt_structure():
    m = mqtt_lighting()
    assert m.diagnostics() == []
    assert m.machines["s1"].n_states == 6
    assert m.machines["s2"].n_states == 7
    assert m.machines["l"].n_states == 4
    assert all(mc.is_complete for mc in m.machines.values())
    assert len(m.network.edge_alphabet[("s1", "b")]) == 10
    assert len(m.network.edge_alphabet[("b", "s1")]) == 5
    # initially dark and still: the light starts OFF
    out = reference_system_output(m, m.initial_configuration())
    assert m.system_outputs.name(out) == "(OFF)"


def test_mqtt_qos2_forward_only_after_pubrel():
    """The broker must not forward a motion publication before PubRel."""
    m = mqtt_lighting()
    rng = random.Random(12)
    rel = m.network.edge_alphabet[("s2", "b")].symbol("PubRel")
    light_alpha = m.network.edge_alphabet[("b", "l")]
    qos2_values = {light_alpha.symbol("motion"), light_alpha.symbol("no_motion")}
    checked = 0
    for _ in range(200):
        word = tuple(rng.randrange(len(m.system_inputs)) for _ in range(50))
        traces = simulate(m, word)
        to_light = traces[("b", "l")]
        from_s2 = traces[("s2", "b")]
        for t, ch in enumerate(to_light):
            if ch in qos2_values:
                checked += 1
                assert t >= 1 and from_s2[t - 1] == rel
    assert checked > 50


def test_rand_lean_structure_and_determinism():
    a = rand_mmn("star", 3, "lean", seed=11)
    b = rand_mmn("star", 3, "lean", seed=11)
    assert a.diagnostics() == []
    assert [a.machines[c].n_states for c in a.components] == [
        b.machines[c].n_states for c in b.components
    ]
    assert all(
        a.machines[c].transitions == b.machines[c].transitions for c in a.components
    )
    assert all(mc.is_complete for mc in a.machines.values())
    c = rand_mmn("star", 3, "lean", seed=12)
    assert any(
        a.machines[x].transitions != c.machines[x].transitions for x in a.components
    )


def test_rand_topologies():
    for topo, k, comps in (("path", 4, 4), ("star", 3, 4), ("compl", 3, 3)):
        m = rand_mmn(topo, k, "lean", seed=2, mean=3.0)
        assert m.diagnostics() == []
        assert len(m.components) == comps


def test_rand_rich_no_bullet_reachable():
    """No second-half character is ever emitted on any edge of the composite."""
    for seed in range(3):
        m = rand_mmn("path", 3, "rich", seed=seed, mean=4.0)
        assert m.diagnostics() == []
        rng = random.Random(seed)
        for _ in range(40):
            word = tuple(rng.randrange(len(m.system_inputs)) for _ in range(15))
            traces = simulate(m, word)
            for e, tr in traces.items():
                alpha = m.network.edge_alphabet[e]
                for ch in tr:
                    assert "_b" not in alpha.name(ch)


def test_rand_rich_states_follow_product():
    m = rand_mmn("path", 2, "rich", seed=3, mean=3.0)
    for c in m.components:
        assert m.machines[c].n_states % 2 == 0  # (A x B x flag) layout
        assert m.machines[c].is_complete


def test_from_spec_strings():
    assert from_spec("binctr:3").components == binary_counter(3).components
    assert from_spec("mmn_ex").machines["c1"].n_states == 2
    assert from_spec("counter_init").machines["c2"].n_states == 7
    assert len(from_spec("rand:path3:lean:seed=7").components) == 3
    assert len(from_spec("rand:path3:rich:seed=7:mean=5").components) == 3
    with pytest.raises(BenchmarkError):
        from_spec("nope")
    with pytest.raises(BenchmarkError):
        from_spec("rand:ring3:lean")


@pytest.mark.parametrize(
    "spec",
    ["binctr", "rand:star3", "rand:path0:lean", "rand:compl0:lean", "rand:star-1:lean",
     "binctr:5:zzz", "mqtt:1", "mmn_ex:9",  # an extra field
     "binctr:x", "rand:starx:lean", "rand:star3:lean:mean=x"],  # a field not a number
)
def test_from_spec_rejects_malformed_spec(spec):
    with pytest.raises(BenchmarkError, match=re.escape(repr(spec))):
        from_spec(spec)


def test_shipped_specs_filter():
    all_specs = shipped_specs()
    assert "mqtt" in all_specs
    small = shipped_specs(max_total_states=20)
    assert "binctr:5" in small and "binctr:10" not in small


def test_generated_suls_validate():
    rng = random.Random(0)
    for spec in ["mmn_ex", "counter_init", "binctr:4", "mqtt",
                 "rand:star2:lean:seed=4", "rand:compl2:rich:seed=4"]:
        assert from_spec(spec).diagnostics() == [], spec

import hashlib
import random
import re

import pytest

from mmnlearn import serialize
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


def rich_halves(alpha, sym):
    """The halves ("a" or "b") that the per-edge characters of ``sym`` lie in."""
    return {
        f.name(d).rsplit("_", 1)[1][0] for f, d in zip(alpha.factors, alpha.digits(sym))
    }


def test_rand_rich_states_follow_product():
    """A rich component is the (A x B x flag) product: all-first-half inputs
    step A into a flag-0 state, all-second-half inputs step B into a flag-1
    state, mixed inputs are self-loops, and each flag shows its own half."""
    seen = set()
    for topo in ("path", "star", "compl"):
        for seed in range(4):
            m = rand_mmn(topo, 2, "rich", seed=seed, mean=3.0)
            for c in m.components:
                mc = m.machines[c]
                assert mc.n_states % 2 == 0  # (A x B x flag) layout
                assert mc.is_complete
                for q in range(mc.n_states):
                    shown = rich_halves(mc.output_alphabet, mc.outputs[q])
                    assert shown == ({"a"} if q % 2 == 0 else {"b"}), (topo, seed, c, q)
                    for i, t in mc.transitions[q].items():
                        kind = rich_halves(mc.input_alphabet, i)
                        if kind == {"a"}:
                            assert t % 2 == 0, (topo, seed, c, q, i)
                        elif kind == {"b"}:
                            assert t % 2 == 1, (topo, seed, c, q, i)
                        else:
                            assert t == q, (topo, seed, c, q, i)
                        seen.add(frozenset(kind))
    assert len(seen) == 3  # every kind of input was exercised


# sha256 of ``serialize.mmn_to_text`` per random spec: the perfbench pools
# (mean 5, seeds 0-3), every topology at k=1, and k=2 at means 3 and 10.
# A change to how random components are built must leave these equal.
RAND_DIGESTS = {
    "rand:compl3:rich:mean=5:seed=0":
        "2c5fb5789ff65d16ff48e7d18cc29cf424cc08e345e01bdb2eba6709186f07c9",
    "rand:compl3:rich:mean=5:seed=1":
        "c6e664315eb9704caa7dd7e5476fa0d4423d1331981e2218442c268b9e62ac08",
    "rand:compl3:rich:mean=5:seed=2":
        "c05ca2809edcc8cc1efd95732f222f19886d96cd7ed5ed5a60956594da433fcc",
    "rand:compl3:rich:mean=5:seed=3":
        "efec2f301093ecf3f90a5429469164530d4b1647886005b9bfcbe1ed1b16fa2c",
    "rand:path3:rich:mean=5:seed=0":
        "d6da52fa1d6b893cfaf35f1b33525978cd6cf9d02e3194915c1364e44a195609",
    "rand:path3:rich:mean=5:seed=1":
        "db9e8a1b67fd64c24d167a05ad8eaa36e42aae04236028db75c3181e4db1c94e",
    "rand:path3:rich:mean=5:seed=2":
        "3f73f6d4012b16bdb0c98d2f5389694167726d7da94143cd89f4f9b39c4911c7",
    "rand:path3:rich:mean=5:seed=3":
        "6a36ba64651ccc49b81ed8cc030af8d228ba19910d4cf76d8486e9c011ef8ce5",
    "rand:star3:lean:mean=5:seed=0":
        "e785060d0fdb54f9a58dd62dea06dc7d99da12e4218525b3b3363b813cc67b87",
    "rand:star3:lean:mean=5:seed=1":
        "adb2e7cad88c99000c08ae1d987d7289ff240e5d3d889f91023168489e4b69a8",
    "rand:star3:lean:mean=5:seed=2":
        "7639d6bd7ab5224bd550396ab69a985c4389448291161bc070ec499e6ed2be83",
    "rand:star3:lean:mean=5:seed=3":
        "98061126b0cdf56d5e1a6d22cd753413493ce2f0ce66ee6274819ff16903ec53",
    "rand:compl4:lean:mean=5:seed=0":
        "a48e5b0f46272c3a01090f7fd591009428acd9e8ad4c84350add6de787a369fa",
    "rand:compl4:lean:mean=5:seed=1":
        "747898ddf5df8f847b08dbbc6990a8f1003c7f5474ef5ce8d9f8b1044573d5b7",
    "rand:compl4:lean:mean=5:seed=2":
        "a07cc7fe263146c1f7404a160f9ff64b2f27ec5bf688418d7501e10a1a1cf2dd",
    "rand:compl4:lean:mean=5:seed=3":
        "8b9e481dd634cbdbd96405ed485490a0c1acab045922577fff33268e2f99a8fe",
    "rand:path4:lean:mean=5:seed=0":
        "c26bf8eda1a59a9f93992c6a0ca7b5a5dc138a4985da6e52df803c043089f939",
    "rand:path4:lean:mean=5:seed=1":
        "a4bc99087a4d9e29af2cc7ed58ab2b6c6c6af84a69d38b0336cb4723a0611ef3",
    "rand:path4:lean:mean=5:seed=2":
        "edf4da0e33b8c99f570f3cc7b0750d2c2c74016796316a3542000d233681e3d7",
    "rand:path4:lean:mean=5:seed=3":
        "8f9f09187fb657cee6631baabd332d7130a2d57b1cafeaa245ff333fcf30a7cb",
    "rand:compl3:lean:mean=5:seed=0":
        "f4407993490065f897d2e08487f239f44a8edcf6648b4e24e9fddfee6f02aeea",
    "rand:compl3:lean:mean=5:seed=1":
        "64bf9ffc4e6241fb1dcb9b3e84cd75a8a28cd7d35ae607957f9018ac4ef3da25",
    "rand:compl3:lean:mean=5:seed=2":
        "9630a1255fceb80ecd9d21e31ab26c2ffc5334ae6b8d4c3410d2c272a0379aa0",
    "rand:compl3:lean:mean=5:seed=3":
        "8b8adc23a442250883af74fb5a9cb82ca039cd4b328db27ff870a837fb6cbbdc",
    "rand:path1:rich:seed=0":
        "3c566fa65e0973b1c3c6695b2af5f572639b44e84257127127c6d49d53231a99",
    "rand:path1:lean:seed=0":
        "5b06e483ee8320cdf51da343043b603347b232f0e795f337131d26ef89181243",
    "rand:star1:rich:seed=1":
        "3e326e1088ce609765c76ce03b7b7c53130d9422708919db4e87f80a0811a9e4",
    "rand:star1:lean:seed=1":
        "fb78c91281ba86b22a8d9222d48170adde51e94667d2a1839fc9e415264181e1",
    "rand:compl1:rich:seed=2":
        "769fd19f678542bafe69f9ee06777d2f2f230a5e3b3507475abecf3b25d62cc1",
    "rand:compl1:lean:seed=2":
        "0b10423dee6fb0adbae8345350c36bf384507e1d7c4fbf8a40b8322d119866b9",
    "rand:path2:rich:mean=3:seed=5":
        "4654f9fe8907ff3c8eceec8d6a2d511fcc8765beda908d5d92041cf61c27ff7e",
    "rand:star2:rich:mean=3:seed=8":
        "99f03f144e39e666461cf286f7ee5cf710f7945c75c5d4969bbc54c0110e1279",
    "rand:compl2:rich:mean=10:seed=1":
        "8e3a0bfe333268bf94749c5eaa87784aac18a0d3bb8f64446880065bfb523879",
    "rand:star2:rich:mean=10:seed=2":
        "a8b4f0f34e5839735a5936d9e612d1b8b25abf2633705c1ed32fb9d0d59dca57",
    "rand:compl2:lean:mean=3:seed=6":
        "8d72898b7bbfb172e91e1747bfb63a6ca00a47f418855dd70aa5e469ec7c44b7",
    "rand:path2:lean:mean=10:seed=9":
        "5cd6387a89766c460309289d9d5495c85134c0b3a6dc91c2cad51e43bd7f562e",
}


def test_rand_instances_match_recorded_digests():
    changed = [
        spec for spec, digest in RAND_DIGESTS.items()
        if hashlib.sha256(serialize.mmn_to_text(from_spec(spec)).encode()).hexdigest()
        != digest
    ]
    assert changed == []


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

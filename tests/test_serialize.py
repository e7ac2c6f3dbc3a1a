import pytest

from mmnlearn.benchmarks import binary_counter, counter_with_init, mmn_ex
from mmnlearn.machine import equivalent
from mmnlearn.network import InducedMoore, NetworkError
from mmnlearn.serialize import (
    FormatError,
    machine_from_text,
    machine_to_text,
    mmn_from_text,
    mmn_to_text,
    read_mmn,
    write_mmn,
)


def test_machine_text_roundtrip_bit_exact():
    m = mmn_ex().machines["c2"]
    text = machine_to_text(m)
    parsed = machine_from_text(text)
    assert machine_to_text(parsed) == text
    assert parsed.n_states == m.n_states
    assert parsed.outputs == m.outputs
    assert parsed.transitions == m.transitions


def test_machine_text_partial_transitions_survive():
    m = mmn_ex().machines["c2"]
    parsed = machine_from_text(machine_to_text(m))
    assert parsed.transitions[2] == {}


def test_machine_text_rejects_garbage():
    with pytest.raises(FormatError):
        machine_from_text("not a machine\n")


TWO_STATES = """moore
states 2 initial 0
input a b
output x y
state 0 x
state 1 y
trans 0 a 1
trans 1 a 0
%send
"""


def test_machine_text_two_state_base_parses():
    m = machine_from_text(TWO_STATES % "")
    assert m.outputs == (0, 1)
    assert m.transitions == ({0: 1}, {0: 0})


@pytest.mark.parametrize(
    "line",
    [
        "state 1",  # too short
        "trans 0 b",  # too short
        "trans -1 b 0",  # source below range
        "trans 5 b 0",  # source above range
        "trans 0 b 2",  # target above range
        "trans 0 b one",  # target not a number
        "state 1 x",  # second output line for state 1
        "trans 0 a 0",  # second move of state 0 on a
    ],
)
def test_machine_text_rejects_bad_state_and_trans_lines(line):
    with pytest.raises(FormatError):
        machine_from_text(TWO_STATES % (line + "\n"))


@pytest.mark.parametrize(
    "header",
    [
        "states two initial 0",  # count not a number
        "states 2 initial 5",  # initial state above range
        "states -1 initial 0",  # negative count
    ],
)
def test_machine_text_rejects_bad_states_line(header):
    with pytest.raises(FormatError):
        machine_from_text((TWO_STATES % "").replace("states 2 initial 0", header))


@pytest.mark.parametrize(
    "old, new",
    [
        (None, "mmn\n"),  # the whole text: header only
        ("node c1 component", "node c1"),  # node line without its class
        ("edge i1 c1 a b", "edge a"),  # edge line without target or alphabet
        ("machine c2", "machine o2"),  # machine block for an output node
    ],
)
def test_mmn_text_rejects_malformed_lines(old, new):
    text = mmn_to_text(mmn_ex())
    text = new if old is None else text.replace(old, new)
    with pytest.raises(FormatError):
        mmn_from_text(text)


def test_mmn_text_roundtrip_bit_exact():
    for mmn in (mmn_ex(), counter_with_init(), binary_counter(3)):
        text = mmn_to_text(mmn)
        parsed = mmn_from_text(text)
        assert mmn_to_text(parsed) == text
        assert equivalent(InducedMoore(parsed), InducedMoore(mmn)) is True


def test_mmn_file_roundtrip(tmp_path):
    path = str(tmp_path / "counter.mmn")
    write_mmn(binary_counter(2), path)
    parsed = read_mmn(path)
    assert equivalent(InducedMoore(parsed), InducedMoore(binary_counter(2))) is True


def test_mmn_text_deterministic_field_order():
    assert mmn_to_text(mmn_ex()) == mmn_to_text(mmn_ex())


def test_learned_partial_system_roundtrip():
    # contextually learned components are partial; the format must keep them
    from mmnlearn.componentwise import CaParams, ccwl
    from mmnlearn.oracles import EqTestConfig, Sul

    sul = Sul(binary_counter(3), EqTestConfig(seed=2))
    learned = ccwl(sul, CaParams())
    text = mmn_to_text(learned.mmn)
    parsed = mmn_from_text(text)
    assert mmn_to_text(parsed) == text
    assert any(not m.is_complete for m in parsed.machines.values())
    assert equivalent(InducedMoore(parsed), InducedMoore(binary_counter(3))) is True


def test_mmn_text_rejects_direct_input_to_output_edge():
    text = mmn_to_text(mmn_ex()).replace(
        "edge i1 c1 a b", "edge i1 c1 a b\nedge i1 o1 y"
    )
    with pytest.raises(NetworkError, match="joins a system input"):
        mmn_from_text(text)


def test_mmn_text_rejects_second_machine_block():
    text = mmn_to_text(mmn_ex())
    c1 = text[text.index("machine c1"):text.index("machine c2")]
    with pytest.raises(FormatError, match="second machine block"):
        mmn_from_text(text.replace("end-mmn", c1 + "end-mmn"))


def test_mmn_text_rejects_lines_after_end():
    text = mmn_to_text(mmn_ex())
    with pytest.raises(FormatError, match="after end-mmn"):
        mmn_from_text(text + "machine c1\n")

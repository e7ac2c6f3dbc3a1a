"""Line-oriented text formats for machines and MMNs.

Machine format::

    moore
    states <n> initial <q0>
    input <name> <name> ...
    output <name> <name> ...
    state <id> <output-name>
    trans <src> <input-name> <dst>
    end

States ascending, transitions sorted by (src, input symbol id), so the
round trip text -> machine -> text is bit exact.

MMN format: a ``network`` block (nodes, then edges with their alphabets in
declared order) followed by one ``machine`` block per component, in
component declaration order.  Component alphabets are re-derived from the
edge alphabets on load and symbol names are matched against them.
"""

from __future__ import annotations

from .alphabet import Alphabet
from .machine import DetMoore
from .network import Mmn, Network


class FormatError(ValueError):
    pass


def machine_to_text(m: DetMoore) -> str:
    ins, outs = m.input_alphabet.names(), m.output_alphabet.names()
    lines = ["moore"]
    lines.append("states %d initial %d" % (m.n_states, m.initial))
    lines.append("input " + " ".join(ins))
    lines.append("output " + " ".join(outs))
    for q in range(m.n_states):
        lines.append("state %d %s" % (q, outs[m.outputs[q]]))
    for q in range(m.n_states):
        row = m.transitions[q]
        for i in sorted(row):
            lines.append("trans %d %s %d" % (q, ins[i], row[i]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def machine_from_text(text: str, input_alphabet: Alphabet | None = None,
                      output_alphabet: Alphabet | None = None) -> DetMoore:
    """Parse a machine; alphabets may be supplied (e.g. edge products) and
    are then only name-checked against the declarations."""
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    it = iter(lines)
    if next(it, None) != "moore":
        raise FormatError("expected 'moore' header")
    head = next(it, "").split()
    if (len(head) != 4 or head[0] != "states" or head[2] != "initial"
            or not head[1].isdecimal() or int(head[1]) < 1):
        raise FormatError("bad states line")
    n_states = int(head[1])
    initial = _state_id(head[3], n_states)
    in_names = _alphabet_line(next(it, ""), "input")
    out_names = _alphabet_line(next(it, ""), "output")
    ia = input_alphabet if input_alphabet is not None else Alphabet(in_names)
    oa = output_alphabet if output_alphabet is not None else Alphabet(out_names)
    if ia.names() != in_names or oa.names() != out_names:
        raise FormatError("alphabet declarations do not match expected alphabets")
    outputs: dict[int, int] = {}
    transitions: list[dict[int, int]] = [dict() for _ in range(n_states)]
    for ln in it:
        parts = ln.split()
        if parts[0] == "state":
            if len(parts) != 3:
                raise FormatError("bad state line %r" % ln)
            q = _state_id(parts[1], n_states)
            if q in outputs:
                raise FormatError("duplicate state line for state %d" % q)
            outputs[q] = oa.symbol(parts[2])
        elif parts[0] == "trans":
            if len(parts) != 4:
                raise FormatError("bad trans line %r" % ln)
            src = _state_id(parts[1], n_states)
            dst = _state_id(parts[3], n_states)
            i = ia.symbol(parts[2])
            if i in transitions[src]:
                raise FormatError("duplicate trans line %r" % ln)
            transitions[src][i] = dst
        elif parts[0] == "end":
            break
        else:
            raise FormatError("unexpected line %r" % ln)
    if sorted(outputs) != list(range(n_states)):
        raise FormatError("missing state output lines")
    return DetMoore(
        ia, oa, n_states, initial,
        tuple(transitions), tuple(outputs[q] for q in range(n_states)),
    )


def _state_id(token: str, n_states: int) -> int:
    try:
        q = int(token)
    except ValueError:
        q = -1
    if not 0 <= q < n_states:
        raise FormatError("state id %r outside 0..%d" % (token, n_states - 1))
    return q


def _alphabet_line(line: str, kind: str) -> list[str]:
    parts = line.split()
    if not parts or parts[0] != kind or len(parts) < 2:
        raise FormatError("bad %s alphabet line" % kind)
    return parts[1:]


def mmn_to_text(mmn: Mmn) -> str:
    net = mmn.network
    lines = ["mmn", "network"]
    for name, cls in net.node_class.items():
        lines.append("node %s %s" % (name, cls))
    for e in net.edges:
        names = " ".join(net.edge_alphabet[e].names())
        lines.append("edge %s %s %s" % (e[0], e[1], names))
    for c in mmn.components:
        lines.append("machine %s" % c)
        lines.append(machine_to_text(mmn.machines[c]).rstrip("\n"))
    lines.append("end-mmn")
    return "\n".join(lines) + "\n"


def mmn_from_text(text: str) -> Mmn:
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if lines[:2] != ["mmn", "network"]:
        raise FormatError("expected 'mmn'/'network' header")
    nodes: list[tuple[str, str]] = []
    edges: list[tuple[str, str, Alphabet]] = []
    k = 2
    while k < len(lines):
        parts = lines[k].split()
        if parts[0] == "node" and len(parts) == 3:
            nodes.append((parts[1], parts[2]))
        elif parts[0] == "edge" and len(parts) >= 4:
            edges.append((parts[1], parts[2], Alphabet(parts[3:])))
        elif parts[0] in ("node", "edge"):
            raise FormatError("bad %s line %r" % (parts[0], lines[k]))
        else:
            break
        k += 1
    network = Network(nodes, edges)
    machines: dict[str, DetMoore] = {}
    while k < len(lines) and lines[k].startswith("machine "):
        comp = lines[k].split()[1]
        if comp not in network.components:
            raise FormatError("machine block for %r, which is not a component" % comp)
        if comp in machines:
            raise FormatError("second machine block for %r" % comp)
        k += 1
        body = []
        while k < len(lines) and lines[k] != "end":
            body.append(lines[k])
            k += 1
        if k == len(lines):
            raise FormatError("unterminated machine block for %r" % comp)
        body.append("end")
        k += 1
        machines[comp] = machine_from_text(
            "\n".join(body),
            network.component_input_alphabet(comp),
            network.component_output_alphabet(comp),
        )
    if k >= len(lines) or lines[k] != "end-mmn":
        raise FormatError("missing end-mmn")
    if k + 1 < len(lines):
        raise FormatError("line %r after end-mmn" % lines[k + 1])
    return Mmn(network, machines)


def write_mmn(mmn: Mmn, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(mmn_to_text(mmn))


def read_mmn(path: str) -> Mmn:
    with open(path) as fh:
        return mmn_from_text(fh.read())

"""Benchmark SUL constructors.

Every constructor returns a validated deterministic MMN whose components
are complete over their declared input alphabets.  Benchmarks are
addressable by canonical spec strings, e.g. ``binctr:5``, ``mqtt``,
``mmn_ex``, ``counter_init``, ``rand:star3:lean:seed=7`` (random specs
accept an optional ``mean=<n>`` for the component-size distribution).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

from .alphabet import Alphabet
from .machine import DetMoore
from .network import Mmn, Network, NODE_COMPONENT, NODE_INPUT, NODE_OUTPUT


class BenchmarkError(ValueError):
    pass


def _machine(net: Network, comp, outputs, transitions, initial=0) -> DetMoore:
    ia = net.component_input_alphabet(comp)
    oa = net.component_output_alphabet(comp)
    return DetMoore(
        ia, oa, len(outputs), initial,
        tuple(transitions), tuple(outputs),
    )


# -- the two worked examples -------------------------------------------------


def mmn_ex() -> Mmn:
    """The two-component example system: c1 feeds c2 and vice versa.

    c1 latches on seeing (a,3); c2 walks a small partial machine whose
    (z,4) state has no outgoing transitions at all.
    """
    nodes = [
        ("i1", NODE_INPUT), ("i2", NODE_INPUT),
        ("c1", NODE_COMPONENT), ("c2", NODE_COMPONENT),
        ("o1", NODE_OUTPUT), ("o2", NODE_OUTPUT),
    ]
    edges = [
        ("i1", "c1", Alphabet(["a", "b"])),
        ("i2", "c2", Alphabet(["c", "d"])),
        ("c1", "o1", Alphabet(["x", "y"])),
        ("c2", "o2", Alphabet(["z", "w"])),
        ("c1", "c2", Alphabet(["1", "2"])),
        ("c2", "c1", Alphabet(["3", "4"])),
    ]
    net = Network(nodes, edges)

    ia1 = net.component_input_alphabet("c1")  # (i1 char, c2->c1 char)
    oa1 = net.component_output_alphabet("c1")  # (o1 char, c1->c2 char)
    a3 = ia1.symbol("(a,3)")
    m1_trans = [
        {i: (1 if i == a3 else 0) for i in ia1},
        {i: 1 for i in ia1},
    ]
    m1 = _machine(net, "c1", [oa1.symbol("(x,1)"), oa1.symbol("(y,2)")], m1_trans)

    ia2 = net.component_input_alphabet("c2")  # (i2 char, c1->c2 char)
    oa2 = net.component_output_alphabet("c2")  # (o2 char, c2->c1 char)
    c2sym = ia2.symbol("(c,2)")
    ones = [i for i in ia2 if ia2.digit(i, 1) == 0]  # (_, 1)
    twos = [i for i in ia2 if ia2.digit(i, 1) == 1]  # (_, 2)
    m2_trans = [
        {i: (1 if i == c2sym else 0) for i in ia2},
        {**{i: 2 for i in ones}, **{i: 3 for i in twos}},
        {},  # the (z,4) state has no outgoing transitions
        {i: 3 for i in ia2},
    ]
    m2_outs = [oa2.symbol(n) for n in ["(z,3)", "(w,3)", "(z,4)", "(w,4)"]]
    m2 = _machine(net, "c2", m2_outs, m2_trans)
    return Mmn(net, {"c1": m1, "c2": m2})


def counter_with_init() -> Mmn:
    """A latch gating a small counter, with a dead 'error' half.

    c1 latches ON at the first press and never releases.  c2 advances on
    (step, on); any off character received after the counter has left its
    initial state jumps into a four-state error cycle.  Composed, the error
    half is unreachable: by the time c2 can leave its initial state, c1 is
    already latched.
    """
    nodes = [
        ("i1", NODE_INPUT), ("i2", NODE_INPUT),
        ("c1", NODE_COMPONENT), ("c2", NODE_COMPONENT),
        ("o", NODE_OUTPUT),
    ]
    edges = [
        ("i1", "c1", Alphabet(["press", "idle"])),
        ("i2", "c2", Alphabet(["step", "hold"])),
        ("c1", "c2", Alphabet(["off", "on"])),
        ("c2", "o", Alphabet(["n0", "n1", "n2", "e0", "e1", "e2", "e3"])),
    ]
    net = Network(nodes, edges)

    ia1 = net.component_input_alphabet("c1")
    oa1 = net.component_output_alphabet("c1")
    press = ia1.symbol("(press)")
    m1 = _machine(
        net, "c1",
        [oa1.symbol("(off)"), oa1.symbol("(on)")],
        [{i: (1 if i == press else 0) for i in ia1}, {i: 1 for i in ia1}],
    )

    ia2 = net.component_input_alphabet("c2")
    oa2 = net.component_output_alphabet("c2")
    step_on = ia2.symbol("(step,on)")
    hold_on = ia2.symbol("(hold,on)")
    offs = [i for i in ia2 if ia2.digit(i, 1) == 0]
    outs = [oa2.symbol("(%s)" % n) for n in ["n0", "n1", "n2", "e0", "e1", "e2", "e3"]]
    trans = [dict() for _ in range(7)]
    for v, (fwd,) in zip(range(3), [(1,), (2,), (0,)]):
        trans[v][step_on] = fwd
        trans[v][hold_on] = v
        for i in offs:
            trans[v][i] = 0 if v == 0 else 3
    for e in range(3, 7):
        nxt = 3 + (e - 3 + 1) % 4
        for i in ia2:
            trans[e][i] = nxt
    m2 = _machine(net, "c2", outs, trans)
    return Mmn(net, {"c1": m1, "c2": m2})


# -- the k-bit counter ---------------------------------------------------------


def binary_counter(k: int) -> Mmn:
    """Chain of k three-state components counting 1s in binary (LSB first).

    Each component holds its bit and a carry flag; the carry travels one
    component per tick, so counting is exact only when 1s arrive at least
    k apart.  The last component drops the carry coordinate.
    """
    if k < 1:
        raise BenchmarkError("binary_counter needs k >= 1")
    bit = ["0", "1"]
    nodes = [("in", NODE_INPUT)] + [
        ("c%d" % (j + 1), NODE_COMPONENT) for j in range(k)
    ] + [("out", NODE_OUTPUT)]
    edges = [("in", "c1", Alphabet(bit))]
    for j in range(1, k):
        edges.append(("c%d" % j, "c%d" % (j + 1), Alphabet(bit)))
    for j in range(1, k + 1):
        edges.append(("c%d" % j, "out", Alphabet(bit)))
    net = Network(nodes, edges)

    machines = {}
    for j in range(1, k + 1):
        comp = "c%d" % j
        ia = net.component_input_alphabet(comp)
        oa = net.component_output_alphabet(comp)
        zero, one = ia.symbol("(0)"), ia.symbol("(1)")
        # states: (carry 0, bit 0), (carry 0, bit 1), (carry 1, bit 0)
        trans = [
            {zero: 0, one: 1},
            {zero: 1, one: 2},
            {zero: 0, one: 0},
        ]
        if j < k:
            outs = [oa.symbol("(0,0)"), oa.symbol("(0,1)"), oa.symbol("(1,0)")]
        else:
            outs = [oa.symbol("(0)"), oa.symbol("(1)"), oa.symbol("(0)")]
        machines[comp] = _machine(net, comp, outs, trans)
    return Mmn(net, machines)


# -- the lighting system -------------------------------------------------------

BRIGHTNESS_MSGS = [
    "Connect", "PubQoS0(bright)", "PubQoS0(dark)", "PubQoS1(bright)",
    "PubQoS1(dark)", "PubQoS2(bright)", "PubQoS2(dark)", "PubRel",
    "Disconnect", "none",
]
MOTION_MSGS = [
    "Connect", "PubQoS0(motion)", "PubQoS0(no_motion)", "PubQoS1(motion)",
    "PubQoS1(no_motion)", "PubQoS2(motion)", "PubQoS2(no_motion)", "PubRel",
    "Disconnect", "none",
]
BROKER_ACKS = ["ConnAck", "PubAck", "PubRec", "PubComp", "none"]
LIGHT_MSGS = ["bright", "dark", "motion", "no_motion", "none"]


def _sensor_machine(net, comp, readings, publish_fmt, qos2):
    """Publisher session machine: idle -> connect -> publish [-> pubrel] ->
    disconnect -> idle, latching the reading observed at connect time."""
    ia = net.component_input_alphabet(comp)
    oa = net.component_output_alphabet(comp)
    out_names = ["none"]  # state 0: idle
    for r in readings:
        out_names.append("Connect")
        out_names.append(publish_fmt % r)
    if qos2:
        out_names.append("PubRel")
    out_names.append("Disconnect")
    name_of = {n: q for q, n in enumerate(out_names)}
    rel = name_of.get("PubRel")
    disc = name_of["Disconnect"]
    n = len(out_names)
    trans = [dict() for _ in range(n)]
    for i in ia:
        reading = ia.digit(i, 0)  # position 0: the system reading edge
        ack = BROKER_ACKS[ia.digit(i, 1)]
        trans[0][i] = 1 + 2 * reading  # Connect state for that reading
        for ridx in range(len(readings)):
            con, pub = 1 + 2 * ridx, 2 + 2 * ridx
            trans[con][i] = pub if ack == "ConnAck" else con
            if qos2:
                trans[pub][i] = rel if ack == "PubRec" else pub
            else:
                trans[pub][i] = disc if ack == "PubAck" else pub
        if qos2:
            trans[rel][i] = disc if ack == "PubComp" else rel
        trans[disc][i] = 0
    outs = [oa.symbol("(%s)" % n_) for n_ in out_names]
    return _machine(net, comp, outs, trans)


def _broker_machine(net):
    """Broker built from the protocol rules and trimmed to reachable states.

    Serves QoS 1 and QoS 2 flows for two statically known publishers, owns
    at most one connection at a time, forwards QoS 2 values only on PubRel,
    ignores protocol-violating messages (emitting no response that tick),
    and breaks simultaneous connection attempts toward the publisher that
    was not served most recently.
    """
    ia = net.component_input_alphabet("b")  # (msg from s1, msg from s2)
    oa = net.component_output_alphabet("b")  # (to s1, to s2, to light)
    msgs = [BRIGHTNESS_MSGS, MOTION_MSGS]
    values = [["bright", "dark"], ["motion", "no_motion"]]

    def step(state, m1, m2):
        conn, last = state[0], state[1]
        o = ["none", "none", "none"]
        msg = (m1, m2)
        if conn is None:
            want = [msg[p] == "Connect" for p in (0, 1)]
            if want[0] and want[1]:
                p = 0 if last == 1 else 1
            elif want[0]:
                p = 0
            elif want[1]:
                p = 1
            else:
                return (None, last, *o)
            o[p] = "ConnAck"
            return (("open", p), p, *o)
        phase, p = conn[0], conn[1]
        m = msg[p]
        if m == "Disconnect":
            return (None, last, *o)
        if phase == "open":
            if m.startswith("PubQoS1("):
                v = m[8:-1]
                o[p] = "PubAck"
                o[2] = v
                return (("open", p), last, *o)
            if m.startswith("PubQoS2("):
                v = m[8:-1]
                o[p] = "PubRec"
                return (("rel", p, v), last, *o)
            if m == "Connect":
                o[p] = "ConnAck"
                return (("open", p), last, *o)
            return (("open", p), last, *o)
        # phase == "rel": a QoS 2 value awaits its PubRel
        v = conn[2]
        if m == "PubRel":
            o[p] = "PubComp"
            o[2] = v
            return (("open", p), last, *o)
        if m.startswith("PubQoS2("):
            o[p] = "PubRec"
            return (("rel", p, m[8:-1]), last, *o)
        return (("rel", p, v), last, *o)

    initial = (None, 1, "none", "none", "none")
    states = [initial]
    ids = {initial: 0}
    trans = [dict()]
    frontier = [initial]
    while frontier:
        nxt_frontier = []
        for st in frontier:
            q = ids[st]
            for i in ia:
                m1 = BRIGHTNESS_MSGS[ia.digit(i, 0)]
                m2 = MOTION_MSGS[ia.digit(i, 1)]
                nxt = step(st, m1, m2)
                t = ids.get(nxt)
                if t is None:
                    t = len(states)
                    ids[nxt] = t
                    states.append(nxt)
                    trans.append(dict())
                    nxt_frontier.append(nxt)
                trans[q][i] = t
        frontier = nxt_frontier
    outs = [oa.symbol("(%s,%s,%s)" % st[2:5]) for st in states]
    return _machine(net, "b", outs, trans)


def mqtt_lighting() -> Mmn:
    """Two sensors publishing through a broker that drives a light.

    The brightness sensor publishes with QoS 1, the motion sensor with
    QoS 2; the broker supports both levels for either publisher, which is
    exactly the redundancy context analysis is meant to prune.
    """
    nodes = [
        ("in1", NODE_INPUT), ("in2", NODE_INPUT),
        ("s1", NODE_COMPONENT), ("s2", NODE_COMPONENT),
        ("b", NODE_COMPONENT), ("l", NODE_COMPONENT),
        ("out", NODE_OUTPUT),
    ]
    edges = [
        ("in1", "s1", Alphabet(["bright", "dark"])),
        ("in2", "s2", Alphabet(["motion", "no_motion"])),
        ("s1", "b", Alphabet(BRIGHTNESS_MSGS)),
        ("s2", "b", Alphabet(MOTION_MSGS)),
        ("b", "s1", Alphabet(BROKER_ACKS)),
        ("b", "s2", Alphabet(BROKER_ACKS)),
        ("b", "l", Alphabet(LIGHT_MSGS)),
        ("l", "out", Alphabet(["ON", "OFF"])),
    ]
    net = Network(nodes, edges)

    s1 = _sensor_machine(net, "s1", ["bright", "dark"], "PubQoS1(%s)", qos2=False)
    s2 = _sensor_machine(net, "s2", ["motion", "no_motion"], "PubQoS2(%s)", qos2=True)
    broker = _broker_machine(net)

    ial = net.component_input_alphabet("l")
    oal = net.component_output_alphabet("l")
    # light state: (dark?, motion?); ON only when dark and motion
    def lid(dark, motion):
        return dark * 2 + motion

    ltrans = [dict() for _ in range(4)]
    for dark in (0, 1):
        for motion in (0, 1):
            q = lid(dark, motion)
            for i in ial:
                m = LIGHT_MSGS[ial.digit(i, 0)]
                d, mo = dark, motion
                if m == "bright":
                    d = 0
                elif m == "dark":
                    d = 1
                elif m == "motion":
                    mo = 1
                elif m == "no_motion":
                    mo = 0
                ltrans[q][i] = lid(d, mo)
    louts = [
        oal.symbol("(ON)") if (dark and motion) else oal.symbol("(OFF)")
        for dark in (0, 1) for motion in (0, 1)
    ]
    # initially dark, no motion
    light = DetMoore(ial, oal, 4, lid(1, 0), tuple(ltrans), tuple(louts))

    return Mmn(net, {"s1": s1, "s2": s2, "b": broker, "l": light})


# -- random families -----------------------------------------------------------


def _rand_alphabet(rng, prefix, lo=2, hi=5) -> list[str]:
    return ["%s%d" % (prefix, j) for j in range(rng.randint(lo, hi))]


def _lean_machine(rng, ia_size, oa_size, mean) -> tuple[list[dict], list[int]]:
    n = max(2, math.floor(rng.gauss(mean, 1) + 0.5))  # round half up, clamp
    trans = [
        {i: rng.randrange(n) for i in range(ia_size)} for _ in range(n)
    ]
    outs = [rng.randrange(oa_size) for _ in range(n)]
    return trans, outs


def _topology(topology: str, k: int) -> tuple[list, list[tuple[str, str]]]:
    """Nodes and raw (srcname, dstname) edges; alphabets attached later."""
    least = 0 if topology == "star" else 1
    if k < least:
        raise BenchmarkError("%s needs k >= %d" % (topology, least))
    if topology == "path":
        comps = ["c%d" % (j + 1) for j in range(k)]
        nodes = [("in", NODE_INPUT)] + [(c, NODE_COMPONENT) for c in comps] + [("out", NODE_OUTPUT)]
        raw = [("in", comps[0])]
        raw += [(comps[j], comps[j + 1]) for j in range(k - 1)]
        raw.append((comps[-1], "out"))
        return nodes, raw
    if topology == "star":
        comps = ["hub"] + ["c%d" % (j + 1) for j in range(k)]
        nodes = [("in", NODE_INPUT)] + [(c, NODE_COMPONENT) for c in comps] + [("out", NODE_OUTPUT)]
        raw = [("in", "hub")]
        for leaf in comps[1:]:
            raw.append(("hub", leaf))
            raw.append((leaf, "hub"))
        raw.append(("hub", "out"))
        return nodes, raw
    if topology == "compl":
        comps = ["c%d" % (j + 1) for j in range(k)]
        nodes = [("in", NODE_INPUT)] + [(c, NODE_COMPONENT) for c in comps] + [("out", NODE_OUTPUT)]
        raw = [("in", comps[0])]
        for a in comps:
            for b in comps:
                if a != b:
                    raw.append((a, b))
        raw.append((comps[0], "out"))
        return nodes, raw
    raise BenchmarkError("unknown topology %r" % topology)


def rand_mmn(topology: str, k: int, comp_kind: str, seed: int, mean: float = 10.0) -> Mmn:
    """Random MMN: fixed topology, components drawn per ``comp_kind``.

    ``lean``: complete machines with N(mean,1) states, uniform transitions
    and outputs.  ``rich``: each component is the interleaving product of
    two lean machines over disjoint alphabet halves; only the first half is
    ever driven by the composed system, making the second half redundant.
    """
    rng = random.Random(seed)
    nodes, raw = _topology(topology, k)
    comp_names = [n for n, cls in nodes if cls == NODE_COMPONENT]
    sys_in_edges = {e for e in raw if e[0] == "in"}

    if comp_kind == "lean":
        edges = [
            (s, d, Alphabet(_rand_alphabet(rng, "%s_%s_" % (s, d)))) for s, d in raw
        ]
        net = Network(nodes, edges)
        machines = {}
        for c in comp_names:
            ia = net.component_input_alphabet(c)
            oa = net.component_output_alphabet(c)
            trans, outs = _lean_machine(rng, len(ia), len(oa), mean)
            machines[c] = _machine(net, c, outs, trans)
        return Mmn(net, machines)

    if comp_kind != "rich":
        raise BenchmarkError("unknown component kind %r" % comp_kind)

    # Disjoint alphabet halves per edge, kept as (first, second) sizes;
    # system input edges carry the first half only.
    halves: dict[tuple[str, str], tuple[int, int]] = {}
    edges = []
    for s, d in raw:
        first = ["%s_%s_a%d" % (s, d, j) for j in range(rng.randint(2, 5))]
        second = (
            []
            if (s, d) in sys_in_edges
            else ["%s_%s_b%d" % (s, d, j) for j in range(rng.randint(2, 5))]
        )
        halves[(s, d)] = (len(first), len(second))
        edges.append((s, d, Alphabet(first + second)))
    net = Network(nodes, edges)

    machines = {}
    for c in comp_names:
        ia = net.component_input_alphabet(c)
        oa = net.component_output_alphabet(c)
        in_halves = [halves[e] for e in net.in_edges[c]]
        out_halves = [halves[e] for e in net.out_edges[c]]
        # in_a[x] is the input A reads as its symbol x (every character in
        # its edge's first half), in_b[y] the one B reads as y (every
        # character in the second half); an input in neither mixes halves.
        # A component fed by the system has no all-second-half input, so B
        # gets one input symbol that nothing sends.
        in_a, in_b = _half_symbols(ia, in_halves, 0), _half_symbols(ia, in_halves, 1)
        out_a, out_b = _half_symbols(oa, out_halves, 0), _half_symbols(oa, out_halves, 1)
        ta, outs_a = _lean_machine(rng, len(in_a), len(out_a), mean)
        tb, outs_b = _lean_machine(rng, max(len(in_b), 1), len(out_b), mean)
        na, nb = len(ta), len(tb)

        # product state (qa, qb, flag) is numbered 2 * (qa * nb + qb) + flag;
        # an input of A moves to flag 0, one of B to flag 1, and the flagged
        # machine's output is shown.
        trans, outs = [], []
        for qa in range(na):
            for qb in range(nb):
                moves = {i: 2 * (ta[qa][x] * nb + qb) for x, i in enumerate(in_a)}
                for y, i in enumerate(in_b):
                    moves[i] = 2 * (qa * nb + tb[qb][y]) + 1
                for out in (out_a[outs_a[qa]], out_b[outs_b[qb]]):
                    row = dict.fromkeys(ia, len(trans))  # mixed inputs loop
                    row.update(moves)
                    trans.append(row)
                    outs.append(out)
        machines[c] = _machine(net, c, outs, trans)
    return Mmn(net, machines)


def _half_symbols(alpha: Alphabet, sizes: list[tuple[int, int]], half: int) -> list[int]:
    """The symbols of the product ``alpha`` whose every character lies in
    the given half (0 first, 1 second) of its edge, listed by their value in
    the mixed radix of those halves."""
    ranges = [range(first) if half == 0 else range(first, first + second)
              for first, second in sizes]
    return [alpha.encode(digits) for digits in itertools.product(*ranges)]


# -- spec strings ---------------------------------------------------------------


def from_spec(spec: str) -> Mmn:
    """Build a benchmark from its canonical spec string; a missing, extra or
    malformed field raises ``BenchmarkError`` naming the spec."""
    kind, *fields = spec.split(":")
    fixed = {"mmn_ex": mmn_ex, "counter_init": counter_with_init, "mqtt": mqtt_lighting}
    try:
        if kind in fixed and not fields:
            return fixed[kind]()
        if kind == "binctr" and len(fields) == 1:
            return binary_counter(int(fields[0]))
        if kind == "rand" and len(fields) >= 2:
            topo_tok, comp_kind, *options = fields
            for name in ("compl", "star", "path"):
                if topo_tok.startswith(name):
                    topology, k = name, int(topo_tok[len(name):])
                    break
            else:
                raise BenchmarkError("bad topology token %r" % topo_tok)
            seed, mean = 0, 10.0
            for tok in options:
                key, _, val = tok.partition("=")
                if key == "seed":
                    seed = int(val)
                elif key == "mean":
                    mean = float(val)
                else:
                    raise BenchmarkError("bad rand option %r" % tok)
            return rand_mmn(topology, k, comp_kind, seed, mean)
    except ValueError as exc:  # BenchmarkError, or a field int()/float() refused
        raise BenchmarkError("bad benchmark spec %r: %s" % (spec, exc)) from exc
    raise BenchmarkError("unknown benchmark spec %r, or wrong field count" % spec)


def shipped_specs(max_total_states: Optional[int] = None) -> list[str]:
    """The fixed, named benchmarks (random families excluded)."""
    specs = ["mmn_ex", "counter_init", "binctr:5", "binctr:10", "mqtt"]
    if max_total_states is None:
        return specs
    out = []
    for s in specs:
        mmn = from_spec(s)
        total = sum(m.n_states for m in mmn.machines.values())
        if total <= max_total_states:
            out.append(s)
    return out

"""Moore machine networks: graphs of components composed synchronously.

At every tick each component emits one character per outgoing edge (its
current state's output tuple), and consumes the tuple formed by the current
characters on its incoming edges.  Responses therefore propagate with a
one-tick delay, which is what makes the fully synchronous composition
well-defined.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .alphabet import Alphabet, AlphabetError, product_alphabet
from .machine import DetMoore, NondetMoore, StatePartition, quotient, Word

NodeId = str
Edge = tuple[NodeId, NodeId]

NODE_INPUT = "input"
NODE_OUTPUT = "output"
NODE_COMPONENT = "component"


class NetworkError(ValueError):
    pass


class Network:
    """Directed graph with classed nodes and per-edge alphabets.

    Node classes are forced by degree: no incoming edges means a system
    input node, no outgoing edges a system output node, anything else a
    component.  Edge order is fixed at construction; every tuple alphabet
    derived here (component inputs/outputs, system alphabets) enumerates
    its factors in that declared order.
    """

    def __init__(self, nodes: Sequence[tuple[NodeId, str]], edges: Sequence[tuple[NodeId, NodeId, Alphabet]]):
        self.node_class: dict[NodeId, str] = {}
        for name, cls in nodes:
            if name in self.node_class:
                raise NetworkError("duplicate node %r" % name)
            if cls not in (NODE_INPUT, NODE_OUTPUT, NODE_COMPONENT):
                raise NetworkError("bad node class %r" % cls)
            self.node_class[name] = cls
        self.edges: list[Edge] = []
        self.edge_alphabet: dict[Edge, Alphabet] = {}
        for src, dst, alpha in edges:
            e = (src, dst)
            if src not in self.node_class or dst not in self.node_class:
                raise NetworkError("edge %r uses unknown node" % (e,))
            if e in self.edge_alphabet:
                raise NetworkError("duplicate edge %r" % (e,))
            self.edges.append(e)
            self.edge_alphabet[e] = alpha
        self.components: list[NodeId] = [
            n for n, c in self.node_class.items() if c == NODE_COMPONENT
        ]
        self.in_edges: dict[NodeId, list[Edge]] = {n: [] for n in self.node_class}
        self.out_edges: dict[NodeId, list[Edge]] = {n: [] for n in self.node_class}
        for e in self.edges:
            self.out_edges[e[0]].append(e)
            self.in_edges[e[1]].append(e)
        self.system_in_edges = [e for e in self.edges if self.node_class[e[0]] == NODE_INPUT]
        self.system_out_edges = [e for e in self.edges if self.node_class[e[1]] == NODE_OUTPUT]

    def diagnostics(self) -> list[str]:
        problems = []
        classes = set(self.node_class.values())
        for cls in (NODE_INPUT, NODE_OUTPUT, NODE_COMPONENT):
            if cls not in classes:
                problems.append("%s nodes empty" % cls)
        for n, cls in self.node_class.items():
            if cls == NODE_INPUT and self.in_edges[n]:
                problems.append("input node %r has incoming edges" % n)
            if cls == NODE_OUTPUT and self.out_edges[n]:
                problems.append("output node %r has outgoing edges" % n)
            if cls == NODE_COMPONENT and (not self.in_edges[n] or not self.out_edges[n]):
                problems.append("component %r must have incoming and outgoing edges" % n)
        return problems

    def component_input_alphabet(self, c: NodeId) -> Alphabet:
        return product_alphabet((e, self.edge_alphabet[e]) for e in self.in_edges[c])

    def component_output_alphabet(self, c: NodeId) -> Alphabet:
        return product_alphabet((e, self.edge_alphabet[e]) for e in self.out_edges[c])


class Mmn:
    """A network plus one deterministic Moore machine per component node.

    Machines' alphabets must be in accordance with the edge alphabets.
    Nondeterministic quotients of the components exist only inside context
    analysis (``quotient_mmn`` and the quotient walk in ``componentwise``).
    """

    def __init__(self, network: Network, machines: dict[NodeId, DetMoore], check: bool = True):
        self.network = network
        self.machines = dict(machines)
        self.components = list(network.components)
        self._comp_index = {c: k for k, c in enumerate(self.components)}
        if check:
            problems = self.diagnostics()
            if problems:
                raise NetworkError("invalid MMN: " + "; ".join(problems))
        self._build_wiring()

    # -- validation --------------------------------------------------------

    def diagnostics(self) -> list[str]:
        problems = list(self.network.diagnostics())
        for c in self.components:
            m = self.machines.get(c)
            if m is None:
                problems.append("component %r has no machine" % c)
                continue
            if not isinstance(m, DetMoore):
                problems.append("component %r is not a deterministic Moore machine" % c)
            want_in = self.network.component_input_alphabet(c)
            want_out = self.network.component_output_alphabet(c)
            if len(m.input_alphabet) != len(want_in) or tuple(
                len(f) for f in (m.input_alphabet.factors or ())
            ) != tuple(len(f) for f in want_in.factors):
                problems.append("component %r input alphabet not the product of its in-edge alphabets" % c)
            if len(m.output_alphabet) != len(want_out) or tuple(
                len(f) for f in (m.output_alphabet.factors or ())
            ) != tuple(len(f) for f in want_out.factors):
                problems.append("component %r output alphabet not the product of its out-edge alphabets" % c)
        return problems

    # -- wiring ------------------------------------------------------------

    def _build_wiring(self):
        net = self.network
        self.system_inputs = product_alphabet(
            (e, net.edge_alphabet[e]) for e in net.system_in_edges
        )
        self.system_outputs = product_alphabet(
            (e, net.edge_alphabet[e]) for e in net.system_out_edges
        )
        self.total_outputs = product_alphabet(
            (c, self.machines[c].output_alphabet) for c in self.components
        )
        in_pos = {e: k for k, e in enumerate(net.system_in_edges)}
        # Per component, how its input symbol is assembled on every tick:
        # the part read from the system input (tabulated per system input
        # symbol), the feeds (src_index, src_stride, src_size,
        # target_stride) reading a digit of another component's output
        # symbol, and the transition table that consumes the sum.
        self._wiring: list[tuple[list[int], list[tuple], tuple]] = []
        for c in self.components:
            sys_part = [0] * len(self.system_inputs)
            feeds = []
            target = self.machines[c].input_alphabet
            # A structurally invalid component (diagnostics say so) gets no
            # wiring.
            if target._strides is not None and len(target._strides) == len(net.in_edges[c]):
                for pos, e in enumerate(net.in_edges[c]):
                    tstride = target._strides[pos]
                    if net.node_class[e[0]] == NODE_INPUT:
                        k = in_pos[e]
                        stride = self.system_inputs._strides[k]
                        size = len(self.system_inputs.factors[k])
                        sys_part = [p + (i // stride) % size * tstride
                                    for i, p in enumerate(sys_part)]
                    else:
                        src_alpha = self.machines[e[0]].output_alphabet
                        pos_src = src_alpha.key_pos(e)
                        feeds.append(
                            (self._comp_index[e[0]], src_alpha._strides[pos_src],
                             len(src_alpha.factors[pos_src]), tstride)
                        )
            self._wiring.append((sys_part, feeds, self.machines[c].transitions))
        self._outputs_by_comp = [self.machines[c].outputs for c in self.components]
        # System output restriction: which component/digit each out edge reads.
        self._out_reads: list[tuple[int, int]] = []
        for e in net.system_out_edges:
            src = e[0]
            src_alpha = self.machines[src].output_alphabet
            self._out_reads.append((self._comp_index[src], src_alpha.key_pos(e)))

    def initial_configuration(self) -> tuple[int, ...]:
        return tuple(self.machines[c].initial for c in self.components)

    def total_output(self, config: Sequence[int]) -> tuple[int, ...]:
        """Per-component output symbols at a configuration."""
        return tuple(outs[q] for outs, q in zip(self._outputs_by_comp, config))

    def component_input(self, c: NodeId, sys_in: int, outs: Sequence[int]) -> int:
        """The character component ``c`` consumes given the system input and
        the current per-component output symbols."""
        sys_part, feeds, _ = self._wiring[self._comp_index[c]]
        sym = sys_part[sys_in]
        for src, stride, size, tstride in feeds:
            sym += ((outs[src] // stride) % size) * tstride
        return sym

    def system_output(self, config: Sequence[int]) -> int:
        outs = self.total_output(config)
        digits = []
        for comp_idx, pos in self._out_reads:
            src_alpha = self.machines[self.components[comp_idx]].output_alphabet
            digits.append(src_alpha.digit(outs[comp_idx], pos))
        return self.system_outputs.encode(digits)

    def system_transition(self, config: Sequence[int], sys_in: int) -> Optional[tuple[int, ...]]:
        """One synchronous tick (deterministic); None if any component falls off."""
        outs = self.total_output(config)
        nxt = []
        for q, (sys_part, feeds, transitions) in zip(config, self._wiring):
            sym = sys_part[sys_in]
            for src, stride, size, tstride in feeds:
                sym += ((outs[src] // stride) % size) * tstride
            t = transitions[q].get(sym)
            if t is None:
                return None
            nxt.append(t)
        return tuple(nxt)

    def trajectory(self, word: Sequence[int]) -> list[tuple[int, ...]]:
        """The configurations a run visits, the initial one first; stops at
        the first tick on which some component has no move, so a complete run
        has ``len(word) + 1`` entries.  Raises ``AlphabetError`` if any symbol
        of ``word`` is not a system input."""
        self.system_inputs.check_word(word)
        config = self.initial_configuration()
        configs = [config]
        for sys_in in word:
            config = self.system_transition(config, sys_in)
            if config is None:
                break
            configs.append(config)
        return configs

    # -- derived machines ----------------------------------------------------

    def materialize(self, budget: int = 10**6) -> DetMoore:
        """Eagerly explore the induced machine into a plain DetMoore.

        Refuses (raises) once more than ``budget`` configurations appear.
        """
        ind = InducedMoore(self)
        frontier = deque([0])
        trans: list[dict[int, int]] = [dict()]
        seen = 1
        while frontier:
            q = frontier.popleft()
            for i in self.system_inputs:
                t = ind.step(q, i)
                if t is None:
                    continue
                trans[q][i] = t
                if t >= seen:
                    seen = t + 1
                    trans.append(dict())
                    frontier.append(t)
                    if seen > budget:
                        raise NetworkError(
                            "induced machine exceeds configuration budget %d" % budget
                        )
        outputs = tuple(ind.output(q) for q in range(seen))
        return DetMoore(
            self.system_inputs, self.system_outputs, seen, 0, tuple(trans), outputs
        )

    def quotient_mmn(self, partitions: dict[NodeId, StatePartition]) -> dict[NodeId, NondetMoore]:
        """Each component's quotient under its partition.

        The quotients keep the component alphabets, so this MMN's wiring
        plan (``_wiring``) still describes how they are composed.
        """
        return {c: quotient(self.machines[c], partitions[c]) for c in self.components}

    def simulate(self, word: Sequence[int]) -> dict[Edge, list[int]]:
        """Tick-by-tick character traces on every non-system-input edge.

        Truncates at the first undefined component transition; traces keep
        the tick-0 characters, so a complete run yields length ``len(word)+1``.
        """
        net = self.network
        traces: dict[Edge, list[int]] = {
            e: [] for e in net.edges if net.node_class[e[0]] != NODE_INPUT
        }
        for config in self.trajectory(word):
            outs = self.total_output(config)
            for k, c in enumerate(self.components):
                alpha = self.machines[c].output_alphabet
                for pos, e in enumerate(net.out_edges[c]):
                    traces[e].append(alpha.digit(outs[k], pos))
        return traces


class InducedMoore:
    """The system-level Moore machine of an MMN, materialized lazily.

    Configurations are interned on first visit; transition results are
    memoized.  Every call may grow the memo tables, so an instance must not
    be shared across threads.  Exposes the surface of DetMoore that
    ``equivalent`` and the oracles use: ``initial``, ``step``, ``output``,
    ``semantics`` plus the two alphabets.
    """

    def __init__(self, mmn: Mmn):
        self.mmn = mmn
        self.input_alphabet = mmn.system_inputs
        self.output_alphabet = mmn.system_outputs
        self._configs: list[tuple[int, ...]] = [mmn.initial_configuration()]
        self._ids: dict[tuple[int, ...], int] = {self._configs[0]: 0}
        self._trans: list[dict[int, Optional[int]]] = [dict()]
        self._outs: list[int] = [mmn.system_output(self._configs[0])]

    initial = 0

    def configuration(self, q: int) -> tuple[int, ...]:
        return self._configs[q]

    def n_explored(self) -> int:
        return len(self._configs)

    def step(self, q: int, i: int) -> Optional[int]:
        row = self._trans[q]
        if i in row:
            return row[i]
        # Only system inputs are ever memoized, so a hit needs no check.
        if i not in self.input_alphabet:
            raise AlphabetError("input symbol %d not in system alphabet" % i)
        nxt = self.mmn.system_transition(self._configs[q], i)
        if nxt is None:
            row[i] = None
            return None
        t = self._ids.get(nxt)
        if t is None:
            t = len(self._configs)
            self._ids[nxt] = t
            self._configs.append(nxt)
            self._trans.append(dict())
            self._outs.append(self.mmn.system_output(nxt))
        row[i] = t
        return t

    def output(self, q: int) -> int:
        return self._outs[q]

    def semantics(self, word: Sequence[int], q: Optional[int] = None) -> Word:
        """Like ``DetMoore.semantics``: the whole word is checked first, so a
        foreign symbol raises ``AlphabetError`` even after a fall-off."""
        self.input_alphabet.check_word(word)
        if q is None:
            q = self.initial
        trans, outs = self._trans, self._outs
        out = [outs[q]]
        for i in word:
            nxt = trans[q].get(i, -1)  # -1: memo miss; None: fall-off
            if nxt == -1:
                nxt = self.step(q, i)
            if nxt is None:
                break
            q = nxt
            out.append(outs[q])
        return tuple(out)

"""Moore machine networks: graphs of components composed synchronously.

At every tick each component emits one character per outgoing edge (its
current state's output tuple), and consumes the tuple formed by the current
characters on its incoming edges.  Responses therefore propagate with a
one-tick delay, which is what makes the fully synchronous composition
well-defined.
"""

from __future__ import annotations

from functools import cached_property
from operator import getitem
from typing import Optional, Sequence

from .alphabet import Alphabet, AlphabetError, product_alphabet
from .machine import DetMoore, StatePartition, Word

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

    The network owns how its components compose: ``wiring`` is built once,
    from the edge alphabets alone, the first time anything reads it, and
    every ``Mmn`` placed on this network shares it.
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
        for e in self.system_in_edges:
            if self.node_class[e[1]] == NODE_OUTPUT:
                problems.append("edge %r joins a system input to a system output" % (e,))
        return problems

    @cached_property
    def wiring(self) -> "Wiring":
        """The composition plan; ``NetworkError`` if the network is invalid."""
        problems = self.diagnostics()
        if problems:
            raise NetworkError("invalid network: " + "; ".join(problems))
        return Wiring(self)

    def component_input_alphabet(self, c: NodeId) -> Alphabet:
        return self.wiring.input_alphabets[c]

    def component_output_alphabet(self, c: NodeId) -> Alphabet:
        return self.wiring.output_alphabets[c]


class Wiring:
    """How the components of a valid network compose on one tick.

    Lists are indexed in ``Network.components`` order.  Component ``k``
    consumes ``sys_parts[k][i]`` on system input ``i`` plus, per feed
    ``(src, stride, size, tstride)`` in ``feeds[k]``, the digit
    ``(outs[src] // stride) % size`` of component ``src``'s output times
    ``tstride``; the system output is that sum over ``out_reads``.  All
    alphabets are products of edge alphabets: the plan reads no machine.
    """

    def __init__(self, net: Network):
        def product(edges):
            return product_alphabet((e, net.edge_alphabet[e]) for e in edges)

        comps = net.components
        self.index = {c: k for k, c in enumerate(comps)}
        self.input_alphabets = {c: product(net.in_edges[c]) for c in comps}
        self.output_alphabets = {c: product(net.out_edges[c]) for c in comps}
        self.system_inputs = product(net.system_in_edges)
        self.system_outputs = product(net.system_out_edges)

        def reader(alpha: Alphabet, e: Edge) -> tuple[int, int]:
            # (stride, size) of edge e's digit in a symbol of alpha.
            pos = alpha.key_pos(e)
            return alpha._strides[pos], len(alpha.factors[pos])

        sys_in = self.system_inputs
        self.sys_parts: list[list[int]] = []
        self.feeds: list[list[tuple[int, int, int, int]]] = []
        for c in comps:
            sys_part = [0] * len(sys_in)
            feeds = []
            for e, tstride in zip(net.in_edges[c], self.input_alphabets[c]._strides):
                if net.node_class[e[0]] == NODE_INPUT:
                    stride, size = reader(sys_in, e)
                    sys_part = [p + (i // stride) % size * tstride
                                for i, p in enumerate(sys_part)]
                else:
                    src = e[0]
                    feeds.append((self.index[src], *reader(self.output_alphabets[src], e), tstride))
            self.sys_parts.append(sys_part)
            self.feeds.append(feeds)
        self.out_reads = [
            (self.index[e[0]], *reader(self.output_alphabets[e[0]], e), tstride)
            for e, tstride in zip(net.system_out_edges, self.system_outputs._strides)
        ]


class Mmn:
    """Deterministic Moore machines placed on the components of a network.

    The network's ``wiring`` says how components compose; an ``Mmn`` adds
    the per-component transition and output tables, in ``components``
    order, whose alphabets must accord with the edge alphabets.
    """

    def __init__(self, network: Network, machines: dict[NodeId, DetMoore], check: bool = True):
        self.network = network
        self.machines = dict(machines)
        self.components = network.components
        if check:
            problems = self.diagnostics()
            if problems:
                raise NetworkError("invalid MMN: " + "; ".join(problems))
        self.transitions_by_comp = [self.machines[c].transitions for c in self.components]
        self.outputs_by_comp = [self.machines[c].outputs for c in self.components]

    # -- validation --------------------------------------------------------

    def diagnostics(self) -> list[str]:
        """The network's problems if it is invalid, else the machines'."""
        problems = self.network.diagnostics()
        if problems:
            return problems
        shape = lambda a: (len(a), tuple(len(f) for f in a.factors or ()))
        for c in self.components:
            m = self.machines.get(c)
            if m is None:
                problems.append("component %r has no machine" % c)
                continue
            if not isinstance(m, DetMoore):
                problems.append("component %r is not a deterministic Moore machine" % c)
            if shape(m.input_alphabet) != shape(self.network.component_input_alphabet(c)):
                problems.append("component %r input alphabet not the product of its in-edge alphabets" % c)
            if shape(m.output_alphabet) != shape(self.network.component_output_alphabet(c)):
                problems.append("component %r output alphabet not the product of its out-edge alphabets" % c)
        return problems

    # -- composition ---------------------------------------------------------

    system_inputs = property(lambda self: self.network.wiring.system_inputs)
    system_outputs = property(lambda self: self.network.wiring.system_outputs)

    def initial_configuration(self) -> tuple[int, ...]:
        return tuple(self.machines[c].initial for c in self.components)

    def total_output(self, config: Sequence[int]) -> tuple[int, ...]:
        """Per-component output symbols at a configuration."""
        return tuple(map(getitem, self.outputs_by_comp, config))

    def component_input(self, c: NodeId, sys_in: int, outs: Sequence[int]) -> int:
        """The character component ``c`` consumes given the system input and
        the current per-component output symbols."""
        wiring = self.network.wiring
        k = wiring.index[c]
        sym = wiring.sys_parts[k][sys_in]
        for src, stride, size, tstride in wiring.feeds[k]:
            sym += ((outs[src] // stride) % size) * tstride
        return sym

    # -- derived machines ----------------------------------------------------

    def quotient_mmn(
        self, partitions: dict[NodeId, StatePartition]
    ) -> dict[NodeId, tuple[frozenset[int], ...]]:
        """Per component in ``partitions`` (some or all), the output set of
        each block of its partition, in block order.  These are the only
        tables the quotient walk in ``componentwise`` builds; ``one_ext_er``
        keeps them until the component's machine changes."""
        return {c: tuple(frozenset(map(self.machines[c].outputs.__getitem__, block))
                         for block in p.blocks) for c, p in partitions.items()}


class InducedMoore:
    """The system-level Moore machine of an MMN, materialized lazily.

    Configurations are interned on first visit.  The memo holds one *row*
    per configuration: its successor on every system input, ``None`` for a
    fall-off, filled on the first step from it, which interns the
    successors in input order.  Every call may grow the memo, so an
    instance must not be shared across threads.  Exposes the surface of
    DetMoore that ``equivalent`` and the oracles use: ``initial``, ``row``,
    ``step``, ``output``, ``semantics``, ``lasts`` plus the two alphabets.

    Rows are filled from one move vector per component: for state ``s``
    and base ``b`` (the input digits read off the other components' outputs
    by ``wiring.feeds``), ``s``'s successors on ``b`` plus each system
    input's part, ``None`` where undefined, built once per *move key*
    ``s * |input alphabet| + b`` and shared.  Interning stores a
    configuration's system output and move keys, summed off share tables:
    per feed or system-output read, each source state's share.

    The MMN is immutable, but the memo may outlive it: ``rebind`` moves it
    to a hypothesis grown from it within one learning epoch (see ``ccwl``).
    Context analysis walks the memo too (``contexts``), so the configurations
    it interns and expands are the ones the epoch's EQs start on.
    """

    def __init__(self, mmn: Mmn):
        self.mmn = mmn
        self._wiring = wiring = mmn.network.wiring
        self.input_alphabet = wiring.system_inputs
        self.output_alphabet = wiring.system_outputs
        # Per component, move key -> move vector.
        self._moves: list[dict[int, list[Optional[int]]]] = [dict() for _ in mmn.components]
        self._key_strides = [len(wiring.input_alphabets[c]) for c in mmn.components]
        # Per read (src, stride, size, tstride), its share table; refilled in place.
        self._shares = {read: self._share(read) for reads in [*wiring.feeds, wiring.out_reads]
                        for read in reads}
        self._feed_shares = [[(r[0], self._shares[r]) for r in feeds] for feeds in wiring.feeds]
        self._out_shares = [(r[0], self._shares[r]) for r in wiring.out_reads]
        self._configs: list[tuple[int, ...]] = []
        self._ids: dict[tuple[int, ...], int] = {}
        self._trans: list[Optional[list[Optional[int]]]] = []  # rows; None until filled
        self._outs: list[int] = []
        self._keys: list[list[int]] = []  # per configuration, its move keys
        self._partial: list[int] = []  # configurations whose row holds a fall-off
        self._reached: Optional[tuple] = None  # contexts(None): seen, keys, partial rows
        self._intern(mmn.initial_configuration())

    initial = 0

    def _share(self, read: tuple[int, int, int, int]) -> list[int]:
        src, stride, size, tstride = read
        return [(o // stride) % size * tstride for o in self.mmn.outputs_by_comp[src]]

    def rebind(self, mmn: Mmn) -> None:
        """Continue on ``mmn``, grown from the current MMN within an epoch.

        Growth only adds states and transitions and keeps every output, so
        interned configurations, their outputs and keys, the rows without a
        fall-off and an unbounded ``contexts`` walk stay valid.  The rows
        with a fall-off are forgotten, as a new transition may define a move
        they hold undefined (the next unbounded walk re-expands them), and
        so are the move vectors of each component whose (immutable)
        ``transitions`` changed.  Share tables read off changed outputs are
        refilled to cover the new states.  A counterexample EQ's product,
        which ``Sul.eq`` keeps per hypothesis object, stays valid across
        rebinds on the same contract: growth only adds."""
        old, self.mmn = self.mmn, mmn
        for q in self._partial:
            self._trans[q] = None
        self._partial = []
        for moves, was, now in zip(self._moves, old.transitions_by_comp, mmn.transitions_by_comp):
            if was is not now:
                moves.clear()
        for read, share in self._shares.items():
            if old.outputs_by_comp[read[0]] != mmn.outputs_by_comp[read[0]]:
                share[:] = self._share(read)

    def configuration(self, q: int) -> tuple[int, ...]:
        return self._configs[q]

    def n_explored(self) -> int:
        return len(self._configs)

    def _intern(self, config: tuple[int, ...]) -> int:
        q = len(self._configs)
        self._ids[config] = q
        self._configs.append(config)
        self._trans.append(None)
        out = 0
        for src, share in self._out_shares:
            out += share[config[src]]
        self._outs.append(out)
        keys = []
        for s, stride, feeds in zip(config, self._key_strides, self._feed_shares):
            key = s * stride
            for src, share in feeds:
                key += share[config[src]]
            keys.append(key)
        self._keys.append(keys)
        return q

    def _row(self, q: int) -> list[Optional[int]]:
        """Fill configuration ``q``'s row from its components' move vectors."""
        vecs = []
        for key, moves, stride, transitions, sys_part in zip(
            self._keys[q], self._moves, self._key_strides,
            self.mmn.transitions_by_comp, self._wiring.sys_parts,
        ):
            vec = moves.get(key)
            if vec is None:
                s, base = divmod(key, stride)
                from_s = transitions[s]
                vec = moves[key] = [from_s.get(base + p) for p in sys_part]
            vecs.append(vec)
        ids, row = self._ids, []
        for nxt in zip(*vecs):
            t = None
            if None not in nxt:
                t = ids.get(nxt)
                if t is None:
                    t = self._intern(nxt)
            row.append(t)
        if None in row:
            self._partial.append(q)
        self._trans[q] = row
        return row

    def row(self, q: int) -> list[Optional[int]]:
        return self._trans[q] or self._row(q)

    def step(self, q: int, i: int) -> Optional[int]:
        row = self._trans[q] or self._row(q)
        if 0 <= i < len(row):
            return row[i]
        raise AlphabetError("input symbol %d not in system alphabet" % i)

    def output(self, q: int) -> int:
        return self._outs[q]

    def contexts(self, depth: Optional[int]) -> list[frozenset[tuple[int, int]]]:
        """Per component, the (state, base) pairs received at the
        configurations that a BFS of the memo visits (``base`` as in the move
        vectors), expanding ``depth`` levels and visiting the last; ``None``
        expands all that is reachable.  It collects the visited
        configurations' move keys, split into pairs on return.  An unbounded
        walk resumes the last unbounded one and extends its key sets: within
        an epoch defined moves persist, so it re-expands only the
        configurations whose rows held a fall-off that ``rebind`` forgot.  A
        bounded walk starts afresh: new moves can make a level shallower."""
        if depth is None and self._reached is not None:
            seen, received, loose = self._reached
            frontier = loose[:]
            loose.clear()
        else:
            seen, frontier, loose = {self.initial}, [self.initial], []
            received = [set() for _ in self.mmn.components]
            if depth is None:
                self._reached = (seen, received, loose)
        keys, trans = self._keys, self._trans
        visited = []
        level = 0
        while frontier:
            visited += frontier
            if depth is not None and level >= depth:
                break
            nxt = []
            for q in frontier:
                row = trans[q] or self._row(q)
                if None in row:
                    loose.append(q)
                for t in row:
                    if t is not None and t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
            level += 1
        for got, visited_keys in zip(received, zip(*[keys[q] for q in visited])):
            got.update(visited_keys)
        return [frozenset(divmod(key, stride) for key in got)
                for got, stride in zip(received, self._key_strides)]

    def _walk(self, word: Sequence[int], q: int, record: list) -> list:
        """``record`` at each state a run from ``q`` visits, up to the first
        fall-off.  A row holds every system input, so only a negative symbol
        or one past a row's end is foreign: the first ends the run like a
        fall-off, the second raises ``IndexError``, and the whole word is
        checked only then."""
        trans, out = self._trans, [record[q]]
        try:
            for i in word:
                q = (trans[q] or self._row(q))[i] if i >= 0 else None
                if q is None:
                    self.input_alphabet.check_word(word)
                    break
                out.append(record[q])
        except IndexError:
            self.input_alphabet.check_word(word)
            raise
        return out

    def semantics(self, word: Sequence[int], q: Optional[int] = None) -> Word:
        """Like ``DetMoore.semantics``."""
        return tuple(self._walk(word, self.initial if q is None else q, self._outs))

    def lasts(self, words: Sequence[Sequence[int]]) -> tuple[list[int], int]:
        """Like ``DetMoore.lasts``; each word is checked like in ``_walk``."""
        trans, outs, initial = self._trans, self._outs, self.initial
        lasts, fall_offs = [], 0
        try:
            for word in words:
                q = initial
                for i in word:
                    nxt = (trans[q] or self._row(q))[i] if i >= 0 else None
                    if nxt is None:
                        self.input_alphabet.check_word(word)
                        fall_offs += 1
                        break
                    q = nxt
                lasts.append(outs[q])
        except IndexError:
            self.input_alphabet.check_word(word)
            raise
        return lasts, fall_offs

    def trajectory(self, word: Sequence[int]) -> list[tuple[int, ...]]:
        """The configurations a run visits, the initial one first, up to the
        first fall-off; the word is checked like in ``semantics``."""
        return self._walk(word, self.initial, self._configs)

"""Deterministic and nondeterministic Moore machines.

Machines are immutable after construction.  States are dense ints, symbols
are alphabet ints, words are tuples of symbols.  A deterministic machine may
be partial: missing transitions are simply absent from the per-state maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from typing import Iterable, Optional, Sequence

from .alphabet import Alphabet, AlphabetError

Word = tuple[int, ...]


class MooreError(ValueError):
    pass


@dataclass(frozen=True)
class Counterexample:
    word: Word

    def __bool__(self) -> bool:  # an equivalence result is truthy iff "yes"
        return False


#: Sentinel for "machines agree"; `equivalent` returns EQUIVALENT or a
#: Counterexample, so `if result:` reads as "if equivalent".
EQUIVALENT = True


@dataclass(frozen=True)
class DetMoore:
    """A (possibly partial) deterministic Moore machine."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    n_states: int
    initial: int
    transitions: tuple[dict[int, int], ...]  # per state: input sym -> state
    outputs: tuple[int, ...]  # per state: output sym

    def __post_init__(self):
        if not 0 <= self.initial < self.n_states:
            raise MooreError("initial state out of range")
        if len(self.transitions) != self.n_states or len(self.outputs) != self.n_states:
            raise MooreError("per-state tables must cover all states")
        for q, row in enumerate(self.transitions):
            for i, t in row.items():
                if i not in self.input_alphabet:
                    raise MooreError("transition input %d not in alphabet" % i)
                if not 0 <= t < self.n_states:
                    raise MooreError("transition target %d out of range" % t)
        for o in self.outputs:
            if o not in self.output_alphabet:
                raise MooreError("output symbol %d not in alphabet" % o)

    # The step/output/initial surface below is shared with lazy induced
    # machines (mmn.InducedMoore); equivalence and oracles only use it.

    def step(self, q: int, i: int) -> Optional[int]:
        if i not in self.input_alphabet:
            raise AlphabetError("input symbol %d not in alphabet" % i)
        return self.transitions[q].get(i)

    def output(self, q: int) -> int:
        return self.outputs[q]

    @property
    def is_complete(self) -> bool:
        n = len(self.input_alphabet)
        return all(len(row) == n for row in self.transitions)

    def n_transitions(self) -> int:
        return sum(len(row) for row in self.transitions)

    def run(self, q: int, word: Iterable[int]) -> Optional[int]:
        """Extended transition function; None once any step is undefined."""
        for i in word:
            if i not in self.input_alphabet:
                raise AlphabetError("input symbol %d not in alphabet" % i)
            nxt = self.transitions[q].get(i)
            if nxt is None:
                return None
            q = nxt
        return q

    def semantics(self, word: Sequence[int], q: Optional[int] = None) -> Word:
        """Output word from state ``q`` (default initial).

        Total: length is 1 + (longest defined prefix of ``word``), i.e.
        ``len(word) + 1`` exactly when the whole path is defined.
        """
        if q is None:
            q = self.initial
        out = [self.outputs[q]]
        for i in word:
            if i not in self.input_alphabet:
                raise AlphabetError("input symbol %d not in alphabet" % i)
            nxt = self.transitions[q].get(i)
            if nxt is None:
                break
            q = nxt
            out.append(self.outputs[q])
        return tuple(out)


def det_run(machine: DetMoore, q: int, word: Sequence[int]) -> Optional[int]:
    if not 0 <= q < machine.n_states:
        raise MooreError("state %d out of range" % q)
    return machine.run(q, word)


@dataclass(frozen=True)
class NondetMoore:
    """Nondeterministic Moore machine: set-valued transitions and outputs."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    n_states: int
    initials: frozenset[int]
    transitions: tuple[dict[int, frozenset[int]], ...]
    outputs: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not all(0 <= q < self.n_states for q in self.initials):
            raise MooreError("initial state out of range")
        for outs in self.outputs:
            if not outs:
                raise MooreError("output sets must be nonempty")

    def step_set(self, states: frozenset[int], i: int) -> frozenset[int]:
        if i not in self.input_alphabet:
            raise AlphabetError("input symbol %d not in alphabet" % i)
        acc: set[int] = set()
        for q in states:
            acc.update(self.transitions[q].get(i, ()))
        return frozenset(acc)

    def output_set(self, states: Iterable[int]) -> frozenset[int]:
        acc: set[int] = set()
        for q in states:
            acc.update(self.outputs[q])
        return frozenset(acc)


def wrap_nondet(machine: DetMoore) -> NondetMoore:
    """Singleton embedding of a deterministic machine."""
    trans = tuple(
        {i: frozenset((t,)) for i, t in row.items()} for row in machine.transitions
    )
    outs = tuple(frozenset((o,)) for o in machine.outputs)
    return NondetMoore(
        machine.input_alphabet,
        machine.output_alphabet,
        machine.n_states,
        frozenset((machine.initial,)),
        trans,
        outs,
    )


def nd_semantics(
    machine: NondetMoore, states: Iterable[int], word: Sequence[int]
) -> list[frozenset[int]]:
    """Sequence of output sets, length ``len(word) + 1``; empty once stuck."""
    cur = frozenset(states)
    out = [machine.output_set(cur)] if cur else [frozenset()]
    for i in word:
        cur = machine.step_set(cur, i)
        out.append(machine.output_set(cur) if cur else frozenset())
    return out


def reachable(machine, depth: Optional[int] = None) -> set[int]:
    """States reachable from the initial state(s) by words of length <= depth."""
    if isinstance(machine, NondetMoore):
        frontier = sorted(machine.initials)
        succ = lambda q, i: machine.transitions[q].get(i, ())
    else:
        frontier = [machine.initial]
        succ = lambda q, i: (
            (machine.transitions[q][i],) if i in machine.transitions[q] else ()
        )
    seen = set(frontier)
    d = 0
    while frontier and (depth is None or d < depth):
        nxt = []
        for q in frontier:
            for i in machine.input_alphabet:
                for t in succ(q, i):
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
        d += 1
    return seen


# -- partitions and quotients ---------------------------------------------


@dataclass(frozen=True)
class StatePartition:
    """Partition of a machine's states into disjoint nonempty blocks."""

    n_states: int
    block_of: tuple[int, ...]  # state -> block index
    blocks: tuple[tuple[int, ...], ...] = field(default=())

    @staticmethod
    def from_block_of(n_states: int, block_of: Sequence[int]) -> "StatePartition":
        groups: dict[int, list[int]] = {}
        for q, b in enumerate(block_of):
            groups.setdefault(b, []).append(q)
        # renumber blocks by smallest member for stable iteration
        order = sorted(groups.values(), key=lambda g: g[0])
        remap = {}
        for new_b, g in enumerate(order):
            for q in g:
                remap[q] = new_b
        return StatePartition(
            n_states,
            tuple(remap[q] for q in range(n_states)),
            tuple(tuple(g) for g in order),
        )

    def n_blocks(self) -> int:
        return len(self.blocks)

    def refines(self, coarser: "StatePartition") -> bool:
        rep: dict[int, int] = {}
        for q in range(self.n_states):
            b = self.block_of[q]
            c = coarser.block_of[q]
            if rep.setdefault(b, c) != c:
                return False
        return True


def identity_partition(machine) -> StatePartition:
    return StatePartition.from_block_of(machine.n_states, range(machine.n_states))


def partition_uni(machine) -> StatePartition:
    """One block holding every state."""
    return StatePartition.from_block_of(machine.n_states, [0] * machine.n_states)


def partition_eq_k(machine: DetMoore, k: Optional[int]) -> StatePartition:
    """States equivalent under all output observations of length <= k.

    ``k=None`` is the unbounded sentinel and yields the identity partition
    (no quotienting).  Undefined continuations count as a pseudo-output that
    matches only itself, so two states land in one block only when their
    defined/undefined patterns agree along every word of length <= k.
    """
    if k is None:
        return identity_partition(machine)
    n = machine.n_states
    block_of = _group([machine.outputs[q] for q in range(n)])
    for _ in range(k):
        sigs = []
        for q in range(n):
            succ = tuple(
                block_of[machine.transitions[q][i]] if i in machine.transitions[q] else -1
                for i in machine.input_alphabet
            )
            sigs.append((block_of[q], succ))
        new = _group(sigs)
        if new == block_of:
            break
        block_of = new
    return StatePartition.from_block_of(n, block_of)


def _group(values: list) -> list[int]:
    ids: dict = {}
    out = []
    for v in values:
        out.append(ids.setdefault(v, len(ids)))
    return out


def quotient(machine, partition: StatePartition) -> NondetMoore:
    """Quotient Moore machine: blocks as states, unioned moves and outputs.

    Accepts either machine kind; the result is nondeterministic and
    overapproximates the source's defined behavior.
    """
    if partition.n_states != machine.n_states:
        raise MooreError("partition is over a different state count")
    nb = partition.n_blocks()
    trans: list[dict[int, set[int]]] = [dict() for _ in range(nb)]
    outs: list[set[int]] = [set() for _ in range(nb)]
    det = isinstance(machine, DetMoore)
    for q in range(machine.n_states):
        b = partition.block_of[q]
        if det:
            outs[b].add(machine.outputs[q])
        else:
            outs[b].update(machine.outputs[q])
        for i, t in machine.transitions[q].items():
            targets = (t,) if det else t
            dst = trans[b].setdefault(i, set())
            for tq in targets:
                dst.add(partition.block_of[tq])
    if det:
        initials = frozenset((partition.block_of[machine.initial],))
    else:
        initials = frozenset(partition.block_of[q] for q in machine.initials)
    return NondetMoore(
        machine.input_alphabet,
        machine.output_alphabet,
        nb,
        initials,
        tuple({i: frozenset(ts) for i, ts in row.items()} for row in trans),
        tuple(frozenset(o) for o in outs),
    )


# -- equivalence ------------------------------------------------------------


def _same_alphabet(a: Alphabet, b: Alphabet) -> bool:
    if a is b:
        return True
    if len(a) != len(b):
        return False
    if not a.is_product and not b.is_product:
        return a.names() == b.names()
    if a.is_product and b.is_product:
        return tuple(len(f) for f in a.factors) == tuple(len(f) for f in b.factors)
    return False


def equivalent(m1, m2):
    """Exact equivalence of two deterministic machines (lazy ones included).

    BFS over the synchronous product of the reachable parts, expanding in
    (discovery, input symbol id) order; returns EQUIVALENT or the shortest
    difference witness.  A defined-length mismatch counts as a difference.
    """
    if not _same_alphabet(m1.input_alphabet, m2.input_alphabet):
        raise MooreError("input alphabet mismatch")
    if not _same_alphabet(m1.output_alphabet, m2.output_alphabet):
        raise MooreError("output alphabet mismatch")
    start = (m1.initial, m2.initial)
    seen = {start: ()}
    queue = deque((start,))
    while queue:
        q1, q2 = queue.popleft()
        path = seen[(q1, q2)]
        if m1.output(q1) != m2.output(q2):
            return Counterexample(path)
        for i in m1.input_alphabet:
            t1 = m1.step(q1, i)
            t2 = m2.step(q2, i)
            if (t1 is None) != (t2 is None):
                return Counterexample(path + (i,))
            if t1 is None:
                continue
            key = (t1, t2)
            if key not in seen:
                seen[key] = path + (i,)
                queue.append(key)
    return EQUIVALENT

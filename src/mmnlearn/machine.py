"""Deterministic Moore machines, their state partitions and equivalence.

Machines are immutable after construction.  States are dense ints, symbols
are alphabet ints, words are tuples of symbols.  A deterministic machine may
be partial: missing transitions are simply absent from the per-state maps.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from collections import deque
from typing import Optional, Sequence

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
    """A (possibly partial) deterministic Moore machine.  ``check`` raises
    ``MooreError`` for any state, symbol or table size out of range; only
    ``ObservationTable.hypothesis``, which checks data as it enters, skips it."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    n_states: int
    initial: int
    transitions: tuple[dict[int, int], ...]  # per state: input sym -> state
    outputs: tuple[int, ...]  # per state: output sym
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if not check:
            return
        n = self.n_states
        if not 0 <= self.initial < n:
            raise MooreError("initial state out of range")
        if len(self.transitions) != n or len(self.outputs) != n:
            raise MooreError("per-state tables must cover all states")
        n_in = len(self.input_alphabet)
        for row in self.transitions:  # bounds by C-level min/max per row
            if row and (min(row) < 0 or max(row) >= n_in):
                raise MooreError("transition input not in alphabet: %r" % row)
            if row and (min(row.values()) < 0 or max(row.values()) >= n):
                raise MooreError("transition target out of range: %r" % row)
        if min(self.outputs) < 0 or max(self.outputs) >= len(self.output_alphabet):
            raise MooreError("output symbol not in alphabet: %r" % (self.outputs,))

    # ``initial``, ``row``, ``step``, ``output``, ``semantics``, ``lasts`` and
    # the two alphabets are shared with the lazy ``network.InducedMoore``;
    # ``equivalent`` and the oracles use only this surface.

    def row(self, q: int) -> list[Optional[int]]:
        """``q``'s successor on every input, ``None`` where undefined."""
        return list(map(self.transitions[q].get, range(len(self.input_alphabet))))

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

    def semantics(self, word: Sequence[int], q: Optional[int] = None) -> Word:
        """Output word from state ``q`` (default initial).

        Total: length is 1 + (longest defined prefix of ``word``), i.e.
        ``len(word) + 1`` exactly when the whole path is defined.  The word is
        checked only at a fall-off (transition keys are in the alphabet), so a
        foreign symbol raises ``AlphabetError``, also past a fall-off.
        """
        q = self.initial if q is None else q
        transitions, outputs = self.transitions, self.outputs
        out = [outputs[q]]
        for i in word:
            q = transitions[q].get(i)
            if q is None:
                self.input_alphabet.check_word(word)
                break
            out.append(outputs[q])
        return tuple(out)

    def lasts(self, words: Sequence[Sequence[int]]) -> tuple[list[int], int]:
        """Per word ``semantics(word)[-1]``, and how many words fall off; each
        walked and checked like in ``semantics``, building no output word."""
        transitions, outputs, initial = self.transitions, self.outputs, self.initial
        lasts, fall_offs = [], 0
        for word in words:
            q = initial
            for i in word:
                t = transitions[q].get(i)
                if t is None:
                    self.input_alphabet.check_word(word)
                    fall_offs += 1
                    break
                q = t
            lasts.append(outputs[q])
        return lasts, fall_offs


# -- partitions ------------------------------------------------------------


@dataclass(frozen=True)
class StatePartition:
    """Partition of a machine's states into disjoint nonempty blocks,
    numbered by smallest member."""

    n_states: int
    block_of: tuple[int, ...]  # state -> block index
    blocks: tuple[tuple[int, ...], ...]  # block index -> its states, ascending

    def n_blocks(self) -> int:
        return len(self.blocks)


def partition_uni(machine) -> StatePartition:
    """One block holding every state."""
    n = machine.n_states
    return StatePartition(n, (0,) * n, (tuple(range(n)),))


def partition_eq_k(machine: DetMoore, k: int) -> StatePartition:
    """States equivalent under all output observations of length <= k.

    Undefined continuations count as a pseudo-output that matches only
    itself, so two states land in one block only when their
    defined/undefined patterns agree along every word of length <= k.
    """
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
    blocks: list[list[int]] = [[] for _ in range(max(block_of) + 1)]
    for q, b in enumerate(block_of):
        blocks[b].append(q)
    return StatePartition(n, tuple(block_of), tuple(map(tuple, blocks)))


def _group(values: list) -> list[int]:
    """Block ids for ``values``, numbered in first-occurrence order, so that
    blocks are numbered by smallest member."""
    ids: dict = {}
    out = []
    for v in values:
        out.append(ids.setdefault(v, len(ids)))
    return out


# -- equivalence ------------------------------------------------------------


def same_alphabet(a: Alphabet, b: Alphabet) -> bool:
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

    Returns EQUIVALENT or the shortest difference witness.  A defined-length
    mismatch counts as a difference.  Two passes: ``_agree`` decides in
    near-linear work, reading at most |Q1| + |Q2| successor rows of each
    machine, where the product BFS visits every reachable state pair.  Its
    merges do not follow BFS order, so only when it finds a difference does
    the BFS run, expanding in (discovery, input symbol id) order, to build
    the shortest witness.
    """
    if not same_alphabet(m1.input_alphabet, m2.input_alphabet):
        raise MooreError("input alphabet mismatch")
    if not same_alphabet(m1.output_alphabet, m2.output_alphabet):
        raise MooreError("output alphabet mismatch")
    if _agree(m1, m2):
        return EQUIVALENT
    start = (m1.initial, m2.initial)
    # Per discovered pair, the pair and input it was first reached from; the
    # witness is rebuilt only once a difference shows.
    parent: dict = {start: None}
    queue = deque((start,))
    while queue:
        pair = queue.popleft()
        q1, q2 = pair
        if m1.output(q1) != m2.output(q2):
            return Counterexample(_witness(parent, pair))
        for i in m1.input_alphabet:
            t1 = m1.step(q1, i)
            t2 = m2.step(q2, i)
            if (t1 is None) != (t2 is None):
                return Counterexample(_witness(parent, pair) + (i,))
            if t1 is None:
                continue
            key = (t1, t2)
            if key not in parent:
                parent[key] = (pair, i)
                queue.append(key)
    return EQUIVALENT


def _agree(m1, m2) -> bool:
    """Hopcroft and Karp's union-find equivalence test (Cornell TR 71-114).

    States are keyed ``2q`` (``m1``) and ``2q + 1`` (``m2``) in one forest,
    kept shallow by union by size.  Every merged pair is queued and its
    outputs and rows compared, so the merged classes form a bisimulation up
    to equivalence (Bonchi & Pous, POPL 2013) exactly when the machines agree.
    Roots are found inline: a nested call per move costs more than the walk.
    """
    up = {2 * m1.initial: 2 * m2.initial + 1}  # non-root key -> parent key
    size = {2 * m2.initial + 1: 2}  # root key -> class size, if above 1
    queue = deque(((m1.initial, m2.initial),))
    while queue:
        q1, q2 = queue.popleft()
        if m1.output(q1) != m2.output(q2):
            return False
        for t1, t2 in zip(m1.row(q1), m2.row(q2)):
            if t1 is None or t2 is None:
                if t1 is None and t2 is None:
                    continue
                return False
            r1 = 2 * t1
            while r1 in up:
                r1 = up[r1]
            r2 = 2 * t2 + 1
            while r2 in up:
                r2 = up[r2]
            if r1 == r2:
                continue
            s1 = size.get(r1, 1)
            s2 = size.get(r2, 1)
            if s1 < s2:
                r1, r2 = r2, r1
            up[r2] = r1
            size[r1] = s1 + s2
            queue.append((t1, t2))
    return True


def moves_agree(m1: DetMoore, m2: DetMoore) -> bool:
    """Whether ``equivalent(m1, m2)`` holds, with no witness: every state pair
    reached in lockstep agrees on its output and on which moves it defines."""
    t1, t2, o1, o2 = m1.transitions, m2.transitions, m1.outputs, m2.outputs
    seen = {(m1.initial, m2.initial)}
    stack = list(seen)
    while stack:
        q1, q2 = stack.pop()
        row2 = t2[q2]
        if o1[q1] != o2[q2] or len(t1[q1]) != len(row2):
            return False
        for i, n1 in t1[q1].items():
            n2 = row2.get(i)
            if n2 is None:
                return False
            if (n1, n2) not in seen:
                seen.add((n1, n2))
                stack.append((n1, n2))
    return True


def _witness(parent: dict, pair) -> Word:
    """The BFS access path of ``pair``."""
    inputs = []
    while parent[pair] is not None:
        pair, i = parent[pair]
        inputs.append(i)
    return tuple(reversed(inputs))

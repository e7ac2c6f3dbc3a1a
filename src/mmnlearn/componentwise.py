"""System-level learning algorithms over Moore machine networks.

Three entry points share the observation-table engine:

* ``mnl``  -- monolithic: plain L* on the system-level oracles, ignoring
  the network.
* ``cwl``  -- naive componentwise: plain L* per component with
  component-level oracles, assembled along the known network.
* ``ccwl`` -- contextual componentwise: component-level output queries
  plus system-level equivalence queries, with table completion driven by
  reachability analysis over (a quotient of) the hypothesis network.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import groupby, product
from typing import Optional

from .lstar import LearningTimeout, OqCache, analyze_cex, lstar
from .machine import (
    DetMoore,
    StatePartition,
    Word,
    partition_eq_k,
    partition_uni,
)
from .network import InducedMoore, Mmn, NodeId
from .oracles import Sul
from .table import ObservationTable, SpuriousCounterexampleError

ABS_EQ = "eq"
ABS_EQ_K = "eqk"
ABS_UNI = "uni"
BOUND_INF = "dinf"
BOUND_DEPTH = "d"
BOUND_SUM = "dsum"
BOUND_MAX = "dmax"
BOUND_MIN = "dmin"

# Most output tuples the quotient walk enumerates at one configuration.
OUTPUT_CAP = 10**5


class CaBlowupError(RuntimeError):
    """Context analysis hit the output-enumeration cap (``OUTPUT_CAP``);
    rerun with a finer abstraction rather than dropping tuples silently."""


@dataclass(frozen=True)
class CaParams:
    """Context-analysis parameters: component abstraction and RA bound.

    Any bound other than the unbounded one is unsound: reachability may
    miss contexts, which later surfaces as missing-transition
    counterexamples (handled by the extended analyzer).
    """

    abstraction: str = ABS_EQ
    k: Optional[int] = None  # only for eqk
    bound: str = BOUND_INF
    depth: Optional[int] = None  # only for d

    def __post_init__(self):
        if self.abstraction not in (ABS_EQ, ABS_EQ_K, ABS_UNI):
            raise ValueError("unknown abstraction %r" % self.abstraction)
        if self.abstraction == ABS_EQ_K and (self.k is None or self.k < 0):
            raise ValueError("eqk needs k >= 0, not %r" % self.k)
        if self.abstraction != ABS_EQ_K and self.k is not None:
            raise ValueError("k=%r is only for eqk, not %s" % (self.k, self.abstraction))
        if self.bound not in (BOUND_INF, BOUND_DEPTH, BOUND_SUM, BOUND_MAX, BOUND_MIN):
            raise ValueError("unknown bound %r" % self.bound)
        if self.bound == BOUND_DEPTH and (self.depth is None or self.depth < 0):
            raise ValueError("d needs depth >= 0, not %r" % self.depth)
        if self.bound != BOUND_DEPTH and self.depth is not None:
            raise ValueError("depth=%r is only for d, not %s" % (self.depth, self.bound))

    @property
    def sound(self) -> bool:
        return self.bound == BOUND_INF

    @staticmethod
    def parse(abstraction: str, bound: str) -> "CaParams":
        """From CLI spellings such as ``eqk:2`` and ``d:3``."""
        a, k = abstraction, None
        if abstraction.startswith("eqk:"):
            a, k = ABS_EQ_K, _spec_int(abstraction)
        b, depth = bound, None
        if bound.startswith("d:"):
            b, depth = BOUND_DEPTH, _spec_int(bound)
        return CaParams(a, k, b, depth)

    def __str__(self) -> str:
        a = "eqk:%d" % self.k if self.abstraction == ABS_EQ_K else self.abstraction
        b = "d:%d" % self.depth if self.bound == BOUND_DEPTH else self.bound
        return "(%s,%s)" % (a, b)


def _spec_int(spec: str) -> int:
    """The integer after the colon of ``spec``, e.g. 2 in ``eqk:2``."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError("%r needs an integer after ':'" % spec) from None


@dataclass
class LearnedSystem:
    """Result of a learning run; query counts live in the SUL's ``stats``,
    sizes (summed over components) in the learned model."""

    mmn: Optional[Mmn] = None  # componentwise results
    machine: Optional[DetMoore] = None  # monolithic result
    max_cex_length: int = 0

    def _models(self):
        return [self.machine] if self.machine is not None else self.mmn.machines.values()

    @property
    def n_states(self) -> int:
        return sum(m.n_states for m in self._models())

    @property
    def n_transitions(self) -> int:
        return sum(m.n_transitions() for m in self._models())

    def system_machine(self):
        return self.machine if self.machine is not None else InducedMoore(self.mmn)


def mnl(sul: Sul, memoize: bool = True, deadline: Optional[float] = None) -> LearnedSystem:
    """Monolithic L* over the system-level oracles."""
    res = lstar(
        sul.system_inputs, sul.system_outputs, sul.oq, sul.oq_lasts, sul.eq,
        memoize=memoize, deadline=deadline,
    )
    return LearnedSystem(machine=res.machine, max_cex_length=res.max_cex_length)


def cwl(sul: Sul, memoize: bool = True, deadline: Optional[float] = None) -> LearnedSystem:
    """Naive componentwise L*: each component learned in isolation."""
    machines: dict[NodeId, DetMoore] = {}
    max_cex = 0
    for c in sul.components:
        res = lstar(
            sul.component_input_alphabet(c),
            sul.component_output_alphabet(c),
            partial(sul.oq_c, c),
            partial(sul.oq_c_lasts, c),
            partial(sul.eq_c, c),
            memoize=memoize, deadline=deadline,
        )
        machines[c] = res.machine
        max_cex = max(max_cex, res.max_cex_length)
    return LearnedSystem(
        mmn=Mmn(sul.network, machines, check=False), max_cex_length=max_cex
    )


# -- contextual componentwise ------------------------------------------------


def assemble(sul: Sul, tables: dict[NodeId, ObservationTable]) -> Mmn:
    """Hypothesis MMN: per-component hypothesis machines placed on the SUL
    network, whose wiring every round's hypothesis shares."""
    return Mmn(
        sul.network, {c: tables[c].hypothesis() for c in sul.components}, check=False
    )


def resolve_depth(params: CaParams, tables: dict[NodeId, ObservationTable]) -> Optional[int]:
    """Concrete BFS depth bound for this round; None means unbounded."""
    if params.bound == BOUND_INF:
        return None
    if params.bound == BOUND_DEPTH:
        return params.depth
    sizes = [len(t.S) for t in tables.values()]  # S rows are pairwise distinct
    if params.bound == BOUND_SUM:
        return sum(sizes)
    if params.bound == BOUND_MAX:
        return max(sizes)
    return min(sizes)


def _partition_for(params: CaParams, machine: DetMoore) -> StatePartition:
    if params.abstraction == ABS_EQ_K:
        return partition_eq_k(machine, params.k)
    return partition_uni(machine)


def one_ext_er(
    hypothesis: Mmn,
    params: CaParams,
    tables: dict[NodeId, ObservationTable],
    induced: Optional[InducedMoore] = None,
    quotients: Optional[dict[NodeId, tuple]] = None,
) -> set[tuple[NodeId, Word, int]]:
    """Contextual completion rule.

    A (depth-bounded) BFS over configurations returns, per component, the
    (state, base) pairs received at the visited configurations; each pair
    and each system-input part of the component propose the state's access
    string with the character base + part.  With the ``eq`` abstraction the
    walk is ``InducedMoore.contexts`` over ``induced``, the epoch's system
    machine bound to ``hypothesis`` (fresh if not passed): it resumes the
    epoch's last walk under ``dinf`` and re-walks the memo under every other
    bound.  ``eqk`` and ``uni`` walk the blocks of each component's states
    under the abstraction (``_walk_quotient``), so no quotient machine is
    built.  ``quotients`` keeps, per component, the machine, its partition
    and the partition's block output sets (``Mmn.quotient_mmn``); the last
    two are rebuilt only once the table hands out another machine.  Both
    walks compose the components by the network's ``wiring``, which every
    round's hypothesis shares.
    """
    depth = resolve_depth(params, tables)
    comps = hypothesis.components
    if params.abstraction == ABS_EQ:
        received = (induced or InducedMoore(hypothesis)).contexts(depth)
    else:
        kept = {} if quotients is None else quotients
        machines = hypothesis.machines
        changed = {c: _partition_for(params, machines[c]) for c in comps
                   if c not in kept or kept[c][0] is not machines[c]}
        if changed:
            for c, outputs in hypothesis.quotient_mmn(changed).items():
                kept[c] = (machines[c], changed[c], outputs)
        received = _walk_quotient(hypothesis, {c: kept[c][1] for c in comps},
                                  {c: kept[c][2] for c in comps}, depth)
    return {
        (c, tables[c].S[q], base + part)
        for c, pairs, sys_part in zip(comps, received, hypothesis.network.wiring.sys_parts)
        for q, base in pairs for part in sys_part
    }


def _walk_quotient(
    hypothesis: Mmn,
    partitions: dict[NodeId, StatePartition],
    block_outputs: dict[NodeId, tuple[frozenset[int], ...]],
    depth: Optional[int],
) -> list[set[tuple[int, int]]]:
    """Context analysis on the quotients of the hypothesis components.

    An abstract configuration holds one block per component, and a block
    emits every output of its states (``block_outputs``, from
    ``Mmn.quotient_mmn``).  A component's bases at a configuration are the
    sums of the digits its feeds read from the other components' output
    sets.  Per block and bases that the walk expands, the block's targets on
    every system input are computed once: the blocks of its states' defined
    moves on each base plus that input's system-input part.  On a system
    input the successors are the product of the components' targets, so a
    component with no target blocks that input.  Move maps exist only for
    visited blocks.  The last level records its bases and nothing more.
    Over ``OUTPUT_CAP`` output tuples at one configuration raise
    ``CaBlowupError`` instead of being dropped.  Returns, per component
    and like ``InducedMoore.contexts``, the (state, base) pairs that the
    visited blocks receive: each state of a visited block with each base
    the walk read for that block.
    """
    comps = hypothesis.components
    wiring = hypothesis.network.wiring
    sys_parts, feeds = wiring.sys_parts, wiring.feeds
    transitions = hypothesis.transitions_by_comp
    outputs = [block_outputs[c] for c in comps]
    block_of = [partitions[c].block_of for c in comps]
    blocks = [partitions[c].blocks for c in comps]
    # moves[k][b], for visited blocks only: bases -> per system input, the
    # blocks block b's states move to; None for bases seen only on the last level.
    moves = [defaultdict(dict) for _ in comps]

    start = tuple(
        bo[q] for bo, q in zip(block_of, hypothesis.initial_configuration())
    )
    seen = {start}
    frontier = [start]
    level = 0
    while frontier:
        expand = depth is None or level < depth
        nxt = []
        for cfg in frontier:
            out_sets = [o[b] for o, b in zip(outputs, cfg)]
            combos = 1
            for outs in out_sets:
                combos *= len(outs)
            if combos > OUTPUT_CAP:
                raise CaBlowupError(
                    "context analysis would enumerate %d output tuples at one "
                    "configuration (cap %d)" % (combos, OUTPUT_CAP)
                )
            targets = []
            for k, b in enumerate(cfg):
                bases = (0,)
                for src, stride, size, tstride in feeds[k]:
                    digits = sorted({(v // stride) % size for v in out_sets[src]})
                    bases = tuple(x + d * tstride for x in bases for d in digits)
                known = moves[k][b]
                if not expand:
                    known.setdefault(bases, None)
                    continue
                t = known.get(bases)
                if t is None:
                    bo = block_of[k]
                    rows = [transitions[k][q] for q in blocks[k][b]]
                    t = known[bases] = [
                        {bo[dest] for row in rows for x in bases
                         if (dest := row.get(x + p)) is not None}
                        for p in sys_parts[k]
                    ]
                targets.append(t)
            if expand:
                # A component with no target leaves an empty product.
                for per_comp in zip(*targets):
                    for succ in product(*per_comp):
                        if succ not in seen:
                            seen.add(succ)
                            nxt.append(succ)
        if not expand:
            break
        frontier = nxt
        level += 1

    return [
        {(q, x) for b, known in moves_k.items() for x in set().union(*known)
         for q in blocks_k[b]}
        for moves_k, blocks_k in zip(moves, blocks)
    ]


def analyze_cex_componentwise(
    induced: InducedMoore,
    word: Word,
    sul: Sul,
    tables: dict[NodeId, ObservationTable],
    caches: dict[NodeId, OqCache],
) -> tuple[NodeId, Optional[int]]:
    """Extended counterexample analysis (valid for sound and unsound CA).

    ``induced`` is the epoch's system machine the EQ ran on: its ``mmn`` is
    the (immutable) hypothesis, and its memo gives the word's configurations.
    If the hypothesis falls off along the word, the first undefined tick
    names a component and an input character whose row is missing: add it.
    Otherwise some component's total-output trace disagrees with the
    hypothesis simulation; rebuild that component's local input word from
    the observed total outputs and delegate to the suffix-based analyzer,
    which starts a new epoch.  Candidates tie-break by component order.
    Returns the component whose table grew and, when a suffix was added
    (the epoch ends), the tick of the first difference, else None.
    """
    hypothesis = induced.mmn
    comps = hypothesis.components
    configs = induced.trajectory(word)

    if len(configs) <= len(word):
        config, sys_in = configs[-1], word[len(configs) - 1]
        outs = hypothesis.total_output(config)
        for k, c in enumerate(comps):
            i_c = hypothesis.component_input(c, sys_in, outs)
            if hypothesis.machines[c].transitions[config[k]].get(i_c) is None:
                s = tables[c].S[config[k]]
                tables[c].add_extension(s + (i_c,))
                return c, None
        raise SpuriousCounterexampleError("fell off but no missing transition found")

    observed = sul.oq_bar(word)
    for t, config in enumerate(configs):
        expected = hypothesis.total_output(config)
        if observed[t] != expected:
            k = next(k for k, o in enumerate(expected) if observed[t][k] != o)
            c = comps[k]
            local = tuple(
                hypothesis.component_input(c, word[j], observed[j])
                for j in range(len(word))
            )
            analyze_cex(hypothesis.machines[c], local, caches[c], tables[c])
            return c, t
    raise SpuriousCounterexampleError(
        "counterexample shows no difference in total outputs"
    )


def ccwl(
    sul: Sul,
    params: CaParams,
    memoize: bool = True,
    deadline: Optional[float] = None,
    event_log: Optional[list[str]] = None,
) -> LearnedSystem:
    """Contextual componentwise L* (component OQs + system-level EQs);
    ``memoize`` acts per component as in :func:`lstar`.

    Between two suffix additions (an *epoch*) hypotheses only gain states
    and transitions: each hypothesis is immutable, but the rounds of an
    epoch share one ``InducedMoore`` memo, rebound to each new hypothesis.
    The ``eq`` context analysis walks it (see :func:`one_ext_er`) and the
    EQs run on it, so the non-initial configurations that ``event_log``
    reports per EQ (``known``) include those the analysis interned.

    Rounds carry over, for the epoch, the memo and ``Sul.eq``'s product for
    it (dropped by the last EQ); for the job, the last round's proposals (in
    their tables by now: not tested again) and, per unchanged machine, its
    partition and block output sets."""

    def note(fmt: str, *args) -> None:
        if event_log is not None:
            event_log.append(fmt % args)

    caches: dict[NodeId, OqCache] = {}
    tables: dict[NodeId, ObservationTable] = {}
    for c in sul.components:
        cache = caches[c] = OqCache(
            partial(sul.oq_c, c), partial(sul.oq_c_lasts, c), enabled=memoize)
        tables[c] = ObservationTable(sul.component_input_alphabet(c),
                                     sul.component_output_alphabet(c), cache.lasts)
    eq_calls = 0
    max_cex = 0
    induced: Optional[InducedMoore] = None  # the epoch's system machine
    tested: set[tuple[NodeId, Word, int]] = set()  # the last round's proposals
    quotients: dict[NodeId, tuple] = {}  # per component, kept by one_ext_er
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise LearningTimeout("learning budget exceeded")
        for c in sul.components:
            tables[c].close()
        hypothesis = assemble(sul, tables)
        induced = induced or InducedMoore(hypothesis)  # one per epoch
        induced.rebind(hypothesis)
        proposals = one_ext_er(hypothesis, params, tables, induced, quotients)
        missing = sorted(
            (c, s, i) for (c, s, i) in proposals - tested if s + (i,) not in tables[c]
        )
        tested = proposals
        note("round proposals=%d new=%d", len(proposals), len(missing))
        if missing:  # sorted by component: one batch per table, R order kept
            for c, group in groupby(missing, lambda m: m[0]):
                tables[c].add_extension(*(s + (i,) for _, s, i in group))
            continue
        eq_calls += 1
        note("eq issued n=%d known=%d", eq_calls, induced.n_explored() - 1)
        verdict = sul.eq(induced)
        if verdict is True:
            note("eq yes after %d queries", eq_calls)
            return LearnedSystem(mmn=hypothesis, max_cex_length=max_cex)
        max_cex = max(max_cex, len(verdict.word))
        note("eq cex len=%d", len(verdict.word))
        c, tick = analyze_cex_componentwise(induced, verdict.word, sul, tables, caches)
        if tick is None:
            note("cex missing-transition c=%s", c)
        else:
            note("cex wrong-output c=%s tick=%d", c, tick)
            induced = None  # a new epoch: states may split, moves may change

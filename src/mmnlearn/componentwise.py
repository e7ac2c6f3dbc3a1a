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
from dataclasses import dataclass
from typing import Optional

from .lstar import LearningTimeout, OqCache, analyze_cex, lstar
from .machine import (
    Counterexample,
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
            raise ValueError("eqk needs k >= 0")
        if self.bound not in (BOUND_INF, BOUND_DEPTH, BOUND_SUM, BOUND_MAX, BOUND_MIN):
            raise ValueError("unknown bound %r" % self.bound)
        if self.bound == BOUND_DEPTH and (self.depth is None or self.depth < 0):
            raise ValueError("d needs depth >= 0")

    @property
    def sound(self) -> bool:
        return self.bound == BOUND_INF

    @staticmethod
    def parse(abstraction: str, bound: str) -> "CaParams":
        a, k = abstraction, None
        if abstraction.startswith("eqk:"):
            a, k = ABS_EQ_K, int(abstraction.split(":", 1)[1])
        b, depth = bound, None
        if bound.startswith("d:"):
            b, depth = BOUND_DEPTH, int(bound.split(":", 1)[1])
        return CaParams(a, k, b, depth)

    def __str__(self) -> str:
        a = "eqk:%d" % self.k if self.abstraction == ABS_EQ_K else self.abstraction
        b = "d:%d" % self.depth if self.bound == BOUND_DEPTH else self.bound
        return "(%s,%s)" % (a, b)


@dataclass
class LearnedSystem:
    """Result of a learning run, plus provenance."""

    algorithm: str
    mmn: Optional[Mmn] = None  # componentwise results
    machine: Optional[DetMoore] = None  # monolithic result
    ca_params: Optional[CaParams] = None
    seed: Optional[int] = None  # the SUL's EQ stream seed
    eq_calls: int = 0
    max_cex_length: int = 0
    n_states: int = 0
    n_transitions: int = 0
    tables: Optional[dict[NodeId, ObservationTable]] = None
    events: Optional[list[str]] = None

    def system_machine(self):
        return self.machine if self.machine is not None else InducedMoore(self.mmn)


def mnl(sul: Sul, memoize: bool = True, deadline: Optional[float] = None,
        eq=None) -> LearnedSystem:
    """Monolithic L* over the system-level oracles."""
    res = lstar(
        sul.system_inputs, sul.system_outputs, sul.oq, eq or sul.eq,
        memoize=memoize, deadline=deadline,
    )
    return LearnedSystem(
        "mnl", machine=res.machine, seed=sul.eq_config.seed,
        eq_calls=res.eq_calls, max_cex_length=res.max_cex_length,
        n_states=res.machine.n_states,
        n_transitions=res.machine.n_transitions(),
    )


def cwl(sul: Sul, memoize: bool = True, deadline: Optional[float] = None,
        eq_c=None) -> LearnedSystem:
    """Naive componentwise L*: each component learned in isolation."""
    eq_c = eq_c or sul.eq_c
    machines: dict[NodeId, DetMoore] = {}
    tables: dict[NodeId, ObservationTable] = {}
    eq_calls = 0
    max_cex = 0
    for c in sul.components:
        res = lstar(
            sul.component_input_alphabet(c),
            sul.component_output_alphabet(c),
            lambda w, c=c: sul.oq_c(c, w),
            lambda h, c=c: eq_c(c, h),
            memoize=memoize, deadline=deadline,
        )
        machines[c] = res.machine
        tables[c] = res.table
        eq_calls += res.eq_calls
        max_cex = max(max_cex, res.max_cex_length)
    mmn = Mmn(sul.network, machines, check=False)
    return LearnedSystem(
        "cwl", mmn=mmn, seed=sul.eq_config.seed,
        eq_calls=eq_calls, max_cex_length=max_cex,
        n_states=sum(m.n_states for m in machines.values()),
        n_transitions=sum(m.n_transitions() for m in machines.values()),
        tables=tables,
    )


# -- contextual componentwise ------------------------------------------------


def assemble(sul: Sul, tables: dict[NodeId, ObservationTable]) -> Mmn:
    """Hypothesis MMN: per-component hypothesis machines on the SUL network."""
    return Mmn(
        sul.network, {c: tables[c].hypothesis() for c in sul.components}, check=False
    )


def resolve_depth(params: CaParams, tables: dict[NodeId, ObservationTable]) -> Optional[int]:
    """Concrete BFS depth bound for this round; None means unbounded."""
    if params.bound == BOUND_INF:
        return None
    if params.bound == BOUND_DEPTH:
        return params.depth
    sizes = [len({t.row(s) for s in t.S}) for t in tables.values()]
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
) -> set[tuple[NodeId, Word, int]]:
    """Contextual completion rule.

    Runs (depth-bounded) BFS over configurations and, for every visited
    configuration, emits per component every input character the component
    can receive there, paired with the access string of every row its state
    stands for.  With the ``eq`` abstraction the walk runs on the
    deterministic hypothesis directly; ``eqk`` and ``uni`` walk the quotient
    of the hypothesis MMN under the abstraction.  Only the quotient walk
    enumerates output sets, so only there is that enumeration capped:
    exceeding ``OUTPUT_CAP`` at one configuration aborts with a diagnostic
    instead of dropping tuples.
    """
    depth = resolve_depth(params, tables)
    if params.abstraction == ABS_EQ:
        return _walk_deterministic(hypothesis, tables, depth)
    partitions = {
        c: _partition_for(params, hypothesis.machines[c])
        for c in hypothesis.components
    }
    return _walk_quotient(
        hypothesis.quotient_mmn(partitions), partitions, tables, depth
    )


def _walk_deterministic(
    hypothesis: Mmn,
    tables: dict[NodeId, ObservationTable],
    depth: Optional[int],
) -> set[tuple[NodeId, Word, int]]:
    """Context analysis on a deterministic hypothesis, one pass per
    configuration.

    A component's input character is the sum of a part read from the system
    input and a part read from the other components' current outputs (its
    base).  Per component state and base, the characters for every system
    input and the states they lead to are computed once; the characters are
    what the state receives, the states step the configuration.  A
    configuration has no successor on a system input on which some
    component has no transition.  The last level is recorded but not
    expanded.
    """
    sys_parts, feeds, transitions = zip(*hypothesis._wiring)
    outputs = hypothesis._outputs_by_comp
    # moves[k][q]: base -> successor of component k's state q per system
    # input (None where undefined); its keys are the bases q receives.
    moves = [[{} for _ in trans] for trans in transitions]

    start = hypothesis.initial_configuration()
    seen = {start}
    frontier = [start]
    level = 0
    while frontier:
        expand = depth is None or level < depth
        nxt = []
        for cfg in frontier:
            outs = [o[q] for o, q in zip(outputs, cfg)]
            targets = []
            for k, q in enumerate(cfg):
                base = 0
                for src, stride, size, tstride in feeds[k]:
                    base += ((outs[src] // stride) % size) * tstride
                known = moves[k][q]
                t = known.get(base)
                if t is None:
                    row = transitions[k][q]
                    t = known[base] = [row.get(base + p) for p in sys_parts[k]]
                targets.append(t)
            if expand:
                for succ in zip(*targets):
                    if None not in succ and succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        if not expand:
            break
        frontier = nxt
        level += 1

    emitted: set[tuple[NodeId, Word, int]] = set()
    for k, c in enumerate(hypothesis.components):
        access = tables[c].access_strings()
        for q, known in enumerate(moves[k]):
            s = access[q]
            emitted.update((c, s, b + p) for b in known for p in sys_parts[k])
    return emitted


def _walk_quotient(
    quotient: Mmn,
    partitions: dict[NodeId, StatePartition],
    tables: dict[NodeId, ObservationTable],
    depth: Optional[int],
) -> set[tuple[NodeId, Word, int]]:
    """Context analysis on a prebuilt quotient of the hypothesis MMN.

    Emits, per visited abstract configuration and component, every input
    character the component can receive, paired with the access string of
    every concrete row in the abstract class.
    """
    comps = quotient.components
    sys_in = list(quotient.system_inputs)

    # Access strings of concrete hypothesis states, grouped by abstract block.
    rows_in_block: dict[NodeId, dict[int, list[Word]]] = {}
    for c in comps:
        groups: dict[int, list[Word]] = {}
        for q, s in enumerate(tables[c].access_strings()):
            groups.setdefault(partitions[c].block_of[q], []).append(s)
        rows_in_block[c] = groups

    emitted: set[tuple[NodeId, Word, int]] = set()
    start_configs = quotient.initial_configurations()
    seen = set(start_configs)
    frontier = list(start_configs)
    level = 0
    while frontier:
        for cfg in frontier:
            out_sets = quotient.total_output_sets(cfg)
            combos = 1
            for outs in out_sets:
                combos *= len(outs)
            if combos > OUTPUT_CAP:
                raise CaBlowupError(
                    "context analysis would enumerate %d output tuples at one "
                    "configuration (cap %d)" % (combos, OUTPUT_CAP)
                )
            for k, c in enumerate(comps):
                inputs = quotient._possible_inputs(c, sys_in, out_sets)
                for s in rows_in_block[c][cfg[k]]:
                    for i_c in inputs:
                        emitted.add((c, s, i_c))
        if depth is not None and level >= depth:
            break
        nxt = []
        for cfg in frontier:
            for i in sys_in:
                for succ in quotient.nd_system_transition(cfg, i):
                    if succ not in seen:
                        seen.add(succ)
                        nxt.append(succ)
        frontier = nxt
        level += 1
    return emitted


def analyze_cex_componentwise(
    hypothesis: Mmn,
    word: Word,
    sul: Sul,
    tables: dict[NodeId, ObservationTable],
    caches: dict[NodeId, OqCache],
    event_log: Optional[list[str]] = None,
) -> None:
    """Extended counterexample analysis (valid for sound and unsound CA).

    If the hypothesis system machine falls off along the word, the first
    undefined tick names a component and an input character whose row is
    missing: add it.  Otherwise some component's total-output trace
    disagrees with the hypothesis simulation; rebuild that component's
    local input word from the observed total outputs and delegate to the
    suffix-based analyzer.  Several candidates tie-break by component order.
    """
    comps = hypothesis.components
    configs = hypothesis.trajectory(word)

    if len(configs) <= len(word):
        config, sys_in = configs[-1], word[len(configs) - 1]
        outs = hypothesis.total_output(config)
        for k, c in enumerate(comps):
            i_c = hypothesis.component_input(c, sys_in, outs)
            if hypothesis.machines[c].transitions[config[k]].get(i_c) is None:
                s = tables[c].access_strings()[config[k]]
                tables[c].add_extension(s + (i_c,))
                if event_log is not None:
                    event_log.append("cex missing-transition c=%s" % c)
                return
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
            if event_log is not None:
                event_log.append("cex wrong-output c=%s tick=%d" % (c, t))
            analyze_cex(
                hypothesis.machines[c], local, caches[c], tables[c]
            )
            return
    raise SpuriousCounterexampleError(
        "counterexample shows no difference in total outputs"
    )


def ccwl(
    sul: Sul,
    params: CaParams,
    memoize: bool = True,
    deadline: Optional[float] = None,
    eq=None,
    event_log: Optional[list[str]] = None,
) -> LearnedSystem:
    """Contextual componentwise L* (component OQs + system-level EQs)."""
    eq = eq or sul.eq
    caches: dict[NodeId, OqCache] = {}
    tables: dict[NodeId, ObservationTable] = {}
    for c in sul.components:
        cache = OqCache(lambda w, c=c: sul.oq_c(c, w), enabled=memoize)
        caches[c] = cache
        tables[c] = ObservationTable(
            sul.component_input_alphabet(c),
            sul.component_output_alphabet(c),
            cache.last,
        )
    eq_calls = 0
    max_cex = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise LearningTimeout("learning budget exceeded", partial=tables)
        for c in sul.components:
            tables[c].close()
        hypothesis = assemble(sul, tables)
        proposals = one_ext_er(hypothesis, params, tables)
        missing = sorted(
            (c, s, i) for (c, s, i) in proposals if s + (i,) not in tables[c]
        )
        if event_log is not None:
            event_log.append(
                "round proposals=%d new=%d" % (len(proposals), len(missing))
            )
        if missing:
            for c, s, i in missing:
                tables[c].add_extension(s + (i,))
            continue
        eq_calls += 1
        if event_log is not None:
            event_log.append("eq issued n=%d" % eq_calls)
        verdict = eq(InducedMoore(hypothesis))
        if verdict is True:
            if event_log is not None:
                event_log.append("eq yes after %d queries" % eq_calls)
            return LearnedSystem(
                "ccwl", mmn=hypothesis, ca_params=params,
                seed=sul.eq_config.seed, eq_calls=eq_calls,
                max_cex_length=max_cex,
                n_states=sum(m.n_states for m in hypothesis.machines.values()),
                n_transitions=sum(
                    m.n_transitions() for m in hypothesis.machines.values()
                ),
                tables=tables,
                events=event_log,
            )
        max_cex = max(max_cex, len(verdict.word))
        if event_log is not None:
            event_log.append("eq cex len=%d" % len(verdict.word))
        analyze_cex_componentwise(
            hypothesis, verdict.word, sul, tables, caches, event_log
        )

"""Query oracles over a hidden MMN.

The harness holds the MMN white-box, but learners only ever see the network
shape (which is a declared problem input) and the oracle methods below.
Every oracle call updates the reset/step counters before returning, split
by query kind (OQ vs EQ) and level (system vs per component).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

from .alphabet import AlphabetError
from .machine import Counterexample, EQUIVALENT, Word, equivalent
from .network import InducedMoore, Mmn, NodeId


class OracleContractError(RuntimeError):
    """A total output query fell off a partial SUL component.

    Learning assumes SUL components complete over their declared input
    alphabets; simulation-only workflows may still use partial machines.
    """


@dataclass
class EqTestConfig:
    """Random-testing equivalence queries: how many words, how long."""

    words_per_eq: int = 100
    word_length: int = 260
    seed: int = 0

    def __post_init__(self):
        if self.words_per_eq < 1 or self.word_length < 1:
            raise ValueError("words_per_eq and word_length must be >= 1")


@dataclass
class QueryStats:
    oq_resets: int = 0
    oq_steps: int = 0
    eq_count: int = 0
    eq_resets: int = 0
    eq_steps: int = 0
    system_oq_resets: int = 0
    system_oq_steps: int = 0
    component_oq_resets: int = 0
    component_oq_steps: int = 0
    system_eq_count: int = 0
    component_eq_count: int = 0
    per_component: dict[NodeId, list[int]] = field(default_factory=dict)  # [resets, steps]

    def _oq(self, level: Optional[NodeId], steps: int, resets: int = 1) -> None:
        self.oq_resets += resets
        self.oq_steps += steps
        if level is None:
            self.system_oq_resets += resets
            self.system_oq_steps += steps
        else:
            self.component_oq_resets += resets
            self.component_oq_steps += steps
            cell = self.per_component.setdefault(level, [0, 0])
            cell[0] += resets
            cell[1] += steps

    def snapshot(self) -> dict:
        return {
            "oq_resets": self.oq_resets,
            "oq_steps": self.oq_steps,
            "eq_count": self.eq_count,
            "eq_resets": self.eq_resets,
            "eq_steps": self.eq_steps,
            "system_oq_resets": self.system_oq_resets,
            "system_oq_steps": self.system_oq_steps,
            "component_oq_resets": self.component_oq_resets,
            "component_oq_steps": self.component_oq_steps,
        }


class Sul:
    """System under learning: a hidden MMN behind query oracles.

    One instance per worker; calls on one instance mutate its counters and
    must not be interleaved across threads.
    """

    def __init__(
        self,
        mmn: Mmn,
        eq_config: Optional[EqTestConfig] = None,
        query_log: Optional[TextIO] = None,
    ):
        if not mmn.is_deterministic:
            raise ValueError("SUL must be deterministic")
        self._mmn = mmn
        self._induced = InducedMoore(mmn)
        self.network = mmn.network  # problem input, visible to learners
        self.components = list(mmn.components)
        self.system_inputs = mmn.system_inputs
        self.system_outputs = mmn.system_outputs
        self.eq_config = eq_config or EqTestConfig()
        self._rng = random.Random(self.eq_config.seed)
        self.stats = QueryStats()
        self.oracle_seconds = 0.0
        self.contract_violations = 0
        self._log = query_log

    def component_input_alphabet(self, c: NodeId):
        return self._mmn.machines[c].input_alphabet

    def component_output_alphabet(self, c: NodeId):
        return self._mmn.machines[c].output_alphabet

    def _logline(self, kind: str, level: str, wlen: int, rlen: int) -> None:
        if self._log is not None:
            self._log.write("%s %s %d %d\n" % (kind, level, wlen, rlen))

    # -- output queries ------------------------------------------------------

    def oq(self, word: Sequence[int]) -> Word:
        """System-level output query: full output trace from the initial
        configuration.  One reset plus one step per character."""
        t0 = time.perf_counter()
        for i in word:
            if i not in self.system_inputs:
                raise AlphabetError("input symbol %d not in system alphabet" % i)
        self.stats._oq(None, len(word))
        out = self._induced.semantics(word)
        self._logline("oq", "system", len(word), len(out))
        self.oracle_seconds += time.perf_counter() - t0
        return out

    def oq_c(self, c: NodeId, word: Sequence[int]) -> Word:
        """Component-level output query against component ``c`` alone.

        A word falling off a partial component returns the truncated trace
        and bumps ``contract_violations``: learning declares completeness
        over the component alphabets, so truncation is worth flagging, but
        the caller decides whether it matters.
        """
        t0 = time.perf_counter()
        m = self._mmn.machines[c]
        self.stats._oq(c, len(word))
        out = m.semantics(word)
        if len(out) != len(word) + 1:
            self.contract_violations += 1
            self._logline("oq-truncated", str(c), len(word), len(out))
        else:
            self._logline("oq", str(c), len(word), len(out))
        self.oracle_seconds += time.perf_counter() - t0
        return out

    def oq_bar(self, word: Sequence[int]) -> list[tuple[int, ...]]:
        """Total output query: per-component output symbols at every tick.

        Computed from one tick-driven run per component (a component's input
        at tick t depends only on outputs at tick t, thanks to the Moore
        delay), so it charges ``|V^c|`` resets and ``|V^c| * len(word)``
        steps at the component level.
        """
        t0 = time.perf_counter()
        for c in self.components:
            self.stats._oq(c, len(word))
        mmn = self._mmn
        config = mmn.initial_configuration()
        trace = [mmn.total_output(config)]
        for sys_in in word:
            nxt = mmn.system_transition(config, sys_in)
            if nxt is None:
                raise OracleContractError(
                    "total output query fell off a partial component"
                )
            config = nxt
            trace.append(mmn.total_output(config))
        self._logline("oq_bar", "component", len(word), len(trace))
        self.oracle_seconds += time.perf_counter() - t0
        return trace

    # -- equivalence queries ---------------------------------------------------

    def eq(self, hypothesis) -> "Counterexample | bool":
        """Random-word testing against the hypothesis system machine.

        Draws up to ``words_per_eq`` uniform words of ``word_length`` and
        returns the first word whose SUL output differs from the hypothesis
        output (missing transitions in the hypothesis truncate its output
        and count as differences).
        """
        t0 = time.perf_counter()
        self.stats.eq_count += 1
        self.stats.system_eq_count += 1
        cfg = self.eq_config
        n_in = len(self.system_inputs)
        result = EQUIVALENT
        for _ in range(cfg.words_per_eq):
            word = tuple(self._rng.randrange(n_in) for _ in range(cfg.word_length))
            self.stats.eq_resets += 1
            self.stats.eq_steps += len(word)
            if self._induced.semantics(word) != hypothesis.semantics(word):
                result = Counterexample(word)
                break
        self._logline("eq", "system", cfg.word_length, 0)
        self.oracle_seconds += time.perf_counter() - t0
        return result

    def eq_c(self, c: NodeId, hypothesis) -> "Counterexample | bool":
        """Component-level testing EQ over the component's own alphabet."""
        t0 = time.perf_counter()
        self.stats.eq_count += 1
        self.stats.component_eq_count += 1
        cfg = self.eq_config
        m = self._mmn.machines[c]
        n_in = len(m.input_alphabet)
        result = EQUIVALENT
        for _ in range(cfg.words_per_eq):
            word = tuple(self._rng.randrange(n_in) for _ in range(cfg.word_length))
            self.stats.eq_resets += 1
            self.stats.eq_steps += len(word)
            if m.semantics(word) != hypothesis.semantics(word):
                result = Counterexample(word)
                break
        self._logline("eq", str(c), cfg.word_length, 0)
        self.oracle_seconds += time.perf_counter() - t0
        return result

    # -- exact validation (not charged) ---------------------------------------

    def validate_exact(self, learned) -> "Counterexample | bool":
        """Exact product-BFS equivalence between the learned system and the
        SUL's induced machine.  Not charged to the query counters."""
        if isinstance(learned, Mmn):
            learned = InducedMoore(learned)
        return equivalent(learned, InducedMoore(self._mmn))

    # -- exact equivalence used in place of testing EQs ------------------------

    def exact_eq(self, hypothesis) -> "Counterexample | bool":
        """System-level EQ answered by exact equivalence checking.

        Counts as one EQ (no resets/steps: no words are executed).  Useful
        for regression runs where probabilistic EQs would add noise.
        """
        self.stats.eq_count += 1
        self.stats.system_eq_count += 1
        return equivalent(hypothesis, InducedMoore(self._mmn))

    def exact_eq_c(self, c: NodeId, hypothesis) -> "Counterexample | bool":
        """Component-level analogue of :meth:`exact_eq`."""
        self.stats.eq_count += 1
        self.stats.component_eq_count += 1
        return equivalent(hypothesis, self._mmn.machines[c])

"""The L*-style learning loop shared by all three system-level algorithms.

The loop alternates closing the table, completing it with 1-step extensions
proposed by a pluggable rule, and asking equivalence queries.  Counterexample
handling adds a distinguishing *suffix* found by binary search over the
split position, which keeps S rows pairwise distinct (no consistency check
is ever needed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .alphabet import Alphabet
from .machine import Counterexample, DetMoore, Word
from .table import ObservationTable, SpuriousCounterexampleError


class LearningTimeout(RuntimeError):
    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class OqCache:
    """Per-learner memo of last output characters, keyed by query word.

    Cache hits never reach the oracle, so repeat lookups do not inflate the
    reset/step counters.  Disable to measure the raw query cost.
    """

    oq: Callable[[Word], tuple]
    enabled: bool = True
    _seen: dict[Word, int] = field(default_factory=dict)

    def last(self, word: Word) -> int:
        if not self.enabled:
            return self.oq(word)[-1]
        v = self._seen.get(word)
        if v is None:
            v = self.oq(word)[-1]
            self._seen[word] = v
        return v


def one_ext_lstar(table: ObservationTable) -> list[tuple[Word, int]]:
    """Classic completion rule: every hypothesis access string times every
    input character."""
    return [(s, i) for s in table.access_strings() for i in table.input_alphabet]


def analyze_cex(
    hypothesis: DetMoore,
    word: Word,
    cache: OqCache,
    table: ObservationTable,
) -> None:
    """Add a distinguishing suffix derived from a genuine counterexample.

    Finds the decomposition w = s·i·d with
    ``last(OQ(t·i·d)) != last(OQ(t'·d))`` for the access strings t, t' of
    the hypothesis states before/after the split, then extends E with d and
    fills the new column.  The split index is located by bisection with
    ties broken toward shorter suffixes, using O(log |w|) output queries.
    """
    response = cache.oq(word)
    predicted = hypothesis.semantics(word)
    limit = min(len(response), len(predicted))
    first_diff = None
    for j in range(limit):
        if response[j] != predicted[j]:
            first_diff = j
            break
    if first_diff is None:
        # No output difference inside the common prefix: nothing a suffix
        # could distinguish.  Hypothesis-side truncation is the
        # componentwise analyzer's job (plain L* keeps hypotheses complete);
        # target-side truncation means the oracle's machine is partial,
        # which the learning contract excludes.
        if len(response) < len(predicted):
            raise SpuriousCounterexampleError(
                "output query truncated before the hypothesis did: the "
                "target is partial over this alphabet, which table-based "
                "learning cannot represent"
            )
        raise SpuriousCounterexampleError(
            "counterexample shows no output difference on re-query"
        )
    if first_diff == 0:
        raise SpuriousCounterexampleError(
            "counterexample differs at the initial output; tables cannot"
        )
    w = word[:first_diff]

    access = table.access_strings()
    state_access = {q: s for q, s in enumerate(access)}

    path = [hypothesis.initial]
    for ch in w:
        nxt = hypothesis.step(path[-1], ch)
        assert nxt is not None, "cex path must stay inside the defined part"
        path.append(nxt)

    probes: dict[int, int] = {}

    def probe(k: int) -> int:
        v = probes.get(k)
        if v is None:
            v = cache.last(state_access[path[k]] + w[k:])
            probes[k] = v
        return v

    lo, hi = 0, len(w)
    if probe(lo) == probe(hi):
        raise SpuriousCounterexampleError("no valid split position exists")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) != probe(hi):
            lo = mid  # a split still lies in the upper half: prefer it
        else:
            hi = mid
    d = w[lo + 1 :]
    assert d and d not in table.E
    table.add_suffix(d)


@dataclass
class LstarResult:
    machine: DetMoore
    table: ObservationTable
    eq_calls: int
    max_cex_length: int


def lstar(
    input_alphabet: Alphabet,
    output_alphabet: Alphabet,
    oq: Callable[[Word], tuple],
    eq: Callable[[DetMoore], "Counterexample | bool"],
    memoize: bool = True,
    deadline: Optional[float] = None,
) -> LstarResult:
    """Learn a Moore machine from output and equivalence oracles."""
    cache = OqCache(oq, enabled=memoize)
    table = ObservationTable(input_alphabet, output_alphabet, cache.last)
    eq_calls = 0
    max_cex = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise LearningTimeout("learning budget exceeded", partial=table)
        table.close()
        hypothesis = table.hypothesis()
        missing = [
            (s, i) for (s, i) in one_ext_lstar(table) if s + (i,) not in table
        ]
        if missing:
            for s, i in missing:
                table.add_extension(s + (i,))
            continue
        eq_calls += 1
        verdict = eq(hypothesis)
        if verdict is True:
            return LstarResult(hypothesis, table, eq_calls, max_cex)
        max_cex = max(max_cex, len(verdict.word))
        analyze_cex(hypothesis, verdict.word, cache, table)

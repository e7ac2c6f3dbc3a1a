"""The L*-style learning loop for one Moore machine.

``mnl`` runs it on the whole system and ``cwl`` once per component;
``ccwl`` runs its own loop over all component tables (``componentwise``)
and shares only this module's cache and counterexample analyzer.  The
loop alternates closing the table, completing it with the 1-step
extensions of every new S row (one ``add_extension`` batch), and asking
equivalence queries.
Counterexample handling adds a distinguishing *suffix* found by binary
search over the split position, which keeps S rows pairwise distinct (no
consistency check is ever needed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .alphabet import Alphabet
from .machine import Counterexample, DetMoore, Word
from .table import ObservationTable, SpuriousCounterexampleError


class LearningTimeout(RuntimeError):
    """The learner passed its deadline."""


@dataclass
class OqCache:
    """Per-learner memo of last output characters, keyed by query word,
    answered by the batch oracle ``oq_lasts`` (``oq(w)[-1]`` per word, each
    charged like ``oq(w)``); ``oq`` serves the analyzer's full traces.  Hits
    never reach the oracle, so repeats are not charged.  Tables always read
    ``lasts``, which memoises also when disabled; a disabled cache only
    charges every ``last`` (the analyzer's probes)."""

    oq: Callable[[Word], tuple]
    oq_lasts: Callable[[Sequence[Word]], list[int]]
    enabled: bool = True
    _seen: dict[Word, int] = field(default_factory=dict)

    def last(self, word: Word) -> int:
        """One word's last output: the analyzer's split probes."""
        return (self.lasts if self.enabled else self.oq_lasts)((word,))[0]

    def lasts(self, words: Sequence[Word]) -> list[int]:
        """Last outputs of ``words``; the unseen ones asked in one batch, each once."""
        seen = self._seen
        new = {w: None for w in words if w not in seen}
        if new:
            seen.update(zip(new, self.oq_lasts(list(new))))
        return [seen[w] for w in words]


def one_ext_lstar(table: ObservationTable, start: int = 0) -> list[tuple[Word, int]]:
    """Classic completion rule: every hypothesis access string from
    ``S[start]`` on times every input character."""
    return [(s, i) for s in table.S[start:] for i in table.input_alphabet]


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
    first_diff = next((j for j in range(limit) if response[j] != predicted[j]), None)
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

    path = [hypothesis.initial]
    for ch in w:
        nxt = hypothesis.step(path[-1], ch)
        assert nxt is not None, "cex path must stay inside the defined part"
        path.append(nxt)

    def probe(k: int) -> int:
        return cache.last(table.S[path[k]] + w[k:])

    # ``hi`` moves only to a ``mid`` answering ``top``: one query per position.
    lo, hi = 0, len(w)
    if probe(lo) == (top := probe(hi)):
        raise SpuriousCounterexampleError("no valid split position exists")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) != top:
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
    max_cex_length: int


def lstar(
    input_alphabet: Alphabet,
    output_alphabet: Alphabet,
    oq: Callable[[Word], tuple],
    oq_lasts: Callable[[Sequence[Word]], list[int]],
    eq: Callable[[DetMoore], "Counterexample | bool"],
    memoize: bool = True,
    deadline: Optional[float] = None,
) -> LstarResult:
    """Learn a Moore machine from output and equivalence oracles;
    ``oq_lasts(ws)`` must be ``[oq(w)[-1] for w in ws]`` (see :class:`OqCache`).

    With ``memoize`` one cache serves the table and the counterexample
    analyzer, so no word is asked twice.  Without it the table still never
    asks one word twice, but every analyzer probe is charged.
    """
    cache = OqCache(oq, oq_lasts, enabled=memoize)
    table = ObservationTable(input_alphabet, output_alphabet, cache.lasts)
    max_cex = 0
    # S only grows and no row is ever removed, so only the states that
    # ``close`` appended since the last scan can lack extensions.
    scanned = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise LearningTimeout("learning budget exceeded")
        table.close()
        missing = [u for s, i in one_ext_lstar(table, scanned) if (u := s + (i,)) not in table]
        scanned = len(table.S)
        if missing:
            table.add_extension(*missing)
            continue
        hypothesis = table.hypothesis()
        verdict = eq(hypothesis)
        if verdict is True:
            return LstarResult(hypothesis, table, max_cex)
        max_cex = max(max_cex, len(verdict.word))
        analyze_cex(hypothesis, verdict.word, cache, table)

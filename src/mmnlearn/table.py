"""Observation tables for L*-style Moore machine learning."""

from __future__ import annotations

from typing import Callable

from .alphabet import Alphabet
from .machine import DetMoore, Word


class SpuriousCounterexampleError(RuntimeError):
    """A reported counterexample showed no difference on re-query.

    Surfaced to the caller because it signals a broken EQ oracle, not a
    learner bug.
    """


class ObservationTable:
    """The (S, R, E, T) structure.

    S: prefixes (access strings), R: 1-step extensions, E: suffixes,
    T: full entry map (S u R)·E -> output character.  Both S and E always
    contain the empty word.  Entries hold the character observed *after*
    feeding the whole word, i.e. the last character of the output trace.
    """

    def __init__(self, input_alphabet: Alphabet, output_alphabet: Alphabet,
                 oq_last: Callable[[Word], int]):
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self._oq_last = oq_last
        self.S: list[Word] = [()]
        self.R: list[Word] = []
        self._members: set[Word] = {()}
        self.E: list[Word] = [()]
        self.T: dict[Word, int] = {}
        self._row_cache: dict[Word, tuple[int, ...]] = {}
        self._hypothesis: DetMoore | None = None  # valid until S, R or E change
        self.fill(())

    def __contains__(self, word: Word) -> bool:
        return word in self._members

    def fill(self, prefix: Word) -> None:
        """Query any missing entries in the row of ``prefix``."""
        for e in self.E:
            w = prefix + e
            if w not in self.T:
                self.T[w] = self._oq_last(w)
        self._row_cache.pop(prefix, None)

    def row(self, prefix: Word) -> tuple[int, ...]:
        r = self._row_cache.get(prefix)
        if r is None:
            r = tuple(self.T[prefix + e] for e in self.E)
            self._row_cache[prefix] = r
        return r

    def add_extension(self, prefix: Word) -> None:
        assert prefix not in self._members
        self.R.append(prefix)
        self._members.add(prefix)
        self._hypothesis = None
        self.fill(prefix)

    def add_suffix(self, suffix: Word) -> None:
        assert suffix not in self.E
        self.E.append(suffix)
        self._row_cache.clear()
        self._hypothesis = None
        for u in self.S:
            self.fill(u)
        for u in self.R:
            self.fill(u)

    def close(self) -> None:
        """Move unmatched rows from R to S until closed.

        One scan of R in insertion order suffices: S only grows, so a row
        matched once stays matched.
        """
        s_rows = {self.row(s) for s in self.S}
        matched = []
        for r in self.R:
            row = self.row(r)
            if row in s_rows:
                matched.append(r)
            else:
                s_rows.add(row)
                self.S.append(r)
                self._hypothesis = None
        self.R = matched

    def hypothesis(self) -> DetMoore:
        """Hypothesis machine from a closed table.

        States are the (pairwise distinct) S rows; the transition on
        (row(s), i) is defined exactly when s·i is in the table.  The
        machine is immutable, so it is built once and shared until the table
        changes.
        """
        if self._hypothesis is None:
            self._hypothesis = self._build_hypothesis()
        return self._hypothesis

    def _build_hypothesis(self) -> DetMoore:
        state_of: dict[tuple[int, ...], int] = {}
        access: list[Word] = []
        for s in self.S:
            r = self.row(s)
            assert r not in state_of, "S rows must stay pairwise distinct"
            state_of[r] = len(access)
            access.append(s)
        transitions: list[dict[int, int]] = [dict() for _ in access]
        for q, s in enumerate(access):
            for i in self.input_alphabet:
                si = s + (i,)
                if si in self._members:
                    transitions[q][i] = state_of[self.row(si)]
        outputs = tuple(self.T[s] for s in access)
        return DetMoore(
            self.input_alphabet, self.output_alphabet,
            len(access), state_of[self.row(())],
            tuple(transitions), outputs,
        )

    def access_strings(self) -> list[Word]:
        return list(self.S)

    def dump(self) -> str:
        """Human-readable rows-by-columns dump for debugging/golden tests."""
        ia, oa = self.input_alphabet, self.output_alphabet
        head = ["prefix"] + ["·".join(ia.name(x) for x in e) or "ε" for e in self.E]
        lines = ["\t".join(head)]
        for part, words in (("S", self.S), ("R", self.R)):
            for u in words:
                label = "·".join(ia.name(x) for x in u) or "ε"
                cells = [oa.name(self.T[u + e]) for e in self.E]
                lines.append("\t".join(["%s %s" % (part, label)] + cells))
        return "\n".join(lines) + "\n"

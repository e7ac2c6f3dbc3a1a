"""Observation tables for L*-style Moore machine learning."""

from __future__ import annotations

from typing import Callable, Sequence

from .alphabet import Alphabet
from .machine import DetMoore, MooreError, Word


class SpuriousCounterexampleError(RuntimeError):
    """A reported counterexample showed no difference on re-query.

    Surfaced to the caller because it signals a broken EQ oracle, not a
    learner bug.
    """


class ObservationTable:
    """Rows of prefixes over suffixes: S (access strings, S[0] the empty
    word), R (1-step extensions) and E (suffixes, E[0] the empty word).

    Rows live in one map S u R -> tuple over E; the cell of u and e is the
    last output character of u·e.  One index, rebuilt per epoch (between
    two ``add_suffix`` calls), maps each S row to its state id: ``close``
    matches R against it and ``hypothesis`` reads it.  Cells are asked of
    the batch oracle ``oq_lasts``: one batch per ``add_extension`` (all its
    rows) and one per ``add_suffix`` (the new column).  Cells of different
    rows may name the same word, so ``oq_lasts`` should memoize.

    Data is checked as it enters, so hypotheses need no whole-machine check:
    a cell that is no output symbol, or an extension that does not end in an
    input symbol, raises ``MooreError``.
    """

    def __init__(self, input_alphabet: Alphabet, output_alphabet: Alphabet,
                 oq_lasts: Callable[[Sequence[Word]], Sequence[int]]):
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self._oq_lasts = oq_lasts
        self.S: list[Word] = [()]
        self.R: list[Word] = []
        self.E: list[Word] = [()]
        self._rows: dict[Word, tuple[int, ...]] = {(): tuple(self._cells([()]))}
        self._hypothesis: DetMoore | None = None  # valid until S, R or E change
        self._new_epoch()

    def _new_epoch(self) -> None:
        """Index the filled S rows (row -> state id, the index in S); no R
        row is scanned yet, and the epoch's first build reads all moves."""
        rows = self._rows
        self._state_of: dict[tuple[int, ...], int] = {rows[s]: q for q, s in enumerate(self.S)}
        assert len(self._state_of) == len(self.S), "S rows must stay pairwise distinct"
        self._scanned = 0
        self._moves: list[dict[int, int]] = []
        self._added: list[Word] = []

    def _cells(self, words: Sequence[Word], ends: Sequence[int] = ()) -> Sequence[int]:
        """``oq_lasts(words)``, checked against the output alphabet, and
        ``ends`` (extensions' last symbols) against the input alphabet."""
        cells = self._oq_lasts(words)
        for syms, alphabet in ((cells, self.output_alphabet), (ends, self.input_alphabet)):
            if syms and (min(syms) < 0 or max(syms) >= len(alphabet)):
                raise MooreError("symbol not in alphabet %r: %r" % (alphabet, syms))
        return cells

    def __contains__(self, word: Word) -> bool:
        return word in self._rows

    def row(self, prefix: Word) -> tuple[int, ...]:
        return self._rows[prefix]

    def add_extension(self, *prefixes: Word) -> None:
        """Add ``prefixes`` to R, their cells asked in one batch."""
        rows, E, before = self._rows, self.E, len(self._rows)
        cells = self._cells([u + e for u in prefixes for e in E], [u[-1] for u in prefixes])
        # zip over |E| references to one iterator cuts the cells into rows.
        rows.update(zip(prefixes, zip(*[iter(cells)] * len(E))))
        assert len(rows) == before + len(prefixes), "prefixes must be new and distinct"
        self.R += prefixes
        self._hypothesis = None
        if self._moves:
            self._added += prefixes

    def add_suffix(self, suffix: Word) -> None:
        """Add ``suffix`` to E, its column asked in one batch."""
        assert suffix not in self.E
        self.E.append(suffix)
        self._hypothesis = None
        rows, words = self._rows, self.S + self.R
        for u, cell in zip(words, self._cells([u + suffix for u in words])):
            rows[u] += (cell,)
        self._new_epoch()

    def close(self) -> None:
        """Move unmatched rows from R to S until closed.

        Scans only the R rows added since the last scan, as within an epoch
        a matched row stays matched; each promoted row joins the row index.
        """
        R, done, rows, state_of, S = self.R, self._scanned, self._rows, self._state_of, self.S
        matched = []
        for r in R[done:]:
            row = rows[r]
            if row in state_of:
                matched.append(r)
            else:
                state_of[row] = len(S)
                S.append(r)
                self._hypothesis = None
        R[done:] = matched
        self._scanned = len(R)

    def hypothesis(self) -> DetMoore:
        """Hypothesis machine from a closed table.

        States are the (pairwise distinct) S rows, numbered by position in
        S as the row index holds them; the transition on (row(s), i) is
        defined exactly when s·i is in the table.  Between two
        ``add_suffix`` calls (an *epoch*) states, outputs and transitions
        only accrue, so a build adds just the new ones.  The machine is a
        fresh immutable copy, shared until the table changes, and built
        without ``DetMoore``'s whole-machine check: its outputs are checked
        cells and its moves checked extensions.
        """
        if self._hypothesis is None:
            rows, S, state_of, moves = self._rows, self.S, self._state_of, self._moves
            built = len(moves)
            moves += ({} for _ in S[built:])
            for w in self._added:  # new moves of the states built before
                q = state_of.get(rows.get(w[:-1]), built)
                if q < built and S[q] == w[:-1]:
                    moves[q][w[-1]] = state_of[rows[w]]
            self._added = []
            for q in range(built, len(S)):  # every move of the new states
                for i in self.input_alphabet:
                    r = rows.get(S[q] + (i,))
                    if r is not None:
                        moves[q][i] = state_of[r]
            self._hypothesis = DetMoore(
                self.input_alphabet, self.output_alphabet, len(moves), 0,
                tuple(m.copy() for m in moves), tuple(rows[s][0] for s in S),
                check=False,
            )
        return self._hypothesis

    def dump(self) -> str:
        """Human-readable rows-by-columns dump for debugging/golden tests."""
        ia, oa = self.input_alphabet, self.output_alphabet
        head = ["prefix"] + ["·".join(ia.name(x) for x in e) or "ε" for e in self.E]
        lines = ["\t".join(head)]
        for part, words in (("S", self.S), ("R", self.R)):
            for u in words:
                label = "·".join(ia.name(x) for x in u) or "ε"
                cells = [oa.name(c) for c in self._rows[u]]
                lines.append("\t".join(["%s %s" % (part, label)] + cells))
        return "\n".join(lines) + "\n"

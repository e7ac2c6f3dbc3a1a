"""Query oracles over a hidden MMN.

The harness holds the MMN white-box, but learners only ever see the network
shape (which is a declared problem input) and the oracle methods below.
Every charged oracle call updates ``QueryStats`` once its word has been
accepted: OQ resets and steps, or EQ count, resets and steps.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .machine import Counterexample, EQUIVALENT, Word, equivalent
from .network import InducedMoore, Mmn, NodeId


def random_word(rng: random.Random, n: int, length: int) -> Word:
    """``tuple(rng.randrange(n) for _ in range(length))``, drawn in bulk.

    ``randrange(n)`` keeps the top ``n.bit_length()`` bits of a 32-bit
    generator output and redraws while they are ``>= n``.  For ``n <= 255``
    those bits lie in the top byte, so the missing symbols are drawn at once
    with ``getrandbits(32 * need)`` (outputs least significant first) and the
    top bytes are rejected and mapped in C.  No batch draws more outputs than
    symbols still missing, so the word and the generator state equal those
    of the per-symbol draws, which finish a short tail and every ``n > 255``.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    head = b""
    need = length
    if k <= 8:
        table, delete = _byte_tables(n)
        while need > 4:
            got = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            got = got.translate(table, delete)
            head += got
            need -= len(got)
    tail = []
    for _ in range(need):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        tail.append(r)
    return (*head, *tail)


@lru_cache(maxsize=None)
def _byte_tables(n: int) -> tuple[bytes, bytes]:
    """``random_word``'s map from a top byte to its symbol below ``n``
    (``n <= 255``), and the top bytes whose symbol is ``>= n``."""
    shift = 8 - n.bit_length()
    return (
        bytes(b >> shift for b in range(256)),
        bytes(b for b in range(256) if b >> shift >= n),
    )


# Marks of a product move in ``Sul._random_eq``; interned pairs are >= 0.
_DIFF = -1  # the output traces differ from this tick on
_AGREE = -2  # both machines fell off: the traces agree to the end
_UNKNOWN = -3  # not stepped yet


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

    def _oq(self, steps: int, resets: int = 1) -> None:
        self.oq_resets += resets
        self.oq_steps += steps

    def _eq(self) -> None:
        self.eq_count += 1

    def snapshot(self) -> dict:
        return asdict(self)


class Sul:
    """System under learning: a hidden MMN behind query oracles.

    One instance per worker; calls on one instance mutate its counters and
    must not be interleaved across threads.
    """

    def __init__(self, mmn: Mmn, eq_config: Optional[EqTestConfig] = None):
        self._mmn = mmn
        self._induced = InducedMoore(mmn)
        self.network = mmn.network  # problem input, visible to learners
        self.components = list(mmn.components)
        self.system_inputs = mmn.system_inputs
        self.system_outputs = mmn.system_outputs
        self.eq_config = eq_config or EqTestConfig()
        self._rng = random.Random(self.eq_config.seed)
        self.stats = QueryStats()
        self._product = None  # the last counterexample EQ's product (see _random_eq)
        self._product_target = None  # the SUL machine it was built against
        self.oracle_seconds = 0.0
        self.contract_violations = 0

    def component_input_alphabet(self, c: NodeId):
        return self.network.component_input_alphabet(c)

    def component_output_alphabet(self, c: NodeId):
        return self.network.component_output_alphabet(c)

    # -- output queries ------------------------------------------------------

    def oq(self, word: Sequence[int]) -> Word:
        """System-level output query: full output trace from the initial
        configuration.  One reset plus one step per character, charged once
        the induced machine has accepted the word (``AlphabetError`` on a
        foreign symbol)."""
        return self._trace(self._induced, word)

    def oq_c(self, c: NodeId, word: Sequence[int]) -> Word:
        """Component-level output query against component ``c`` alone,
        charged like ``oq`` once the component has accepted the word."""
        return self._trace(self._mmn.machines[c], word)

    def oq_lasts(self, words: Sequence[Sequence[int]]) -> list[int]:
        """``[oq(w)[-1] for w in words]``, each word charged like ``oq``, no
        trace built; a foreign symbol in any word raises before any charge."""
        return self._lasts(self._induced, words)

    def oq_c_lasts(self, c: NodeId, words: Sequence[Sequence[int]]) -> list[int]:
        """``[oq_c(c, w)[-1] for w in words]``, charged like ``oq_c`` per
        word and rejected whole like ``oq_lasts``."""
        return self._lasts(self._mmn.machines[c], words)

    def _trace(self, target, word: Sequence[int]) -> Word:
        """``target``'s output trace on ``word``, charged one reset and one
        step per symbol.  A word falling off a partial machine (the system
        falls off only where a component does) returns the truncated trace
        and bumps ``contract_violations``: learning declares components
        complete, but the caller decides whether truncation matters."""
        t0 = time.perf_counter()
        out = target.semantics(word)
        self.stats._oq(len(word))
        if len(out) <= len(word):
            self.contract_violations += 1
        self.oracle_seconds += time.perf_counter() - t0
        return out

    def _lasts(self, target, words: Sequence[Sequence[int]]) -> list[int]:
        """``[_trace(target, w)[-1] for w in words]``, charged and flagged
        alike; ``target.lasts`` checks every word before any charge."""
        t0 = time.perf_counter()
        outs, fall_offs = target.lasts(words)
        self.stats._oq(sum(map(len, words)), len(words))
        self.contract_violations += fall_offs
        self.oracle_seconds += time.perf_counter() - t0
        return outs

    def oq_bar(self, word: Sequence[int]) -> list[tuple[int, ...]]:
        """Total output query: per-component output symbols at every tick.

        Computed from one tick-driven run per component (a component's input
        at tick t depends only on outputs at tick t, thanks to the Moore
        delay), so it charges ``|V^c|`` resets and ``|V^c| * len(word)``
        steps, once ``trajectory`` has accepted the word.  A fall-off is
        counted and timed like in ``_trace``, then raises ``OracleContractError``.
        """
        t0 = time.perf_counter()
        configs = self._induced.trajectory(word)
        self.stats._oq(len(self.components) * len(word), len(self.components))
        if len(configs) <= len(word):
            self.contract_violations += 1
            self.oracle_seconds += time.perf_counter() - t0
            raise OracleContractError(
                "total output query fell off a partial component"
            )
        trace = list(map(self._mmn.total_output, configs))
        self.oracle_seconds += time.perf_counter() - t0
        return trace

    # -- equivalence queries ---------------------------------------------------

    def eq(self, hypothesis) -> "Counterexample | bool":
        """Random-word testing against the hypothesis system machine.

        Draws up to ``words_per_eq`` uniform words of ``word_length`` (each
        symbol is ``randrange(|I|)`` of the SUL's seeded generator, see
        :func:`random_word`) and returns the first word whose SUL output
        differs from the hypothesis output (missing transitions in the
        hypothesis truncate its output and count as differences).  Each word
        is charged whole, but both machines are stepped only up to the first
        difference, and not at all once the query's product rows are full
        (see :meth:`_random_eq`).

        A counterexample keeps the product for the next EQ on the same
        ``hypothesis`` object, which may only have grown since: ``ccwl``'s
        epoch memo across ``InducedMoore.rebind``.  A new object, as ``mnl``
        and ``cwl`` hand in every round, frees it.
        """
        return self._random_eq(self._induced, hypothesis)

    def eq_c(self, c: NodeId, hypothesis) -> "Counterexample | bool":
        """Component-level testing EQ over the component's own alphabet."""
        return self._random_eq(self._mmn.machines[c], hypothesis)

    def _random_eq(self, target, hypothesis):
        """Compare ``target`` and ``hypothesis`` on random words, pair by pair.

        Each word is drawn whole and charged (one reset, one step per
        symbol), then walked over a product memo, built for this EQ or kept
        from the last (see below): pairs of states whose outputs agree are
        interned, each with a row of ``|I|`` moves that start as
        ``_UNKNOWN`` and are stepped on first use.  A move on which the
        outputs differ, or exactly one side falls off, is ``_DIFF``; one on
        which both fall off is ``_AGREE``, as the outputs then agree to the
        end of the word.  A walk stops at the first mark, so neither machine
        is stepped past a difference, and a word is a counterexample exactly
        when its two output traces differ.  A hypothesis with a smaller
        input alphabet checks each whole word first, so that, as in its
        ``semantics``, a foreign symbol raises ``AlphabetError`` even past
        a fall-off.

        A ``_DIFF`` ends the EQ, so while words are drawn the rows hold none.
        Once a word ends with every row full, no later word can differ: the
        words left are drawn in one :func:`random_word` call (the same
        generator outputs as one call per word), charged, and not walked.
        Under an alphabet check the rows never fill, as a foreign symbol's
        word raises before it is walked.

        A counterexample found without a check leaves the product in
        ``_product`` for the next EQ on ``target`` and the same
        ``hypothesis`` object, whatever its type; any other EQ frees it
        before building its own.  As a rebind may define a move that fell
        off, a reusing EQ first resets every move the product marked
        ``_DIFF`` or ``_AGREE`` to ``_UNKNOWN`` and lowers ``known`` to
        match, so the rows again hold no ``_DIFF``.
        """
        t0 = time.perf_counter()
        stats, rng, cfg = self.stats, self._rng, self.eq_config
        stats._eq()
        n_in = len(target.input_alphabet)
        check = None
        if len(hypothesis.input_alphabet) < n_in:
            check = hypothesis.input_alphabet.check_word
        t_step, t_out = target.step, target.output
        h_step, h_out = hypothesis.step, hypothesis.output
        kept, self._product = self._product, None  # an EQ that raises keeps none
        if kept is not None and kept[0] is hypothesis and self._product_target is target:
            _, pairs, ids, rows, marks, known = kept
            for p, i in marks:
                rows[p][i] = _UNKNOWN
            known, marks = known - len(marks), []
        else:
            kept = None  # free an unused product before building this one
            pairs = [(target.initial, hypothesis.initial)]
            ids = {pairs[0]: 0}
            rows = [[_UNKNOWN] * n_in]
            marks = []  # the (pair, input) moves marked _DIFF or _AGREE
            known = 0

        def move(p: int, i: int) -> int:
            nonlocal known
            q1, q2 = pairs[p]
            t1, t2 = t_step(q1, i), h_step(q2, i)
            if t1 is None or t2 is None or t_out(t1) != h_out(t2):
                nxt = _AGREE if t1 is None and t2 is None else _DIFF
                marks.append((p, i))
            else:
                pair = (t1, t2)
                nxt = ids.setdefault(pair, len(pairs))
                if nxt == len(pairs):
                    pairs.append(pair)
                    rows.append([_UNKNOWN] * n_in)
            rows[p][i] = nxt
            known += 1
            return nxt

        start = 0 if t_out(target.initial) == h_out(hypothesis.initial) else _DIFF
        result = EQUIVALENT
        for left in range(cfg.words_per_eq - 1, -1, -1):
            word = random_word(rng, n_in, cfg.word_length)
            stats.eq_resets += 1
            stats.eq_steps += len(word)
            if check is not None:
                check(word)
            p = start
            if p >= 0:
                for i in word:
                    nxt = rows[p][i]
                    if nxt == _UNKNOWN:
                        nxt = move(p, i)
                    p = nxt
                    if p < 0:
                        break
            if p == _DIFF:
                result = Counterexample(word)
                break
            if known == len(pairs) * n_in:
                random_word(rng, n_in, left * cfg.word_length)
                stats.eq_resets += left
                stats.eq_steps += left * cfg.word_length
                break
        if check is None and result is not EQUIVALENT:
            self._product = (hypothesis, pairs, ids, rows, marks, known)
            self._product_target = target
        self.oracle_seconds += time.perf_counter() - t0
        return result

    # -- exact validation (not charged) ---------------------------------------

    def validate_exact(self, learned) -> "Counterexample | bool":
        """Exact equivalence (``machine.equivalent``) between the learned
        system and the SUL's induced machine.  Not charged to the query
        counters."""
        if isinstance(learned, Mmn):
            learned = InducedMoore(learned)
        return equivalent(learned, self._induced)

    # -- exact equivalence used in place of testing EQs ------------------------

    def exact_eq(self, hypothesis) -> "Counterexample | bool":
        """System-level EQ answered by exact equivalence checking.

        Counts as one EQ (no resets/steps: no words are executed) and, like
        every oracle call, adds its time to ``oracle_seconds``.  Useful for
        regression runs where probabilistic EQs would add noise.
        """
        return self._exact_eq(self._induced, hypothesis)

    def exact_eq_c(self, c: NodeId, hypothesis) -> "Counterexample | bool":
        """Component-level analogue of :meth:`exact_eq`."""
        return self._exact_eq(self._mmn.machines[c], hypothesis)

    def _exact_eq(self, target, hypothesis):
        t0 = time.perf_counter()
        self.stats._eq()
        result = equivalent(hypothesis, target)
        self.oracle_seconds += time.perf_counter() - t0
        return result

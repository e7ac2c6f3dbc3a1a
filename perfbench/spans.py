"""Per-layer tracing installed from outside the library.

A traced run replaces the public functions of each layer with timing
wrappers and restores the originals afterwards; an untraced run installs
nothing.  Each span keeps its call count, inclusive time and the time of
its nested spans, so self time is inclusive minus children.  Spans are
aggregated by name in memory and reported when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _targets() -> list[tuple[str, list, str]]:
    """(span name, namespaces the callers look the name up in, attribute).

    ``mmnlearn.lstar`` is fetched from ``sys.modules`` because the package
    attribute of that name is the ``lstar`` function.  ``componentwise``
    binds ``lstar`` and ``analyze_cex`` by name, so those are wrapped there
    too.  Methods are wrapped on their classes.
    """
    mod = {n: sys.modules["mmnlearn." + n] for n in (
        "benchmarks", "componentwise", "harness", "lstar", "network",
        "oracles", "table")}
    sul = mod["oracles"].Sul
    table = mod["table"].ObservationTable
    cw = mod["componentwise"]
    return [
        ("harness.build_sul", [mod["harness"]], "build_sul"),
        ("benchmarks.from_spec", [mod["benchmarks"]], "from_spec"),
        ("oracles.oq", [sul], "oq"),
        ("oracles.oq_c", [sul], "oq_c"),
        ("oracles.oq_bar", [sul], "oq_bar"),
        ("oracles.eq", [sul], "eq"),
        ("oracles.eq_c", [sul], "eq_c"),
        ("oracles.validate_exact", [sul], "validate_exact"),
        ("machine.equivalent", [mod["oracles"]], "equivalent"),
        ("componentwise.mnl", [cw], "mnl"),
        ("componentwise.cwl", [cw], "cwl"),
        ("componentwise.ccwl", [cw], "ccwl"),
        ("componentwise.one_ext_er", [cw], "one_ext_er"),
        ("componentwise.assemble", [cw], "assemble"),
        ("componentwise.analyze_cex_componentwise", [cw], "analyze_cex_componentwise"),
        ("network.quotient_mmn", [mod["network"].Mmn], "quotient_mmn"),
        ("table.close", [table], "close"),
        ("table.add_suffix", [table], "add_suffix"),
        ("table.add_extension", [table], "add_extension"),
        ("table.hypothesis", [table], "hypothesis"),
        ("lstar.lstar", [cw], "lstar"),
        ("lstar.analyze_cex", [mod["lstar"], cw], "analyze_cex"),
    ]


def _cache_owner():
    return sys.modules["mmnlearn.lstar"].OqCache


def patch_points() -> list[tuple[object, str]]:
    """Every (namespace, attribute) a traced run replaces."""
    points = [(owner, attr) for _, owners, attr in _targets() for owner in owners]
    return points + [(_cache_owner(), "last")]


class Tracer:
    """Span aggregates of one traced repetition."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, children s]
        self.cache_lookups = 0
        self.cache_hits = 0
        self.proposals = 0
        self.proposals_new = 0
        self._stack = [0.0]  # children time of each open span; [0] is the root
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += stack.pop()
                stack[-1] += dt

        return wrapper

    def _wrap_one_ext_er(self, traced):
        # Counting the proposals is a span of its own, so that it shows up
        # in neither one_ext_er's nor ccwl's self time.
        count = self.span("perfbench.count_proposals", self._count_proposals)

        @functools.wraps(traced)
        def wrapper(hypothesis, params, tables, *args, **kwargs):
            proposals = traced(hypothesis, params, tables, *args, **kwargs)
            count(proposals, tables)
            return proposals

        return wrapper

    def _count_proposals(self, proposals, tables):
        self.proposals += len(proposals)
        self.proposals_new += sum(
            1 for c, s, i in proposals if s + (i,) not in tables[c]
        )

    def _wrap_cache_last(self, last):
        tracer = self

        @functools.wraps(last)
        def wrapper(cache, word):
            tracer.cache_lookups += 1
            if cache.enabled and word in cache._seen:
                tracer.cache_hits += 1
            return last(cache, word)

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for name, owners, attr in _targets():
                wrapper = self.span(name, vars(owners[0])[attr])
                if attr == "one_ext_er":
                    wrapper = self._wrap_one_ext_er(wrapper)
                for owner in owners:
                    self._set(owner, attr, wrapper)
            # Tables take ``cache.last`` when they are built, so this must be
            # in place before the first job starts.
            cache = _cache_owner()
            self._set(cache, "last", self._wrap_cache_last(vars(cache)["last"]))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

"""Timing wrappers around each layer's public entry points (the traced run).

The benchmark measures every layer **from outside**: nothing in ``src/``
knows it is being timed.  :func:`install` replaces the attributes named
in :data:`SPAN_TABLE` with wrappers that record one span per call —
name, start, end, the span that caused it, and the id of the logical
operation (one document/edge change or one query) the harness is
driving — and :func:`uninstall` puts the original objects back, so an
untraced phase can run in the same process.

Spans stay in memory (:attr:`Tracer.spans`) and are written out once,
at the end, by :meth:`Tracer.write_jsonl`.  Aggregates are kept per
*phase* (``setup`` / ``measure`` / ``recover`` …, set by the harness):

* ``busy[(phase, name)]`` — inclusive seconds, counted only for the
  outermost span of a name (``IndexSnapshot.evaluate`` calling
  ``evaluate_on_index`` is one ``query.eval``, not two);
* ``self_s[(phase, name)]`` — a span's duration minus the part its
  child spans cover; self times of a tree sum to its root's duration;
* ``calls[(phase, name)]`` and ``calls[(phase, "Owner.attr")]`` — how
  often a span name, and each wrapped attribute under it, was entered.

The closed loop is single-threaded, so the tracer keeps one stack and
takes no locks; do not install it under a background writer thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

_MAINTAINER_OPS = (
    "insert_edge",
    "delete_edge",
    "insert_node",
    "delete_node",
    "set_value",
    "add_subgraph",
    "delete_subgraph",
)

#: (span name, module, class or None for a module-level binding, attribute).
#: Module-level entries name the *binding site* the callers resolve
#: (``from x import f`` copies the reference), not the defining module.
SPAN_TABLE: tuple[tuple[str, str, Optional[str], str], ...] = (
    ("service.flush", "repro.service.service", "IndexService", "flush"),
    ("service.flush", "repro.adaptive.service", "AdaptiveIndexService", "flush"),
    ("service.query", "repro.service.service", "IndexService", "query"),
    ("service.query", "repro.adaptive.service", "AdaptiveIndexService", "query"),
    ("service.submit", "repro.service.service", "IndexService", "submit"),
    ("service.coalesce", "repro.service.service", None, "coalesce"),
    ("service.publish", "repro.service.snapshot", "IndexSnapshot", "evolve"),
    ("service.publish", "repro.service.snapshot", "IndexSnapshot", "capture"),
    ("resilience.apply_batch", "repro.resilience.guard", "GuardedMaintainer", "apply_batch"),
    ("resilience.check", "repro.resilience.invariants", "InvariantGuard", "check"),
    ("resilience.wire", "repro.store.service", None, "batch_to_wire"),
    ("resilience.wire", "repro.replication.follower", None, "batch_from_wire"),
    ("resilience.wire", "repro.store.recovery", None, "batch_from_wire"),
    *(
        ("maintenance.op", "repro.maintenance.split_merge", "SplitMergeMaintainer", op)
        for op in _MAINTAINER_OPS
    ),
    *(
        ("maintenance.op", "repro.maintenance.ak_split_merge", "AkSplitMergeMaintainer", op)
        for op in _MAINTAINER_OPS
    ),
    ("index.build", "repro.index.oneindex", "OneIndex", "build"),
    ("index.build", "repro.index.akindex", "AkIndexFamily", "build"),
    ("query.compile", "repro.adaptive.service", None, "as_nfa"),
    ("query.compile", "repro.adaptive.router", None, "as_nfa"),
    ("query.compile", "repro.query.index_evaluator", None, "_as_nfa"),
    ("query.eval", "repro.service.snapshot", "IndexSnapshot", "evaluate"),
    ("query.eval", "repro.adaptive.service", None, "evaluate_on_index"),
    ("query.eval", "repro.adaptive.service", None, "evaluate_on_ak"),
    ("adaptive.route", "repro.adaptive.router", "QueryRouter", "route"),
    ("adaptive.cache_lookup", "repro.adaptive.result_cache", "ResultCache", "lookup"),
    ("adaptive.cache_lookup", "repro.adaptive.result_cache", "ResultCache", "store"),
    ("adaptive.cache_on_commit", "repro.adaptive.result_cache", "ResultCache", "on_commit"),
    ("adaptive.ladder_build", "repro.adaptive.service", None, "build_ladder_state"),
    ("store.wal_append", "repro.store.wal", "WriteAheadLog", "append"),
    ("store.checkpoint", "repro.store.checkpoint", "Checkpointer", "checkpoint"),
    ("store.recover", "repro.store.service", None, "recover"),
    ("replication.bootstrap", "repro.replication.follower", "FollowerIndexService", "bootstrap"),
    ("replication.sync", "repro.replication.follower", "FollowerIndexService", "sync"),
    ("replication.fetch", "repro.replication.link", "ReplicationLink", "fetch"),
    ("replication.feed", "repro.replication.feed", "Primary", "fetch"),
    ("corpus.parse", "repro.corpus.documents", None, "parse_document"),
    ("corpus.parse", "repro.corpus.service", None, "parse_document"),
    ("corpus.compile", "repro.corpus.builder", "CorpusCatalog", "compile_add"),
    ("corpus.compile", "repro.corpus.builder", "CorpusCatalog", "compile_remove"),
    ("corpus.compile", "repro.corpus.builder", "CorpusCatalog", "compile_replace"),
)

SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in SPAN_TABLE))

#: the two span names that start a tree (one commit, one query)
ROOT_SPANS = ("service.flush", "service.query")


def _tally_maintenance(tracer: "Tracer", result: object) -> None:
    """Fold one top-level maintainer call's ``UpdateStats`` into the counts."""
    stats = result[-1] if isinstance(result, tuple) else result
    phase = tracer.phase
    tracer.counts[phase, "maintenance.ops"] += 1
    tracer.counts[phase, "maintenance.splits"] += stats.splits
    tracer.counts[phase, "maintenance.merges"] += stats.merges
    tracer.counts[phase, "maintenance.moves"] += stats.moves
    tracer.counts[phase, "maintenance.trivial"] += bool(stats.trivial)


def _tally_feed(tracer: "Tracer", result: object) -> None:
    """Bytes of one encoded feed frame leaving the primary."""
    tracer.counts[tracer.phase, "replication.feed_bytes"] += len(result)


#: span name → what to count from the outermost call's return value
_COLLECTORS: dict[str, Callable[["Tracer", object], None]] = {
    "maintenance.op": _tally_maintenance,
    "replication.feed": _tally_feed,
}


def _resolve(module: str, owner: Optional[str]) -> object:
    target = importlib.import_module(module)
    return getattr(target, owner) if owner is not None else target


class Tracer:
    """Span recorder plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or -1, op id, phase)
        self.spans: list[tuple] = []
        self.busy: dict[tuple[str, str], float] = defaultdict(float)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.phase = "setup"
        #: id of the logical operation in flight (set by the harness)
        self.op_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- install / restore --------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        """Replace every table entry with its timing wrapper (idempotent)."""
        if self._patched:
            return
        for name, module, owner, attr in SPAN_TABLE:
            target = _resolve(module, owner)
            own = attr in vars(target)
            raw = inspect.getattr_static(target, attr)
            label = f"{owner or module.rpartition('.')[2]}.{attr}"
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(self._wrap(name, label, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, label, raw.__func__))
            else:
                wrapped = self._wrap(name, label, raw)
            setattr(target, attr, wrapped)
            self._patched.append((target, attr, raw, own))

    def uninstall(self) -> None:
        """Put back the exact objects :meth:`install` replaced."""
        for target, attr, raw, own in reversed(self._patched):
            if own:
                setattr(target, attr, raw)
            else:
                delattr(target, attr)
        self._patched.clear()

    def _wrap(self, name: str, label: str, fn: Callable) -> Callable:
        collect = _COLLECTORS.get(name)
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if collect is not None and active[name] == 1:
                    collect(self, result)
                return result
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                key = (self.phase, name)
                self.calls[key] += 1
                self.calls[self.phase, label] += 1
                self.self_s[key] += duration - frame[2]
                if not active[name]:
                    self.busy[key] += duration
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    (span_id, name, start, end,
                     parent[0] if parent is not None else -1,
                     self.op_id, self.phase)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading the trace --------------------------------------------

    def spans_in(self, phase: str) -> list[tuple]:
        return [span for span in self.spans if span[6] == phase]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="ascii") as fp:
            for span_id, name, start, end, parent, op_id, phase in self.spans:
                fp.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id, "phase": phase},
                        separators=(",", ":"),
                    )
                )
                fp.write("\n")


def closure_by_root(spans: list[tuple]) -> dict[str, tuple[float, float]]:
    """Per root-span name: (sum of root durations, sum of tree self times).

    Recomputed from the span *records* alone (ids, parents, start, end),
    independently of the tracer's running tallies.  A self time is a
    span's duration minus what its children cover, floored at zero — so
    the two sums agree exactly when every child lies inside its parent,
    and drift apart when the recorded links claim more child time than
    the parent lasted (a span attributed to the wrong parent or counted
    twice).  Spans are ``(id, name, start, end,
    parent, ...)`` tuples; only trees rooted at :data:`ROOT_SPANS` count.
    """
    duration = {span[0]: span[3] - span[2] for span in spans}
    parent_of = {span[0]: span[4] for span in spans}
    name_of = {span[0]: span[1] for span in spans}
    child_seconds: dict[int, float] = defaultdict(float)
    for span_id, parent in parent_of.items():
        if parent in duration:
            child_seconds[parent] += duration[span_id]

    root_of: dict[int, int] = {}

    def find_root(span_id: int) -> int:
        chain = []
        while span_id not in root_of:
            parent = parent_of[span_id]
            if parent not in duration:
                root_of[span_id] = span_id
                break
            chain.append(span_id)
            span_id = parent
        root = root_of[span_id]
        for member in chain:
            root_of[member] = root
        return root

    totals = {name: [0.0, 0.0] for name in ROOT_SPANS}
    for span_id in duration:
        root_name = name_of[find_root(span_id)]
        if root_name not in totals:
            continue
        if root_of[span_id] == span_id:
            totals[root_name][0] += duration[span_id]
        totals[root_name][1] += max(0.0, duration[span_id] - child_seconds[span_id])
    return {name: (pair[0], pair[1]) for name, pair in totals.items()}

"""The versioned result cache with TouchedSet intersection invalidation.

A naive query cache over snapshot serving must flush on every version
swap — any commit *might* have changed any answer.  This cache does
better by storing, with each entry, the **footprint** its evaluation
actually read (:class:`repro.query.EvalFootprint`): the index tokens the
fixpoint consulted in the entry's level space, plus the dnodes a
validation pass read — the label-pruned layers above the candidates,
closed at the expression's loop states (for ``//x`` and ``/a//x`` the
candidates' ancestor cone).  At each commit the writer
hands the cache the per-level changed-token sets derived from the
batch's TouchedSet (:func:`repro.adaptive.ladder.invalidation_sets`)
and the changed dnodes; an entry whose footprint is disjoint from both
provably still answers correctly, so it is *revalidated* — its version
stamp advances to the new version — instead of being dropped.

Correctness contract (enforced by the differential suite):

* an entry is served only when its version stamp equals the serving
  view's version;
* revalidation happens only across a single commit edge (an entry whose
  stamp lags the previous version was stored by a racing reader against
  an already-retired view and is discarded — it was never checked
  against the intervening commits);
* a ``None`` changed-set for a level (full capture, degrade rebuild,
  root-set change, level freshly published) drops every entry of that
  level.

Entries are LRU-bounded; all statistics are lifetime tallies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.query.evaluator import EvaluationReport

#: default maximum number of cached results
DEFAULT_CAPACITY = 256


@dataclass
class CacheEntry:
    """One cached answer and the dependency set that keeps it honest."""

    matches: frozenset[int]
    version: int
    #: index tokens read, in the entry's own level token space
    tokens: frozenset[int]
    #: dnodes validation read: the backward layers, every loop layer and
    #: the root (empty for exact routes)
    dnodes: frozenset[int]
    validated: bool
    hits: int = 0


@dataclass
class CacheStats:
    """Lifetime cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0
    revalidated: int = 0
    evicted: int = 0
    flushes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any traffic)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "revalidated": self.revalidated,
            "evicted": self.evicted,
            "flushes": self.flushes,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultCache:
    """LRU result cache keyed by (route key, compiled-path text)."""

    capacity: int = DEFAULT_CAPACITY
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: "int | str", text: str, version: int) -> "CacheEntry | None":
        """The entry for (*key*, *text*) if it is valid at *version*."""
        with self._lock:
            entry = self._entries.get((key, text))
            if entry is None or entry.version != version:
                self.stats.misses += 1
                return None
            self._entries.move_to_end((key, text))
            entry.hits += 1
            self.stats.hits += 1
            return entry

    def store(
        self,
        key: "int | str",
        text: str,
        version: int,
        report: EvaluationReport,
        tokens: frozenset[int],
        dnodes: frozenset[int],
    ) -> None:
        """Insert (or refresh) one answer evaluated at *version*."""
        entry = CacheEntry(
            matches=report.matches,
            version=version,
            tokens=tokens,
            dnodes=dnodes,
            validated=report.validated,
        )
        with self._lock:
            self._entries[(key, text)] = entry
            self._entries.move_to_end((key, text))
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evicted += 1

    def on_commit(
        self,
        new_version: int,
        changed: "dict[int | str, set[int] | None]",
        changed_dnodes: set[int],
    ) -> None:
        """Advance the cache across one commit edge.

        *changed* maps each route key to the set of that key's tokens a
        batch may have perturbed (``None`` = drop everything under the
        key); keys absent from *changed* are dropped wholesale too (the
        writer no longer publishes them).  Entries stamped older than
        ``new_version - 1`` were stored by readers racing a past swap
        and are dropped unexamined.
        """
        previous = new_version - 1
        with self._lock:
            doomed = []
            for cache_key, entry in self._entries.items():
                key = cache_key[0]
                if entry.version != previous:
                    doomed.append(cache_key)
                    continue
                level_changed = changed.get(key)
                if level_changed is None:  # absent key or explicit full drop
                    doomed.append(cache_key)
                    continue
                if entry.tokens & level_changed:
                    doomed.append(cache_key)
                    continue
                if entry.dnodes and (entry.dnodes & changed_dnodes):
                    doomed.append(cache_key)
                    continue
                entry.version = new_version
                self.stats.revalidated += 1
            for cache_key in doomed:
                del self._entries[cache_key]
            self.stats.invalidated += len(doomed)

    def flush(self) -> None:
        """Drop everything (full capture / degrade rebuild path)."""
        with self._lock:
            self.stats.invalidated += len(self._entries)
            self._entries.clear()
            self.stats.flushes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )

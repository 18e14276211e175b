"""Shared plumbing for the maintenance algorithms.

Every maintainer mutates a data graph *and* its index(es) in lockstep and
returns an :class:`UpdateStats` describing what the update did — how many
split and merge operations ran, how large the intermediate index got
(Section 5.1 discusses the worst-case blow-up of Figure 5), and whether
the update was *trivial* (no index change needed at all).

The :class:`Maintainer` protocol is what the experiment harness programs
against; all five concrete maintainers (split/merge and propagate for the
1-index, split/merge and simple for the A(k)-index, plus the
reconstruction wrapper) satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.graph.datagraph import DataGraph


@dataclass
class UpdateStats:
    """What one maintenance operation did.

    ``splits``/``merges`` count inode-level operations; ``moves`` counts
    dnode reassignments (the A(k) maintainer's unit of work);
    ``peak_inodes`` is the largest index size reached *during* the update
    (the intermediate index of Section 5.1); ``trivial`` flags updates
    that changed no index predecessor–successor relation and returned
    immediately.
    """

    splits: int = 0
    merges: int = 0
    moves: int = 0
    peak_inodes: int = 0
    trivial: bool = False
    levels_touched: int = 0

    def absorb(self, other: "UpdateStats") -> None:
        """Accumulate another operation's counters into this one."""
        self.splits += other.splits
        self.merges += other.merges
        self.moves += other.moves
        self.peak_inodes = max(self.peak_inodes, other.peak_inodes)
        self.levels_touched = max(self.levels_touched, other.levels_touched)
        if not other.trivial:
            self.trivial = False

    def record_to(self, registry, prefix: str) -> None:
        """Tally this operation into a ``repro.obs`` metrics registry.

        Counters ``{prefix}.updates/trivial/splits/merges/moves`` and the
        gauge ``{prefix}.peak_inodes`` become the source of truth for
        aggregate views (e.g. :class:`repro.experiments.runner.MixedRunResult`),
        replacing hand-maintained tallies in the callers.
        """
        registry.counter(f"{prefix}.updates").inc()
        if self.trivial:
            registry.counter(f"{prefix}.trivial").inc()
        registry.counter(f"{prefix}.splits").add(self.splits)
        registry.counter(f"{prefix}.merges").add(self.merges)
        registry.counter(f"{prefix}.moves").add(self.moves)
        registry.gauge(f"{prefix}.peak_inodes").set_max(self.peak_inodes)


@dataclass
class MaintenanceTotals:
    """Running totals across a whole update sequence (harness helper)."""

    updates: int = 0
    trivial_updates: int = 0
    splits: int = 0
    merges: int = 0
    moves: int = 0
    peak_inodes: int = 0
    reconstructions: int = 0
    stats_log: list[UpdateStats] = field(default_factory=list)

    def record(self, stats: UpdateStats, keep_log: bool = False) -> None:
        self.updates += 1
        if stats.trivial:
            self.trivial_updates += 1
        self.splits += stats.splits
        self.merges += stats.merges
        self.moves += stats.moves
        self.peak_inodes = max(self.peak_inodes, stats.peak_inodes)
        if keep_log:
            self.stats_log.append(stats)


@runtime_checkable
class Maintainer(Protocol):
    """An incremental index maintainer bound to one data graph."""

    graph: DataGraph
    #: what it maintains (:class:`repro.index.Structure`), also reachable
    #: under its kind's name: ``.index`` or ``.family``
    structure: object

    def insert_edge(self, source: int, target: int) -> UpdateStats:
        """Insert the dedge and repair the index."""
        ...

    def delete_edge(self, source: int, target: int) -> UpdateStats:
        """Delete the dedge and repair the index."""
        ...

    def index_size(self) -> int:
        """Current number of inodes of the maintained index."""
        ...

"""Closed-loop serving sessions: interleaved queries and updates.

The paper's harness replays update streams offline; the serving layer
needs the other experimental shape — the dynamic-indexing setting of
Munro et al., where queries and updates interleave over one evolving
structure.  :class:`ClosedLoopDriver` provides it as a *closed loop*:
a fixed roster of logical sessions (some issue queries, some issue
updates) is round-robined, and each session issues its next operation
only after its previous one completed.  Offered load therefore adapts
to service speed, which makes runs deterministic in their operation
sequence for a fixed seed — only the timings vary.

Update sessions draw from one shared
:class:`~repro.workload.updates.MixedUpdateWorkload` (the Section 7
protocol), query sessions from one shared
:class:`~repro.workload.queries.QueryWorkload`, so serving benchmarks
and quality experiments see the same distributions.

The driver is also the service's *pacemaker* when no background writer
thread runs: after every submitted update it flushes as soon as a full
batch is queued, so snapshots advance and staleness stays bounded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.graph.datagraph import EdgeKind
from repro.obs import percentile
from repro.service.queue import Update
from repro.service.service import IndexService
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload


@dataclass(frozen=True)
class SessionMix:
    """Shape of a closed-loop run."""

    #: total operations issued across all sessions
    steps: int = 500
    #: logical sessions issuing queries
    query_sessions: int = 3
    #: logical sessions issuing updates
    update_sessions: int = 1
    #: seed for the interleaving and per-session draws
    seed: int = 0
    #: flush a batch whenever this many updates are queued (0 = use the
    #: service's ``batch_max_ops``); ignored when a writer thread runs
    flush_high_water: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.query_sessions < 0 or self.update_sessions < 0:
            raise ValueError("session counts must be >= 0")
        if self.query_sessions + self.update_sessions == 0:
            raise ValueError("at least one session is required")


@dataclass
class DriverReport:
    """What one closed-loop run measured.

    Latency percentiles come straight from the service's stats; the
    throughput figures are wall-clock over the whole loop (including
    flush time — this is a closed loop, queries wait their turn).
    """

    steps: int = 0
    queries: int = 0
    updates_submitted: int = 0
    updates_shed: int = 0
    batches: int = 0
    batch_failures: int = 0
    versions_published: int = 0
    coalesced_away: int = 0
    wall_seconds: float = 0.0
    query_p50_ms: float = 0.0
    query_p95_ms: float = 0.0
    commit_p50_ms: float = 0.0
    commit_p95_ms: float = 0.0
    #: queries served per retired snapshot version (staleness profile)
    queries_per_version: list[int] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        """Sustained query throughput over the loop's wall-clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries / self.wall_seconds

    @property
    def updates_per_second(self) -> float:
        """Sustained committed-update throughput."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.updates_submitted / self.wall_seconds

    @property
    def mean_queries_per_version(self) -> float:
        """Average staleness: queries answered by one index version."""
        if not self.queries_per_version:
            return 0.0
        return sum(self.queries_per_version) / len(self.queries_per_version)

    @property
    def max_queries_per_version(self) -> int:
        """Worst-case staleness across retired versions."""
        return max(self.queries_per_version, default=0)


class ClosedLoopDriver:
    """Round-robin a roster of query/update sessions against a service.

    *on_commit*, when given, is called with the :class:`BatchResult` of
    every batch the driver flushed — the differential serving tests hook
    it to compare the fresh snapshot against ground truth at every
    single version boundary.
    """

    def __init__(
        self,
        service: IndexService,
        updates: MixedUpdateWorkload,
        queries: QueryWorkload,
        mix: Optional[SessionMix] = None,
        on_commit=None,
    ):
        self.service = service
        self.updates = updates
        self.queries = queries
        self.mix = mix if mix is not None else SessionMix()
        self.on_commit = on_commit
        self._rng = random.Random(self.mix.seed)

    def run(self) -> DriverReport:
        """Drive the full session mix; returns the run's report."""
        mix = self.mix
        service = self.service
        report = DriverReport()
        stats_before = _StatsMark(service)
        roster = ["query"] * mix.query_sessions + ["update"] * mix.update_sessions
        high_water = mix.flush_high_water or service.config.batch_max_ops
        # one generator shared by every update session; sized so the
        # roster cannot exhaust it (ceil of the worst-case update share)
        update_ops = self.updates.steps(mix.steps // 2 + 1, validate=False)
        started = time.perf_counter()
        for step in range(mix.steps):
            kind = roster[step % len(roster)]
            if kind == "query":
                service.query(self.queries.sample())
                report.queries += 1
            else:
                op, source, target = next(update_ops)
                if op == "insert":
                    update = Update.insert_edge(source, target, EdgeKind.IDREF)
                else:
                    update = Update.delete_edge(source, target)
                if service.submit(update):
                    report.updates_submitted += 1
                self._pace(high_water)
        self._finish()
        report.wall_seconds = time.perf_counter() - started
        report.steps = mix.steps
        stats_before.fill(report)
        return report

    def _pace(self, high_water: int) -> None:
        """Flush when a full batch is waiting and nobody else will."""
        if self.service._writer_thread is not None:
            return  # the background writer is the pacemaker
        while self.service.queue_depth() >= high_water:
            self._flush_one()

    def _finish(self) -> None:
        """Commit whatever is still queued so the run ends quiescent."""
        if self.service._writer_thread is not None:
            return
        while True:
            result = self._flush_one()
            if result is None:
                return

    def _flush_one(self):
        result = self.service.flush()
        if result is not None and self.on_commit is not None:
            self.on_commit(result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClosedLoopDriver mix={self.mix} service={self.service!r}>"


class _StatsMark:
    """Before/after view over a service's stats for one driver run."""

    def __init__(self, service: IndexService):
        self.service = service
        stats = service.stats
        self.shed = stats.shed
        self.batches = stats.batches
        self.batch_failures = stats.batch_failures
        self.versions = stats.versions_published
        self.coalesced = stats.coalescing.removed
        self.queries = stats.queries

    def fill(self, report: DriverReport) -> None:
        stats = self.service.stats
        report.updates_shed = stats.shed - self.shed
        report.batches = stats.batches - self.batches
        report.batch_failures = stats.batch_failures - self.batch_failures
        report.versions_published = stats.versions_published - self.versions
        report.coalesced_away = stats.coalescing.removed - self.coalesced
        query_laps = _newest(stats.query_seconds, stats.queries - self.queries)
        commit_laps = _newest(stats.commit_seconds, report.batches)
        report.query_p50_ms = percentile(query_laps, 50) * 1000
        report.query_p95_ms = percentile(query_laps, 95) * 1000
        report.commit_p50_ms = percentile(commit_laps, 50) * 1000
        report.commit_p95_ms = percentile(commit_laps, 95) * 1000
        report.queries_per_version = _newest(
            stats.queries_per_version, report.versions_published
        )


def _newest(window, count: int) -> list:
    """The *count* newest samples of a bounded stats series (all it holds, if fewer)."""
    return list(window)[-count:] if count > 0 else []

"""Closed-loop serving sessions: interleaved queries and updates.

A test driver.  The paper's harness replays update streams offline;
the serving layer needs the other experimental shape — the
dynamic-indexing setting of Munro et al., where queries and updates
interleave over one evolving structure.  :class:`ClosedLoopDriver` provides it as a *closed loop*:
a fixed roster of logical sessions (some issue queries, some issue
updates) is round-robined, and each session issues its next operation
only after its previous one completed.  Offered load therefore adapts
to service speed, which makes runs deterministic in their operation
sequence for a fixed seed — only the timings vary.

Update sessions draw from one shared
:class:`~repro.workload.updates.MixedUpdateWorkload` (the Section 7
protocol), query sessions from one shared
:class:`~repro.workload.queries.QueryWorkload` or a
:class:`ShiftingQueryPool` of them, so the serving suites and the
quality experiments see the same distributions.  The driver times its
own ``query`` and ``flush`` calls and counts queries per version from
each answer's version: the service keeps counts, not samples.

The driver is also the service's *pacemaker* when no background writer
thread runs: after every submitted update it flushes as soon as a full
batch is queued, so snapshots advance and staleness stays bounded.
"""

from __future__ import annotations

import random
import time
from collections import Counter
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

    Latency percentiles are over the driver's own ``query`` and
    ``flush`` calls (no commit laps when a writer thread commits); the
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
    #: the run's queries answered by each version it retired (staleness profile)
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
        self._commit_laps: list[float] = []

    def run(self) -> DriverReport:
        """Drive the full session mix; returns the run's report."""
        mix = self.mix
        service = self.service
        report = DriverReport()
        stats_before = _StatsMark(service)
        query_laps: list[float] = []
        self._commit_laps = []
        answered_by: Counter[int] = Counter()
        roster = ["query"] * mix.query_sessions + ["update"] * mix.update_sessions
        high_water = mix.flush_high_water or service.config.batch_max_ops
        # one generator shared by every update session; sized so the
        # roster cannot exhaust it (ceil of the worst-case update share)
        update_ops = self.updates.steps(mix.steps // 2 + 1, validate=False)
        started = time.perf_counter()
        for step in range(mix.steps):
            kind = roster[step % len(roster)]
            if kind == "query":
                expression = self.queries.sample()
                lap = time.perf_counter()
                answered_by[service.query(expression).version] += 1
                query_laps.append(time.perf_counter() - lap)
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
        report.query_p50_ms = percentile(query_laps, 50) * 1000
        report.query_p95_ms = percentile(query_laps, 95) * 1000
        report.commit_p50_ms = percentile(self._commit_laps, 50) * 1000
        report.commit_p95_ms = percentile(self._commit_laps, 95) * 1000
        retired = range(stats_before.version, service.version)
        report.queries_per_version = [answered_by[version] for version in retired]
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
        lap = time.perf_counter()
        result = self.service.flush()
        if result is None:
            return None
        self._commit_laps.append(time.perf_counter() - lap)
        if self.on_commit is not None:
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
        self.version = service.version

    def fill(self, report: DriverReport) -> None:
        stats = self.service.stats
        report.updates_shed = stats.shed - self.shed
        report.batches = stats.batches - self.batches
        report.batch_failures = stats.batch_failures - self.batch_failures
        report.versions_published = stats.versions_published - self.versions
        report.coalesced_away = stats.coalescing.removed - self.coalesced


@dataclass
class ShiftingQueryPool:
    """A query mix that changes shape mid-run: phases of workloads.

    The adaptive serving experiments need traffic whose *demand profile*
    moves — short child-only sessions giving way to deep descendant-axis
    sessions — so the router's demand window and the controller's ladder
    retuning have something to adapt to.  A pool is a list of
    ``(draws, workload)`` phases: :meth:`sample` serves from the first
    phase until its draw budget is spent, then advances, staying on the
    last phase forever (so a driver can overrun the nominal schedule).

    Duck-types :class:`QueryWorkload` where the serving layer needs it:
    ``sample()`` for drivers, iteration/length over the union of all
    phases' expressions (what the differential checker replays per
    version — every phase's queries stay under audit for the whole run).
    """

    phases: list[tuple[int, QueryWorkload]]
    draws: int = 0
    _phase: int = 0
    _spent: int = 0

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("ShiftingQueryPool needs at least one phase")
        for budget, _ in self.phases:
            if budget < 1:
                raise ValueError("phase draw budgets must be >= 1")

    @property
    def phase(self) -> int:
        """Index of the phase the next :meth:`sample` draws from."""
        return self._phase

    def sample(self) -> str:
        """Draw from the current phase, advancing on budget exhaustion."""
        budget, workload = self.phases[self._phase]
        if self._spent >= budget and self._phase < len(self.phases) - 1:
            self._phase += 1
            self._spent = 0
            workload = self.phases[self._phase][1]
        self._spent += 1
        self.draws += 1
        return workload.sample()

    def __iter__(self):
        for _, workload in self.phases:
            yield from workload

    def __len__(self) -> int:
        return sum(len(workload) for _, workload in self.phases)

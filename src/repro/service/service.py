"""`IndexService` — the library run as a concurrent index server.

This is the layer the ROADMAP's "serve heavy traffic" north star asks
for, and the setting Blume et al. (batched/parallel incremental
summarization) and Munro et al. (dynamic data structures under
interleaved queries and updates) study: one evolving graph + structural
index, queries and updates arriving together.

Discipline: **single writer, many readers, snapshot isolation.**

* Readers call :meth:`IndexService.query`.  A query grabs the current
  :class:`~repro.service.snapshot.IndexSnapshot` reference once and
  evaluates entirely against that immutable version — it never blocks
  on the writer and never observes a half-applied batch.
* Writers call :meth:`IndexService.submit`, which only enqueues.  The
  single writer — either an explicit :meth:`flush` caller or the
  background thread started by :meth:`start` — drains the queue in
  arrival order, coalesces the batch (:func:`repro.service.queue.coalesce`),
  applies the survivors through ``GuardedMaintainer.apply_batch`` (one
  transaction: a mid-batch failure rolls the whole batch back, so the
  served snapshot never points at corrupt state), and publishes a fresh
  snapshot.

Admission control (``ServiceConfig.admission``) decides what a full
queue means: ``block`` waits for capacity (applying inline when no
writer thread runs), ``shed`` rejects the update and counts it,
``flush`` forces an immediate synchronous commit to make room.

**One commit path.**  :meth:`IndexService._commit` is the only place a
batch becomes a version: fence → coalesce → guarded apply (with its
scoped post-check) → log → publish → account, in that order.  Durability,
the adaptive plane and replication are optional **parts** the service
holds and those steps call by name — ``service.store``
(:class:`repro.store.service.ServiceStore`, from ``store_dir=``),
``service.adaptive`` (:class:`repro.adaptive.service.AdaptivePlane`, from
``adaptive=AdaptiveConfig()``) and the WAL tail of a
:class:`repro.replication.FollowerIndexService` — and their public names
read through the service (``service.wal``, ``service.cache``), so a
capability is present exactly when its part is.  DESIGN.md §4 has the
invariants the order buys.

Everything the service does is tallied both in :class:`ServiceStats`
and through the process-wide :mod:`repro.obs` observer (``service.*``
counters/histograms), so a traced serve run shows queue pressure,
coalescing wins, commit latency and staleness side by side with the
maintenance spans underneath.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Optional

from repro.exceptions import (
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    StalePrimaryError,
    StoreError,
)
from repro.graph.datagraph import DataGraph
from repro.index.structure import Structure, build_structure
from repro.maintenance import maintainer_for
from repro.maintenance.operations import FAMILIES, OPERATIONS
from repro.obs import current as current_obs
from repro.query.automaton import PathNfa
from repro.query.evaluator import EvaluationReport
from repro.query.path_expression import PathExpression
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import GuardConfig, GuardedMaintainer
from repro.resilience.journal import TouchedSet
from repro.service.queue import BoundedQueue, CoalesceStats, Update, coalesce
from repro.service.snapshot import IndexSnapshot

ADMISSION_POLICIES = ("block", "shed", "flush")

@dataclass(frozen=True)
class ServiceConfig:
    """How an :class:`IndexService` batches, admits and guards updates."""

    #: which index family a fresh service builds: ``one`` (1-index) or
    #: ``ak``; a recovered, bootstrapped or promoted service serves the
    #: structure it adopts, whatever this says (``service.structure``)
    family: str = "one"
    #: leaf level of a freshly built ``ak`` family (ignored for ``one``)
    k: int = 2
    #: most operations drained into one batch (the commit unit)
    batch_max_ops: int = 64
    #: queue capacity before admission control engages (0 = unbounded)
    queue_capacity: int = 256
    #: full-queue policy: ``block`` / ``shed`` / ``flush``
    admission: str = "block"
    #: cancel/dedup batch operations before applying them
    coalesce: bool = True
    #: failure policy for batch transactions (``degrade`` keeps serving
    #: through faults at reconstruction cost; see repro.resilience)
    guard: GuardConfig = field(default_factory=lambda: GuardConfig(policy="degrade"))
    #: background-writer poll interval while the queue is empty (seconds)
    writer_idle_wait: float = 0.05

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ServiceError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.admission not in ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        if self.batch_max_ops < 1:
            raise ServiceError("batch_max_ops must be >= 1")


@dataclass
class ServiceStats:
    """Lifetime counts of one service (mirrors the ``service.*`` metrics).

    Latencies and queries per version are samples, not counts: they are
    the ``service.batch_commit_seconds``, ``service.query_seconds`` and
    ``service.queries_per_version`` histograms of the observer.
    """

    queries: int = 0
    #: of those, answers that went through Section 3's validation against
    #: the data graph (a cached validated answer served again included)
    queries_validated: int = 0
    submitted: int = 0
    shed: int = 0
    forced_flushes: int = 0
    batches: int = 0
    batch_failures: int = 0
    applied_ops: int = 0
    versions_published: int = 0
    coalescing: CoalesceStats = field(default_factory=CoalesceStats)


@dataclass
class ServedQuery:
    """A query answer plus the version that produced it."""

    report: EvaluationReport
    version: int

    @property
    def matches(self) -> frozenset[int]:
        """The dnode result set."""
        return self.report.matches


@dataclass
class BatchResult:
    """What one commit did."""

    version: int
    drained: int
    applied: int
    coalesced_away: int
    seconds: float
    failed: bool = False
    #: the batch carried a ``reconstruct`` operation
    reconstructed: bool = False


class IndexService:
    """One data graph + structural index, served behind snapshots.

    The service **owns** its graph and maintainer: mutate only through
    :meth:`submit` / :meth:`flush`.  Construction builds the configured
    structure from the graph's current state — or adopts *maintainer*
    with the structure it already maintains over *graph*, checkpoint-loaded
    rather than rebuilt — and publishes it as *initial_version*.

    *store_dir* (with *store_config*) attaches a store over a fresh
    directory and writes checkpoint 0, so the service is recoverable
    from its first commit (an initialised directory is refused: use
    :meth:`recover`); *adaptive*, an ``AdaptiveConfig``, attaches the
    adaptive plane.  The two compose.

    *fault_injector* is threaded into every batch transaction and into
    the store (soak testing); production leaves it ``None``.
    """

    def __init__(
        self,
        graph: DataGraph,
        config: Optional[ServiceConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        maintainer: Optional[object] = None,
        initial_version: int = 0,
        *,
        store_dir: Optional[str] = None,
        store_config: Optional[object] = None,
        adaptive: Optional[object] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.graph = graph
        #: the store part, or ``None`` for a volatile service
        self.store = None
        #: the adaptive part, or ``None`` for plain snapshot evaluation
        self.adaptive = None
        if maintainer is None:
            maintainer = maintainer_for(
                build_structure(graph, self.config.family, self.config.k)
            )
        elif maintainer.graph is not graph:
            raise ServiceError("adopted maintainer wraps a different graph")
        self.guarded = GuardedMaintainer(maintainer, self.config.guard, fault_injector)
        #: the live 1-index or A(k) family; its ``kind`` / ``k`` are this service's
        self.structure: Structure = self.guarded.structure
        self._touched = TouchedSet()
        self.guarded.track_touched(self._touched)
        self.queue = BoundedQueue(self.config.queue_capacity)
        self.stats = ServiceStats()
        self._writer_lock = threading.Lock()  # the single-writer discipline
        self._queries_this_version = 0
        self._query_count_lock = threading.Lock()
        self._closed = False
        self._fenced_epoch: Optional[int] = None  # set by fence(); see below
        #: why the live pair is ahead of the log, once a log stage failed
        self._diverged: Optional[str] = None
        self._writer_thread: Optional[threading.Thread] = None
        self._writer_stop = threading.Event()
        self._telemetry = None  # LiveTelemetry bundle, see start_telemetry()
        #: newest version at which a full check or an audit cycle completed
        self._last_audit_version: Optional[int] = None
        self._snapshot = IndexSnapshot.capture(initial_version, graph, self.structure)
        self.stats.versions_published = 1
        # the parts build on this module, so their imports are late
        if adaptive is not None:
            from repro.adaptive.service import AdaptivePlane

            self.adaptive = AdaptivePlane(self, adaptive)
        if store_dir is not None:
            from repro.store.service import ServiceStore

            self.store = ServiceStore.create(self, store_dir, store_config, fault_injector)

    # the public names of the parts read through the service; without the
    # part they raise AttributeError, so ``hasattr`` is the capability check
    wal = property(attrgetter("store.wal"))
    checkpointer = property(attrgetter("store.checkpointer"))
    store_dir = property(attrgetter("store.store_dir"))
    recovery = property(attrgetter("store.recovery"))
    cache = property(attrgetter("adaptive.cache"))
    router = property(attrgetter("adaptive.router"))
    controller = property(attrgetter("adaptive.controller"))
    audits = property(attrgetter("adaptive.audits"))
    ladder_sizes = property(attrgetter("adaptive.ladder_sizes"))
    set_ladder_levels = property(attrgetter("adaptive.set_ladder_levels"))
    reconstruct_now = property(attrgetter("adaptive.reconstruct_now"))

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published version (atomic reference read)."""
        return self._snapshot

    @property
    def version(self) -> int:
        """Version number of the currently published snapshot."""
        return self._snapshot.version

    def query(self, query: "str | PathExpression | PathNfa") -> ServedQuery:
        """Answer a path expression from the current snapshot.

        Never blocks on the writer; the answer is exact for the version
        it names (1-index precision, or A(k) + validation against the
        snapshot's own frozen graph).  With the adaptive part attached
        only the evaluation surface differs: router, ladder and cache.
        """
        if self.adaptive is not None:
            return self.adaptive.answer(query)
        snapshot = self._snapshot  # one atomic grab; evaluate only this
        started = time.perf_counter()
        report = snapshot.evaluate(query)
        self._record_query(time.perf_counter() - started, snapshot.version)
        self.stats.queries_validated += report.validated
        return ServedQuery(report=report, version=snapshot.version)

    def _record_query(self, elapsed: float, version: int) -> None:
        """Tally one served query against the version that answered it."""
        obs = current_obs()
        self.stats.queries += 1
        with self._query_count_lock:
            if version == self._snapshot.version:
                self._queries_this_version += 1
            # else: served a just-retired version; its count was already
            # observed into service.queries_per_version by the publisher
        obs.add("service.queries")
        obs.observe("service.query_seconds", elapsed)

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    def submit(self, update: Update) -> bool:
        """Enqueue one update under the configured admission policy.

        Returns whether the update was admitted (``shed`` is the only
        policy that can return ``False``).
        """
        self._check_admissible(update)
        obs = current_obs()
        # stamp the submitter's trace context so the writer-side commit
        # span stays a descendant of whatever span enqueued the work
        context = obs.trace_context()
        if context is not None and update.trace_parent is None:
            update = replace(update, trace_parent=context)
        while not self.queue.offer(update):
            policy = self.config.admission
            if policy == "shed":
                self.stats.shed += 1
                obs.add("service.shed")
                return False
            if policy == "flush" or self._writer_thread is None:
                # force-flush — or block with nobody else to drain: the
                # submitter becomes the writer for one synchronous batch
                self.stats.forced_flushes += 1
                obs.add("service.forced_flushes")
                self.flush()
            else:
                self.queue.wait_not_full(timeout=self.config.writer_idle_wait)
        self.stats.submitted += 1
        obs.add("service.submitted")
        obs.set("service.queue_depth", len(self.queue))
        obs.set_max("service.queue_peak", len(self.queue))
        return True

    def submit_nowait(self, update: Update) -> None:
        """Enqueue or raise :class:`QueueFullError` (no policy applied)."""
        self._check_admissible(update)
        if not self.queue.offer(update):
            raise QueueFullError(self.queue.capacity)
        self.stats.submitted += 1

    def _check_admissible(self, update: Update) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed")
        self._check_fence()
        self._check_diverged()
        if self.structure.kind not in OPERATIONS[update.op].families:
            raise ServiceError(
                f"{update.op!r} is not an operation of family "
                f"{self.structure.kind!r} (an A(k) family is never reconstructed: "
                "its maintenance keeps the unique minimum, Theorem 2)"
            )

    def flush(self) -> Optional[BatchResult]:
        """Drain, coalesce, apply and publish one batch synchronously.

        Returns ``None`` when the queue was empty.  A batch whose
        transaction fails terminally (policy ``raise``) re-raises after
        rollback — the published snapshot is untouched either way.
        """
        with self._writer_lock:
            self._check_diverged()
            batch = self.queue.drain(self.config.batch_max_ops)
            if not batch:
                return None
            result = self._commit(batch)
        self._after_commit(result)
        return result

    def drain(self) -> list[BatchResult]:
        """Flush until the queue is empty; returns every batch committed.

        None once a log stage has failed: what is queued then never
        commits (:meth:`stop` and :meth:`close` still have to work).
        """
        results = []
        while self._diverged is None and (result := self.flush()) is not None:
            results.append(result)
        return results

    def fence(self, epoch: int) -> None:
        """Demote this service: refuse every write from now on.

        Called on the old primary when failover promotes a follower at
        *epoch*.  Queries keep working (they are merely stale); any
        :meth:`submit` or commit raises
        :class:`~repro.exceptions.StalePrimaryError`.  The in-memory
        flag is the fast path — a store additionally re-reads its epoch
        file before every log append, which catches the partitioned
        zombie that never heard the :meth:`fence` call.
        """
        self._fenced_epoch = epoch
        current_obs().event("service.fenced", epoch=epoch)

    @property
    def fenced(self) -> bool:
        """Has this service been demoted by a failover?"""
        return self._fenced_epoch is not None

    def _check_fence(self) -> None:
        if self._fenced_epoch is not None:
            raise StalePrimaryError(self._fenced_epoch - 1, self._fenced_epoch)

    def _check_diverged(self) -> None:
        """Refuse to write once the live pair is ahead of the log.

        The next publish would serve, and the next checkpoint persist,
        effects no log record carries — a state no recovery and no
        follower can reproduce.
        """
        if self._diverged is not None:
            raise StoreError(
                f"a commit failed between apply and publish ({self._diverged}): "
                "the live state is ahead of the log and is never published; "
                "close this service and recover from the store"
            )

    def _commit(self, batch: list[Update], replayed: bool = False) -> BatchResult:
        """Turn one batch into the next version (writer lock held).

        The only place that happens, in this order: fence → coalesce →
        serialise the log record → guarded apply with its scoped
        post-check → log → publish → account.  A raise while serialising
        or applying is a failed batch: nothing applied, logged or
        published, the touched set in place, the service healthy.  A
        raise in log leaves the batch applied but neither logged nor
        published: the service stops writing for good (see
        :meth:`_check_diverged`) and keeps answering the last published
        version; :meth:`recover` returns that state.  Empty batches are
        logged and published too, which keeps versions and LSNs in
        lockstep.  *replayed* marks a record a replica received from its
        primary's log: it was coalesced where it was first committed and
        is applied verbatim.
        """
        self._check_fence()
        obs = current_obs()
        guard = self.guarded.invariants
        whole_graph_verdicts = guard.audits + guard.checks_full
        if self.config.coalesce and not replayed:
            survivors, pass_stats = coalesce(batch, self.graph)
            self.stats.coalescing.merge(pass_stats)
            obs.add("service.coalesced_away", pass_stats.removed)
        else:
            survivors = batch
        started = time.perf_counter()
        obs.set("service.queue_depth", len(self.queue))
        # stitch the commit under the (first) submitter's span: the batch
        # may mix producers, so the earliest stamped context wins and the
        # rest stay reachable through the shared commit span
        parent = next((u.trace_parent for u in batch if u.trace_parent is not None), None)
        span = obs.span("service.commit", drained=len(batch), applied=len(survivors))
        if parent is not None:
            span.set_parent(parent)
        with span:
            calls = [u.as_call() for u in survivors]
            try:
                # lowered before anything changes: a batch the log cannot
                # carry fails here, like one the maintainer cannot apply
                record = self.store.encode(calls) if self.store is not None else None
                if calls:
                    self.guarded.apply_batch(calls)
            except Exception:
                # rolled back: graph/index/snapshot all still consistent,
                # but the batch's effects are lost — surface that loudly
                self.stats.batch_failures += 1
                obs.add("service.batch_failures")
                raise
            if record is not None:
                try:
                    self.store.log(self, *record)
                except Exception as exc:
                    self._diverged = f"{type(exc).__name__}: {exc}"
                    obs.event("service.diverged", error=self._diverged)
                    raise
            publish_started = time.perf_counter()
            snapshot = self._publish_next()
            obs.observe(
                "service.publish_seconds", time.perf_counter() - publish_started
            )
        # stamped by the commit whose own check ended a cycle or was a full
        # one — not by one that coalesced to nothing
        if guard.last_audit_ok and guard.audits + guard.checks_full > whole_graph_verdicts:
            self._last_audit_version = snapshot.version
        elapsed = time.perf_counter() - started
        self.stats.batches += 1
        self.stats.applied_ops += len(survivors)
        obs.add("service.batches")
        obs.add("service.applied_ops", len(survivors))
        obs.observe("service.batch_ops", len(survivors))
        obs.observe("service.batch_commit_seconds", elapsed)
        return BatchResult(
            version=snapshot.version,
            drained=len(batch),
            applied=len(survivors),
            coalesced_away=len(batch) - len(survivors),
            seconds=elapsed,
            reconstructed=Update.reconstruct() in survivors,
        )

    def _after_commit(self, result: BatchResult) -> None:
        """What follows a commit once the writer lock is released."""
        if self.adaptive is not None:
            self.adaptive.controller.on_commit(result)

    @staticmethod
    def recover(
        store_dir: str,
        config: Optional[ServiceConfig] = None,
        store_config: Optional[object] = None,
        fault_injector: Optional[FaultInjector] = None,
        check_level: str = "valid",
        adaptive: Optional[object] = None,
    ) -> "IndexService":
        """Reopen a store: checkpoint + WAL replay + invariant post-check.

        The recovered service continues exactly where the last published
        version left off — same version number, same graph, same index
        partition (byte-identical wire dumps; the torture tests assert
        it).  *config* tunes serving; the structure served, its kind and
        ``k`` are the store's; *adaptive* attaches the adaptive plane,
        which is rebuilt, not recovered.
        """
        from repro.store import service as store

        result = store.recover(store_dir, check_level=check_level)
        service = IndexService(
            result.graph,
            config,
            fault_injector,
            maintainer=result.maintainer,
            initial_version=result.version,
            adaptive=adaptive,
        )
        service.store = store.ServiceStore.reopen(
            store_dir, store_config, fault_injector, recovery=result
        )
        # recovery's post-check is this state's first full check, if it
        # went as deep as the guard's; else the first audit cycle stamps
        if service.guarded.invariants.adopt_full_check(check_level):
            service._last_audit_version = result.version
        return service

    def _publish_next(self) -> IndexSnapshot:
        """Publish the live state as the next version (writer lock held).

        The next snapshot evolves the published one by the batch's
        touched set (a full capture when a degrade rebuild renamed every
        inode).  The adaptive part derives what the batch changed before
        the swap and carries its cache across only after it, so a reader
        never meets an entry stamped with a version it cannot see.  The
        touched accumulator resets last: an exception anywhere before
        leaves the touches in place, so the next successful publish
        still re-captures everything the lost one perturbed.
        """
        obs = current_obs()
        snapshot = IndexSnapshot.evolve(
            self._snapshot, self._snapshot.version + 1, self.graph, self._touched, self.structure
        )
        if self.adaptive is not None:
            changed = self.adaptive.stage(snapshot, self._touched)
        with self._query_count_lock:  # the swap; retires the old version's count
            retired = self._queries_this_version
            self._queries_this_version = 0
            self._snapshot = snapshot
        if self.adaptive is not None:
            self.adaptive.advance(snapshot.version, *changed)
        self._touched.clear()
        self.stats.versions_published += 1
        obs.observe("service.queries_per_version", retired)
        obs.add("service.versions")
        if obs.enabled:  # sizing the index is O(#inodes): only for a live gauge
            obs.set("graph.bytes", self.graph.approx_bytes())
            obs.set("index.bytes", self.structure.approx_bytes())
        return snapshot

    # ------------------------------------------------------------------
    # Background writer
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background writer thread (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._writer_thread is not None:
            return
        self._writer_stop.clear()
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="repro-index-writer", daemon=True
        )
        self._writer_thread.start()

    def stop(self) -> None:
        """Stop the writer thread and drain whatever is still queued."""
        thread = self._writer_thread
        if thread is None:
            return
        self._writer_stop.set()
        thread.join()
        self._writer_thread = None
        self.drain()

    def checkpoint(self) -> str:
        """Snapshot the live pair into the store now; truncate the WAL behind it.

        Serialises against the writer: taken mid-commit (a background
        writer thread, or another thread flushing), an unlocked snapshot
        could pair a half-applied graph/index with a racing WAL position
        and then truncate segments the published state still needs.
        """
        if self.store is None:
            raise ServiceError("checkpoint() needs a store (store_dir=)")
        with self._writer_lock:
            self._check_diverged()
            return self.store.checkpoint(self, self.version)

    def close(self, checkpoint: bool = True) -> None:
        """Stop serving: drain outstanding work, reject new submissions.

        A store then writes a closing checkpoint, which makes the next
        :meth:`recover` a pure checkpoint load (no replay) — pass
        ``checkpoint=False`` to exercise the replay path or to model an
        unclean shutdown — and closes its WAL.  A service whose log
        stage failed writes none: the store keeps the last published
        state.
        """
        self.stop()
        self.drain()
        self.stop_telemetry()
        self._closed = True
        if self.store is not None:
            if checkpoint and self._diverged is None:
                self.checkpoint()
            self.store.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def start_telemetry(self, **kwargs) -> "object":
        """Attach a live telemetry plane to this service (idempotent).

        Builds a :class:`repro.obs.export.LiveTelemetry` bundle —
        sliding-window metrics attached to the current observer, an SLO
        watchdog, optionally a flight recorder (``dump_dir=``) — and
        starts its ``/metrics`` + ``/health`` HTTP endpoint (``port=0``
        picks an ephemeral port; pass ``serve=False`` for windows-only
        operation).  Keyword
        arguments are forwarded to ``LiveTelemetry``; the bundle is
        stopped by :meth:`close` or an explicit :meth:`stop_telemetry`.
        The adaptive part adds its SLO rules unless the caller supplied
        their own.  The rules are operator alerts (``slo.breach`` /
        ``slo.recovered`` events and ``/health``); nothing on the write
        path reads them.

        Returns the bundle (read ``.port`` / ``.url`` / ``.health()``).
        """
        if self._telemetry is not None:
            return self._telemetry
        from repro.obs.export import LiveTelemetry
        from repro.obs.slo import default_adaptive_rules, default_service_rules

        if self.adaptive is not None:
            kwargs.setdefault("rules", default_service_rules() + default_adaptive_rules())
        self._telemetry = LiveTelemetry(service=self, **kwargs)
        self._telemetry.start()
        return self._telemetry

    def stop_telemetry(self) -> None:
        """Tear down the telemetry bundle started by :meth:`start_telemetry`."""
        if self._telemetry is not None:
            self._telemetry.stop()
            self._telemetry = None

    def health(self) -> dict:
        """Liveness facts for the ``/health`` endpoint, one section per part.

        It runs on the telemetry server's thread without the writer lock
        (``/health`` must answer while a writer is stuck), so it sizes the
        published version, which no commit changes, never the live dicts
        the writer is mutating; byte sizes are the per-publish
        ``graph.bytes`` / ``index.bytes`` gauges on ``/metrics``.
        """
        guard = self.guarded.invariants
        audited = self._last_audit_version
        snapshot = self._snapshot
        doc = {
            "family": self.structure.kind,
            "k": self.structure.k,
            "version": snapshot.version,
            "closed": self._closed,
            "writer_alive": (
                self._writer_thread is not None and self._writer_thread.is_alive()
            ),
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "admission": self.config.admission,
            "queries": self.stats.queries,
            "queries_validated": self.stats.queries_validated,
            "submitted": self.stats.submitted,
            "shed": self.stats.shed,
            "batches": self.stats.batches,
            "batch_failures": self.stats.batch_failures,
            "diverged": self._diverged,
            "versions_published": self.stats.versions_published,
            "num_dnodes": snapshot.graph.num_nodes,
            "num_inodes": snapshot.index.num_inodes,
            "last_audit_version": audited,
            "last_audit_ok": guard.last_audit_ok,
            # commits published since that version (or, before one, by this service)
            "commits_since_audit": (
                self.stats.versions_published - 1
                if audited is None
                else snapshot.version - audited
            ),
            "checks_local": guard.checks_local,
            "checks_full": guard.checks_full,
            **guard.audit_progress(self.graph),
        }
        if self.store is not None:
            doc["store"] = self.store.health()
        if self.adaptive is not None:
            doc["adaptive"] = self.adaptive.health()
        return doc

    def _writer_loop(self) -> None:
        """The background single writer: batch up, commit, repeat."""
        while not self._writer_stop.is_set():
            if len(self.queue) == 0:
                self.queue.wait_not_empty(timeout=self.config.writer_idle_wait)
                continue
            self.flush()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Assert the live graph/index pair is internally consistent.

        Runs the guard's whole-graph check at the configured depth (the
        one recovery runs, and the audit cursor spreads over a cycle of
        commits) and raises :class:`~repro.exceptions.InvariantViolationError`.  The
        soak suite calls this after fault-injected runs to prove the
        service never served from, nor left behind, corrupt state.
        """
        with self._writer_lock:
            self.guarded.invariants.check(self.graph, self.structure)
            self._last_audit_version = self.version

    def queue_depth(self) -> int:
        """Updates currently waiting for the writer."""
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} family={self.structure.kind!r} v{self.version} "
            f"queued={len(self.queue)} inodes={self._snapshot.num_inodes}>"
        )

"""The four benchmark workloads: inputs, set-up, one cycle of load, checks.

Every workload is a single closed-loop client: the next request is sent
only after the previous one returned, no writer thread runs, and the
follower (where there is one) is synced by the same client.  A workload
is driven in whole **cycles** — the smallest repeating unit of its load
mix (one pass over the query pool for ``edge-churn``, one round for
``query-hot``, 20 document changes in a fixed 70/15/15
replace/remove/add mix for ``doc-churn-replicated``, one checkpoint
cadence for ``ingest-recover-large``) — so a time-bounded run
always ends on a cycle boundary and sum-based metrics see the same mix.

The database is fixed (:func:`xmark_dataset`); everything that arrives
at the server — which edges are pooled and when they come and go, which
documents change and how, the order and draws of the queries — comes
from the repo's own generators driven by ``--seed``.

Queries come from one pool per workload: the distinct expressions of a
2000-walk ``QueryWorkload`` over the served graph, (nearly) its whole set
of label paths, in a fixed pseudo-random (hash) order.  The 1-index and
document workloads serve a fixed-size, fixed-mix prefix of it
(:func:`query_mix`) exactly once per cycle, in a seeded order, so
``query_*`` never depends on which expressions a run happened to draw;
``query-hot`` draws Zipf(1) with replacement over the whole pool, rank =
hash order.

Everything a workload does outside the ``clock()`` pairs — drawing the
next operation, mutating a document text, probing the CPU's speed,
auditing an answer — is the harness's and is never inside a reported
latency.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from repro.adaptive import AdaptiveIndexService
from repro.corpus import CorpusService
from repro.corpus.builder import CorpusBuilder, corpus_graph_fingerprint
from repro.corpus.churn import mutate_document
from repro.graph.datagraph import EdgeKind
from repro.index.construction import bisimulation_partition
from repro.index.stability import is_minimal_1index, is_refinement
from repro.query.evaluator import evaluate_on_graph
from repro.replication import (
    FollowerIndexService,
    Primary,
    ReplicaRouter,
    ReplicationLink,
)
from repro.service import IndexService, ServiceConfig
from repro.service.queue import Update
from repro.store import StoreConfig, encode_record, list_segments
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

from bench import calibrate, spec

clock = time.perf_counter

#: one served answer in this many is re-derived from the frozen graph
AUDIT_EVERY = 20


def xmark_dataset(multiplier: int, divisor: int):
    """*The* dataset: XMark(1) at *multiplier*/*divisor* of every default count.

    Generated with the generator's own default seed on every run: the
    database is the fixed part of the benchmark, ``--seed`` drives what
    arrives at the server (update schedule, document mutations, query
    order and draws).  With a per-seed database, what an expression costs
    and which documents are large changed from seed to seed, and ten
    seeds' ``query_*`` spread by 0.15–0.28 of their median — most of a
    regression bound spent on telling databases apart.
    """
    base = XMarkConfig()

    def scaled(count: int) -> int:
        return max(8, count * multiplier // divisor)

    return generate_xmark(XMarkConfig(
        num_items=scaled(base.num_items),
        num_persons=scaled(base.num_persons),
        num_open_auctions=scaled(base.num_open_auctions),
        num_closed_auctions=scaled(base.num_closed_auctions),
        num_categories=scaled(base.num_categories),
    ))


def text_hash(text: str) -> int:
    """A process-independent hash of an expression's text."""
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


def expression_pool(graph) -> list[str]:
    """The distinct expressions of a 2000-walk workload, in hash order.

    2000 walks find (nearly) every label path of the graph.  Hash order
    is a fixed pseudo-random order of the *texts*, so a prefix of the
    pool is an unbiased sample that does not change when the walks do.
    """
    walks = QueryWorkload.generate(graph, count=2000, max_depth=4)
    return sorted(set(walks.expressions), key=text_hash)


def query_mix(pool: list[str], size: int) -> list[str]:
    """The first *size* pool expressions at the walk generator's own mix.

    ``QueryWorkload`` reshapes 35 % of its walks into descendant-axis
    expressions; among *distinct* expressions they are the majority, and
    they cost 10–100× a child-only path, so a median over the raw pool
    sits on the boundary between the two kinds.  Fixing the share keeps
    the median inside the child-only majority.
    """
    descendant = [text for text in pool if "//" in text]
    child_only = [text for text in pool if "//" not in text]
    wanted = round(size * 0.35)
    return child_only[: size - wanted] + descendant[:wanted]


def dealt(items: list, hands: int) -> list[list]:
    """*items* dealt round-robin into *hands* lists (sizes differ by at most 1)."""
    return [items[start::hands] for start in range(hands)]


@dataclass
class Outcome:
    """Operations attempted and failed over the whole run (all phases)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str, weight: int = 1) -> None:
        """Count one checked expectation; a false one is *weight* failures."""
        self.attempted += max(1, weight)
        if not ok:
            self.fail(what, weight)

    def fail(self, what: str, weight: int = 1) -> None:
        self.failed += max(1, weight)
        if len(self.notes) < 20:
            self.notes.append(what)


@dataclass
class Recorder:
    """Latency samples and tallies of one measured (or warm-up) phase."""

    outcome: Outcome
    tracer: Optional[object] = None
    update_s: list[float] = field(default_factory=list)
    #: tracer op id of each update sample (checkpoint-stall attribution)
    update_ops: list[int] = field(default_factory=list)
    replica_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    #: calibration-kernel seconds sampled between requests (bench/calibrate.py)
    kernel_s: list[float] = field(default_factory=list)
    lag_lsns_max: int = 0
    cycles: int = 0
    rounds: int = 0
    wall_s: float = 0.0

    def probe(self) -> None:
        """Sample the CPU's current speed (call between requests only)."""
        self.kernel_s.append(calibrate.probe())

    def begin_op(self) -> int:
        """Open the next logical operation; spans recorded now share its id."""
        if self.tracer is None:
            return 0
        self.tracer.op_id += 1
        return self.tracer.op_id

    def update(self, op_id: int, seconds: float, submitted: int, results: list) -> None:
        """One logical change became visible on the primary."""
        self.update_s.append(seconds)
        self.update_ops.append(op_id)
        counts = self.counts
        counts["ops_visible"] += submitted
        counts["batches"] += len(results)
        for result in results:
            counts["ops_drained"] += result.drained
            counts["ops_applied"] += result.applied
            counts["coalesced_away"] += result.coalesced_away
        self.outcome.attempted += max(1, submitted)
        failed_batches = sum(1 for result in results if result.failed)
        if failed_batches:
            self.outcome.fail(f"{failed_batches} batch(es) reported failed", failed_batches)

    def serve(self, front, expression: str, sources: tuple) -> None:
        """Time one query through *front*; audit every AUDIT_EVERY-th answer.

        *sources* are the services that may have answered (the audit
        needs the answering version's frozen graph).
        """
        self.begin_op()
        self.outcome.attempted += 1
        start = clock()
        try:
            served = front.query(expression)
        except Exception as exc:  # noqa: BLE001 - harness boundary: count and go on
            self.outcome.fail(f"query {expression!r} raised {exc!r}")
            return
        self.query_s.append(clock() - start)
        report = served.report
        counts = self.counts
        counts["queries"] += 1
        counts["validated"] += bool(report.validated)
        counts["empty"] += not report.matches
        counts["nodes_visited"] += report.nodes_visited
        counts["matches"] += len(report.matches)
        if counts["queries"] % AUDIT_EVERY == 0:
            frozen = next(
                (s.snapshot.graph for s in sources if s.version == served.version), None
            )
            if frozen is None:
                self.outcome.fail(f"no service still holds answering version {served.version}")
            elif evaluate_on_graph(frozen, expression).matches != report.matches:
                self.outcome.fail(
                    f"wrong answer for {expression!r} at version {served.version}"
                )


def digest(service: IndexService) -> str:
    """SHA-256 of the published snapshot's canonical serialization."""
    return hashlib.sha256(service.snapshot.fingerprint()).hexdigest()


class Workload:
    """Common shape; see the module docstring for the cycle contract."""

    name = ""
    #: cycles of the issue's fixed-count run (the scale extensive
    #: per-layer metrics are normalised to)
    nominal_cycles = 0
    rounds_per_cycle = 1
    warmup_rounds = 2
    recoveries = 0

    def __init__(self, seed: int, divisor: int = 1):
        """Generate the inputs: *seed* drives the traffic, *divisor*
        shrinks the database (``--smoke``)."""
        self.rng = random.Random(seed)
        self.primary: Optional[IndexService] = None
        self.follower: Optional[FollowerIndexService] = None
        self.corpus: Optional[CorpusService] = None
        self.front = None

    # -- the harness calls these in order ------------------------------

    def fresh(self) -> object:
        """Untimed: the materials one cold set-up consumes."""
        raise NotImplementedError

    def setup(self, materials: object, workdir: str) -> None:
        """Timed: generated inputs handed over → ready to serve."""
        raise NotImplementedError

    def warm_up(self, rec: Recorder) -> None:
        """Before the timed phase: every expression once (compiled-path
        cache, lazily built structures), then a few commits.  Its samples
        go to a recorder nobody reads; its failures still count."""
        raise NotImplementedError

    def cycle(self, rec: Recorder) -> None:
        """One whole unit of the load mix (``rounds_per_cycle`` rounds)."""
        raise NotImplementedError

    def services(self) -> list[IndexService]:
        return [s for s in (self.primary, self.follower) if s is not None]

    def verify_final(self, outcome: Outcome) -> dict:
        """Untimed end-state oracles; returns ``{"quality": …}``."""
        primary = self.primary
        facts = {"quality": 0.0}
        if primary.config.family == "one":
            index = primary.guarded.index
            minimum = bisimulation_partition(primary.graph)
            outcome.expect(is_minimal_1index(index), "final 1-index is not minimal")
            # a valid 1-index refines the minimum; equal size means equal partition
            outcome.expect(
                is_refinement(index.as_blocks(), minimum),
                "final 1-index does not refine the from-scratch minimum",
            )
            facts["quality"] = index.num_inodes / len(set(minimum.values())) - 1.0
        else:
            # Theorem 2: every level equals the from-scratch construction
            outcome.expect(
                primary.guarded.family.is_minimum(),
                "final A(k) family differs from a from-scratch rebuild",
            )
        return facts

    def teardown(self) -> None:
        for service in self.services():
            if hasattr(service, "wal"):
                service.close(checkpoint=False)
            else:
                service.close()
        self.primary = self.follower = self.front = self.corpus = None


# ----------------------------------------------------------------------
# edge-churn / query-hot: IDREF edge batches on one XMark graph
# ----------------------------------------------------------------------


class _EdgeWorkload(Workload):
    ops_per_round = 0
    queries_per_round = 0
    queries_first = False

    def __init__(self, seed: int, divisor: int = 1):
        super().__init__(seed, divisor)
        dataset = xmark_dataset(1, divisor)
        schedule = MixedUpdateWorkload.prepare(
            dataset.graph, pool_fraction=0.2, seed=seed
        )
        self.graph = dataset.graph
        # the pool refills as fast as it drains, so the stream never ends
        self.ops = schedule.steps(1 << 60)
        self.expressions = expression_pool(dataset.graph)

    def fresh(self) -> object:
        return self.graph.copy()

    def warm_up(self, rec: Recorder) -> None:
        self._serve(rec, self.expressions)
        for _ in range(self.warmup_rounds):
            self.round(rec, [])

    def round(self, rec: Recorder, queries: list[str]) -> None:
        if self.queries_first:
            self._serve(rec, queries)
        batch = []
        for _ in range(self.ops_per_round):
            kind, source, target = next(self.ops)
            if kind == "insert":
                batch.append(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                batch.append(Update.delete_edge(source, target))
        service = self.primary
        rec.probe()
        op_id = rec.begin_op()
        result = None
        start = clock()
        try:
            for update in batch:
                if not service.submit(update):
                    rec.outcome.fail("update shed by admission control")
            result = service.flush()
        except Exception as exc:  # noqa: BLE001 - harness boundary
            rec.outcome.fail(f"commit raised {exc!r}", len(batch))
        rec.update(op_id, clock() - start, len(batch), [result] if result else [])
        rec.rounds += 1
        if not self.queries_first:
            self._serve(rec, queries)

    def _serve(self, rec: Recorder, queries: list[str]) -> None:
        sources = (self.primary,)
        rec.probe()
        for expression in queries:
            rec.serve(self.front, expression, sources)


class EdgeChurn(_EdgeWorkload):
    name = spec.EC
    nominal_cycles = 20
    rounds_per_cycle = 6
    ops_per_round = 16
    queries_per_round = 10

    def __init__(self, seed: int, divisor: int = 1):
        super().__init__(seed, divisor)
        self.expressions = query_mix(
            self.expressions, self.rounds_per_cycle * self.queries_per_round
        )

    def setup(self, materials: object, workdir: str) -> None:
        self.primary = self.front = IndexService(materials, ServiceConfig(family="one"))

    def cycle(self, rec: Recorder) -> None:
        # one pass over the mix, ten queries after each commit
        order = self.rng.sample(self.expressions, len(self.expressions))
        for queries in dealt(order, self.rounds_per_cycle):
            self.round(rec, queries)


class QueryHot(_EdgeWorkload):
    name = spec.QH
    nominal_cycles = 40
    ops_per_round = 4
    # enough reads between commits (each invalidates) for a hit rate near
    # 0.75, so the median query is squarely a cache hit, not on the edge
    queries_per_round = 300
    queries_first = True

    def __init__(self, seed: int, divisor: int = 1):
        super().__init__(seed, divisor)
        # Zipf(1), rank = hash order: which expressions are hot is a
        # property of the workload, the seed drives the arrivals
        self.cum_weights = list(
            accumulate(1.0 / rank for rank in range(1, len(self.expressions) + 1))
        )

    def setup(self, materials: object, workdir: str) -> None:
        self.primary = self.front = AdaptiveIndexService(
            materials, ServiceConfig(family="ak", k=4)
        )

    def cycle(self, rec: Recorder) -> None:
        self.round(rec, self.rng.choices(
            self.expressions, cum_weights=self.cum_weights, k=self.queries_per_round
        ))


# ----------------------------------------------------------------------
# doc-churn-replicated / ingest-recover-large: a durable document corpus
# ----------------------------------------------------------------------

#: a follower that cannot reach the primary's log end within this long is
#: a failed operation, not a hang (``catch_up`` has no deadline by default)
CATCH_UP_DEADLINE_S = 30.0

#: remove(R)/add(A) orders that never add with nothing absent
_DYCK3 = ("RARARA", "RARRAA", "RRAARA", "RRARAA", "RRRAAA")


class _CorpusWorkload(Workload):
    multiplier = 1
    documents = 64
    config = ServiceConfig()
    store = StoreConfig()
    with_follower = False
    queries_per_round = 0
    #: replaces tweak a text or graft one element, never cut (see ``_mutated``)
    grow_only_edits = False
    #: three remove + three re-add rounds per cycle (the rest replace)
    membership_churn = False
    recoveries = 3

    def __init__(self, seed: int, divisor: int = 1):
        super().__init__(seed, divisor)
        dataset = xmark_dataset(self.multiplier, divisor)
        self.pool = dataset.as_documents(self.documents)
        self.texts = dict(self.pool)
        self.absent: list[str] = []
        # split_into_documents deals XMark's six region subtrees whole to
        # the first six documents, which makes them ~3x the other 58 (and
        # their removal ~300 ops instead of ~120).  Membership churn stays
        # among the unit-sized ones, so a cycle's op volume is not decided
        # by whether a region-sized document happened to be drawn.
        typical = statistics.median(len(text) for _, text in self.pool)
        self.churnable = {doc_id for doc_id, text in self.pool if len(text) < 2 * typical}
        # the query pool walks the graph the corpus layer will actually
        # serve (attribute nodes, one shell per document), built here once
        builder = CorpusBuilder()
        builder.add_all(self.pool)
        graph, _ = builder.build()
        self.expressions = query_mix(
            expression_pool(graph), self.rounds_per_cycle * self.queries_per_round
        )
        self.store_dir = ""
        #: (segment file, size) of the active WAL segment at the last ack
        self.acked_wal: tuple[Optional[str], int] = (None, 0)

    def fresh(self) -> object:
        return self.pool

    def setup(self, materials: object, workdir: str) -> None:
        self.store_dir = os.path.join(workdir, "store")
        self.corpus = CorpusService.bulk_load(
            materials,
            config=self.config,
            store_dir=self.store_dir,
            store_config=self.store,
        )
        self.primary = self.corpus.service
        if self.with_follower:
            self.follower = FollowerIndexService.bootstrap(
                ReplicationLink(Primary(service=self.primary))
            )
            self.front = ReplicaRouter([self.follower], self.primary)
        else:
            self.front = self.corpus
        self._note_ack()

    def _note_ack(self) -> None:
        segment = self.primary.wal.active_segment
        size = 0
        if segment is not None:
            size = os.path.getsize(os.path.join(self.store_dir, segment))
        self.acked_wal = (segment, size)

    def warm_up(self, rec: Recorder) -> None:
        for lap in range(self.warmup_rounds):
            self._change(rec, "replace", [] if lap else self.expressions)

    def cycle(self, rec: Recorder) -> None:
        rounds = self.rounds_per_cycle
        kinds = ["replace"] * rounds
        if self.membership_churn:
            slots = sorted(self.rng.sample(range(rounds), 6))
            for slot, move in zip(slots, self.rng.choice(_DYCK3)):
                kinds[slot] = "remove" if move == "R" else "add"
        order = self.rng.sample(self.expressions, len(self.expressions))
        for kind, queries in zip(kinds, dealt(order, rounds)):
            self._change(rec, kind, queries)

    def _mutated(self, text: str) -> str:
        """``mutate_document``; under ``grow_only_edits`` redrawn until it is
        a text tweak or a one-element graft (one graph op either way)."""
        while True:
            mutated = mutate_document(text, self.rng)
            if not self.grow_only_edits or 0 <= mutated.count("<") - text.count("<") <= 2:
                return mutated

    def _change(self, rec: Recorder, kind: str, queries: list[str]) -> None:
        """One document change: compile+submit, drain, sync, then *queries*."""
        corpus, primary, follower = self.corpus, self.primary, self.follower
        if kind == "add":
            doc_id = self.absent.pop(self.rng.randrange(len(self.absent)))
        elif kind == "remove":
            doc_id = self.rng.choice(sorted(self.churnable.intersection(corpus.document_ids())))
            self.absent.append(doc_id)
        else:
            doc_id = self.rng.choice(corpus.document_ids())
            self.texts[doc_id] = self._mutated(self.texts[doc_id])
        text = self.texts[doc_id]

        rec.probe()
        op_id = rec.begin_op()
        submitted_before = primary.stats.submitted
        results = []
        replica_extra = 0.0
        start = clock()
        try:
            if kind == "replace":
                emitted = corpus.replace_document(doc_id, text)
                rec.counts["noop_replaces"] += emitted == 0
            elif kind == "remove":
                corpus.remove_document(doc_id)
            else:
                corpus.add_document(doc_id, text)
            primary_s = clock() - start
            # drain batch by batch, the follower syncing right behind each
            # commit, as a live tail would
            while True:
                start = clock()
                result = primary.flush()
                primary_s += clock() - start
                if result is None:
                    break
                results.append(result)
                self._note_ack()
                if follower is not None:
                    rec.lag_lsns_max = max(
                        rec.lag_lsns_max, primary.wal.last_lsn - follower.applied_lsn
                    )
                    start = clock()
                    follower.catch_up(deadline_seconds=CATCH_UP_DEADLINE_S)
                    replica_extra += clock() - start
        except Exception as exc:  # noqa: BLE001 - harness boundary
            rec.outcome.fail(f"{kind} of {doc_id} raised {exc!r}")
            return
        submitted = primary.stats.submitted - submitted_before
        rec.update(op_id, primary_s, submitted, results)
        rec.counts["doc_changes"] += 1
        rec.rounds += 1
        if follower is not None:
            rec.replica_s.append(primary_s + replica_extra)
            rec.outcome.expect(
                follower.version == primary.version and follower.lag_lsns == 0,
                f"follower at v{follower.version}, primary at v{primary.version}",
            )
        sources = tuple(self.services())
        rec.probe()
        for expression in queries:
            rec.serve(self.front, expression, sources)

    def verify_final(self, outcome: Outcome) -> dict:
        facts = super().verify_final(outcome)
        corpus = self.corpus
        builder = CorpusBuilder(corpus.attribute_nodes)
        builder.add_all((doc_id, self.texts[doc_id]) for doc_id in corpus.document_ids())
        graph, catalog = builder.build()
        outcome.expect(
            corpus.graph_fingerprint() == corpus_graph_fingerprint(graph, catalog),
            "evolved corpus graph differs from a bulk load of the surviving texts",
        )
        if self.follower is not None:
            outcome.expect(
                digest(self.follower) == digest(self.primary),
                "follower fingerprint differs from the primary's at equal LSN",
            )
        return facts

    # -- crash image + recovery ----------------------------------------

    def crash_image(self, image_dir: str) -> None:
        """Copy the store as a power cut would leave it.

        Only bytes acknowledged under ``fsync="always"`` survive: the
        active segment is cut back to its size at the last acknowledged
        flush (anything later was never synced), and half of a record
        the writer was in the middle of is appended after it.
        """
        shutil.copytree(self.store_dir, image_dir)
        segment, size = self.acked_wal
        segments = list_segments(image_dir)
        if segment is None:
            return
        for later in segments[segments.index(segment) + 1:]:
            os.unlink(os.path.join(image_dir, later))
        torn = encode_record(self.primary.wal.last_lsn + 1, [])
        with open(os.path.join(image_dir, segment), "r+b") as fp:
            fp.truncate(size)
            fp.seek(size)
            fp.write(torn[: len(torn) // 2])

    def recover_once(self, image_dir: str, acked_version: int, acked_digest: str,
                     outcome: Outcome, probes: list[float]) -> tuple[float, int]:
        """Timed: ``recover`` → first query answered.

        Returns (seconds, replayed records); CPU-speed probes taken just
        before and after the timed region are appended to *probes*.
        """
        probes.append(calibrate.probe())
        start = clock()
        service = IndexService.recover(image_dir)
        service.query(self.expressions[0])
        seconds = clock() - start
        probes.append(calibrate.probe())
        try:
            lost = acked_version - service.version
            outcome.expect(lost == 0, f"{lost} acknowledged commit(s) lost in recovery", lost)
            outcome.expect(
                digest(service) == acked_digest,
                "recovered fingerprint differs from the last acknowledged version",
            )
            return seconds, service.recovery.replayed_records
        finally:
            service.close(checkpoint=False)


class DocChurnReplicated(_CorpusWorkload):
    name = spec.DC
    nominal_cycles = 6
    rounds_per_cycle = 20
    membership_churn = True
    config = ServiceConfig(family="ak", k=2)
    # No cadenced checkpoints here: a checkpoint truncates the WAL through
    # the very record whose commit triggered it, before any follower can
    # fetch that record, and the follower then never converges (it would
    # have to re-bootstrap).  Checkpoints inside commits are
    # ingest-recover-large's job; see bench/README.md, "Findings".
    store = StoreConfig(fsync="always", checkpoint_every_records=0)
    with_follower = True
    queries_per_round = 3


class IngestRecoverLarge(_CorpusWorkload):
    name = spec.IR
    nominal_cycles = 10
    rounds_per_cycle = 4
    multiplier = 4
    warmup_rounds = 1
    config = ServiceConfig(family="one")
    store = StoreConfig(fsync="always", checkpoint_every_records=4)
    queries_per_round = 10
    # Each commit costs O(|G|) whatever it carries, and a run sees about a
    # dozen of them: one replace that cuts a 20-element subtree (dozens of
    # ops) would multiply ``updates_per_s`` — ops over time — several times.
    grow_only_edits = True


BY_NAME = {
    cls.name: cls for cls in (EdgeChurn, QueryHot, DocChurnReplicated, IngestRecoverLarge)
}

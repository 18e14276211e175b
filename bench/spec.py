"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is the driver-facing copy of this
module (``bench/tests`` asserts the two agree).  The driver's format has
one metric list for all workloads, forbids metrics that read 0, and
refuses a benchmark whose metric spreads (across ten seeds) exceed its
bound.  So only the end-to-end metrics **every** workload emits *and*
repeats are listed there; the others (replica visibility, recovery, the
tail percentiles that need ≥ 100 / ≥ 1000 samples) are still measured, bounded and compared by this harness — see
:data:`END_TO_END` — and ride in the driver's per-layer list under their
own names.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "edge-churn": (
        "write-dominated 1-index commits (16 IDREF edge ops per flush): invariant "
        "check, split/merge and publish do the work; adaptive, store, replication idle"
    ),
    "query-hot": (
        "read-dominated Zipf queries on adaptive A(4) with 4-op commits beside them: "
        "router, result cache, ladder and evaluation carry it; store, replication idle"
    ),
    "doc-churn-replicated": (
        "document replace/remove/add on a durable A(2) primary (fsync always) with one "
        "follower and routed reads: the only one exercising corpus, WAL and replication"
    ),
    "ingest-recover-large": (
        "4x working set, durable 1-index corpus: bulk build, checkpoints inside "
        "commits, crash recovery and resident bytes dominate; the scale signal"
    ),
}

EC, QH, DC, IR = WORKLOADS  # the abbreviations the README uses


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" / "higher"
    bound: float
    #: workloads that emit it
    emits: tuple[str, ...]
    #: listed under BENCHMARK.json "end_to_end": emitted by all four
    #: workloads and steady enough across seeds to gate a PR on
    driver: bool
    #: samples a percentile needs before it is reported (0 = always)
    min_samples: int = 0


_ALL = (EC, QH, DC, IR)

#: The twelve end-to-end metrics of ISSUE 12.  ``failed_ops_share`` is
#: exact (bound 0); the driver reads it as ``failed`` / ``attempted``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, _ALL, True),
    Metric("update_visible_p50_ms", "ms", "lower", 0.25, _ALL, True),
    Metric("update_visible_p90_ms", "ms", "lower", 0.25, (EC, QH, DC), False, 100),
    Metric("updates_per_s", "ops/s", "higher", 0.25, _ALL, True),
    Metric("query_p50_ms", "ms", "lower", 0.25, _ALL, True),
    Metric("query_p99_ms", "ms", "lower", 0.25, (EC, QH, DC), False, 1000),
    Metric("queries_per_s", "q/s", "higher", 0.25, _ALL, True),
    Metric("replica_visible_p50_ms", "ms", "lower", 0.25, (DC,), False),
    Metric("replica_visible_p90_ms", "ms", "lower", 0.25, (DC,), False, 100),
    Metric("recovery_s", "s", "lower", 0.25, (DC, IR), False),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, _ALL, True),
    Metric("failed_ops_share", "ratio", "lower", 0.0, _ALL, False),
)

E2E_BY_NAME = {metric.name: metric for metric in END_TO_END}
DRIVER_END_TO_END = tuple(metric for metric in END_TO_END if metric.driver)

#: (name, unit, better) of the 71 per-layer metrics, grouped by layer.
#: Extensive ones (busy seconds, counts) are scaled to the workload's
#: nominal round count so time-bounded runs of different speed compare.
PER_LAYER = (
    # corpus
    ("corpus.parse_s", "s", "lower"),
    ("corpus.compile_s", "s", "lower"),
    ("corpus.doc_changes", "count", "higher"),
    ("corpus.ops_emitted", "count", "lower"),
    ("corpus.ops_per_doc_change", "ops", "lower"),
    ("corpus.noop_replaces", "count", "lower"),
    # service
    ("service.submit_s", "s", "lower"),
    ("service.coalesce_s", "s", "lower"),
    ("service.publish_s", "s", "lower"),
    ("service.flush_self_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.batches", "count", "lower"),
    ("service.ops_drained", "count", "higher"),
    ("service.ops_applied", "count", "lower"),
    ("service.coalesced_away_share", "ratio", "higher"),
    ("service.full_captures", "count", "lower"),
    # resilience
    ("resilience.apply_batch_s", "s", "lower"),
    ("resilience.check_s", "s", "lower"),
    ("resilience.txn_self_s", "s", "lower"),
    ("resilience.checks", "count", "lower"),
    ("resilience.check_share", "ratio", "lower"),
    ("resilience.rollbacks", "count", "lower"),
    ("resilience.degradations", "count", "lower"),
    ("resilience.wire_s", "s", "lower"),
    # maintenance
    ("maintenance.apply_s", "s", "lower"),
    ("maintenance.ops", "count", "higher"),
    ("maintenance.us_per_op", "us", "lower"),
    ("maintenance.splits", "count", "lower"),
    ("maintenance.merges", "count", "lower"),
    ("maintenance.moves", "count", "lower"),
    ("maintenance.trivial_share", "ratio", "higher"),
    # index
    ("index.build_s", "s", "lower"),
    ("index.inodes", "count", "lower"),
    ("index.quality", "ratio", "lower"),
    ("index.bytes", "bytes", "lower"),
    ("index.bytes_per_dnode", "bytes", "lower"),
    # graph (incl. core)
    ("graph.dnodes", "count", "higher"),
    ("graph.dedges", "count", "higher"),
    ("graph.bytes", "bytes", "lower"),
    ("graph.bytes_per_dnode", "bytes", "lower"),
    # query
    ("query.compile_s", "s", "lower"),
    ("query.eval_s", "s", "lower"),
    ("query.validated_share", "ratio", "lower"),
    ("query.nodes_visited_per_match", "ratio", "lower"),
    ("query.empty_share", "ratio", "lower"),
    # adaptive
    ("adaptive.route_s", "s", "lower"),
    ("adaptive.cache_lookup_s", "s", "lower"),
    ("adaptive.cache_hit_rate", "ratio", "higher"),
    ("adaptive.cache_on_commit_s", "s", "lower"),
    ("adaptive.cache_revalidated_share", "ratio", "higher"),
    ("adaptive.ladder_build_s", "s", "lower"),
    ("adaptive.coarse_routed_share", "ratio", "higher"),
    ("adaptive.reconstructions", "count", "lower"),
    # store
    ("store.wal_append_s", "s", "lower"),
    ("store.wal_bytes", "bytes", "lower"),
    ("store.wal_bytes_per_op", "bytes", "lower"),
    ("store.checkpoint_s", "s", "lower"),
    ("store.checkpoints", "count", "lower"),
    ("store.checkpoint_bytes", "bytes", "lower"),
    ("store.checkpoint_stall_max_ms", "ms", "lower"),
    ("store.recover_s", "s", "lower"),
    ("store.replayed_records", "count", "lower"),
    ("store.disk_bytes_per_dnode", "bytes", "lower"),
    # replication
    ("replication.bootstrap_s", "s", "lower"),
    ("replication.fetch_s", "s", "lower"),
    ("replication.feed_bytes", "bytes", "lower"),
    ("replication.apply_s", "s", "lower"),
    ("replication.records_applied", "count", "higher"),
    ("replication.lag_lsns_max", "count", "lower"),
    # harness
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.generator_s", "s", "lower"),
)

PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)

#: What the driver's ``--trace 1`` run prints: the 71 layer metrics, the
#: end-to-end metrics its one-list-for-all-workloads format cannot carry
#: (measured **under tracing** there, so they include the overhead
#: ``bench.trace_overhead_ratio`` reports; 0 where they do not apply),
#: the rounds the traced phase completed, and the CPU-speed correction.
DRIVER_PER_LAYER = PER_LAYER + tuple(
    (metric.name, metric.unit, metric.better)
    for metric in END_TO_END
    if not metric.driver and metric.bound > 0
) + (
    ("bench.rounds", "count", "higher"),
    # measured CPU slowdown the timings were divided by (bench/calibrate.py)
    ("bench.cpu_speed_ratio", "ratio", "lower"),
)

#: Counters that must repeat exactly between two fixed-count runs of the
#: same seed (``--selfcheck``): every ``*.ops*`` / ``*.batches`` /
#: splits / merges count, WAL bytes, and the cache hit/miss tallies.
EXACT_COUNTERS = (
    "corpus.doc_changes",
    "corpus.ops_emitted",
    "corpus.noop_replaces",
    "service.batches",
    "service.ops_drained",
    "service.ops_applied",
    "maintenance.ops",
    "maintenance.splits",
    "maintenance.merges",
    "maintenance.moves",
    "resilience.checks",
    "store.wal_bytes",
    "store.checkpoints",
    "replication.records_applied",
    "adaptive.cache_hits",
    "adaptive.cache_misses",
    "index.inodes",
    "graph.dnodes",
    "graph.dedges",
)


def benchmark_json(run_seconds: int) -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in DRIVER_PER_LAYER
        ],
    }

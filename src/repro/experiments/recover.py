"""``recover``: crash-recover a durable store and time it against rebuild.

The payoff experiment for :mod:`repro.store`: reopening a store is a
checkpoint load plus a short WAL replay, where the alternative the paper
measures throughout (Table 1's reconstruction events) is a full
from-scratch ``build`` over the recovered graph.

With ``--store-dir`` pointing at a directory ``persist`` populated, the
experiment reopens those stores.  Otherwise it manufactures a *crashed*
store per family first: commit the mixed workload durably, checkpoint at
~90 % of the run, keep committing the tail, then drop the service
without a final checkpoint — recovery must replay the tail.

Reported per family: what was replayed, the full recovery wall-clock
(including the ``valid``-level invariant post-check), and the wall-clock
of rebuilding the same index from the recovered graph.  The benchmark
(``bench/run.py``, workload ``ingest-recover-large``) measures the same
pair at scale as ``recovery_s`` beside ``setup_s``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_table
from repro.graph.datagraph import EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.service import ServiceConfig, Update
from repro.store import DurableIndexService, StoreConfig, latest_checkpoint, recover
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

#: fraction of the workload committed before the (only) checkpoint
CHECKPOINT_AT = 0.9


@dataclass
class FamilyRecoverStats:
    """One family's recovery, timed."""

    checkpoint_lsn: int
    replayed_records: int
    replayed_ops: int
    version: int
    recover_seconds: float
    rebuild_seconds: float

    @property
    def speedup(self) -> float:
        """Rebuild / recover wall-clock."""
        if self.recover_seconds <= 0:
            return float("inf")
        return self.rebuild_seconds / self.recover_seconds


@dataclass
class RecoverResult:
    """Per-family recovery statistics."""

    stats: dict[str, FamilyRecoverStats] = field(default_factory=dict)
    reused: bool = False  # stores came from a previous persist run


def pairs_for(scale: ExperimentScale) -> int:
    """Insert/delete pairs in a manufactured crashed store."""
    return max(16, scale.pairs_1index // 2)


def make_crashed_store(
    scale: ExperimentScale,
    family: str,
    directory: str,
    batch_max_ops: int = 8,
    seed: int = 53,
) -> None:
    """Commit the workload durably, checkpoint at ~90 %, crash at the end."""
    graph = generate_xmark(scale.xmark).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=seed)
    service = DurableIndexService(
        graph,
        directory,
        config=ServiceConfig(
            family=family,
            k=min(scale.ks),
            batch_max_ops=batch_max_ops,
            queue_capacity=0,
        ),
        store_config=StoreConfig(checkpoint_every_records=0),
    )
    operations = list(updates.steps(pairs_for(scale)))
    checkpoint_after = int(len(operations) * CHECKPOINT_AT)
    for step, (op, source, target) in enumerate(operations):
        if op == "insert":
            service.submit_nowait(Update.insert_edge(source, target, EdgeKind.IDREF))
        else:
            service.submit_nowait(Update.delete_edge(source, target))
        if service.queue_depth() >= batch_max_ops:
            service.flush()
        if step == checkpoint_after:
            service.drain()
            service.checkpoint()
    service.drain()
    # "crash": no final checkpoint — recovery must replay the tail
    service.wal.close()


def run(scale: ExperimentScale, seed: int = 53) -> RecoverResult:
    """Recover one store per family, timing recovery vs rebuild."""
    result = RecoverResult()
    base_dir = scale.store_dir
    temporary = base_dir is None
    if temporary:
        base_dir = tempfile.mkdtemp(prefix="repro-recover-")
    try:
        for family in ("one", "ak"):
            family_dir = os.path.join(base_dir, family)
            reusable = (
                os.path.isdir(family_dir) and latest_checkpoint(family_dir) is not None
            )
            if not reusable:
                shutil.rmtree(family_dir, ignore_errors=True)
                os.makedirs(family_dir, exist_ok=True)
                make_crashed_store(scale, family, family_dir, seed=seed)
            else:
                result.reused = True

            started = time.perf_counter()
            recovered = recover(family_dir)
            recover_seconds = time.perf_counter() - started

            started = time.perf_counter()
            if recovered.kind == "one":
                OneIndex.build(recovered.graph)
            else:
                AkIndexFamily.build(recovered.graph, recovered.k)
            rebuild_seconds = time.perf_counter() - started

            result.stats[family] = FamilyRecoverStats(
                checkpoint_lsn=recovered.checkpoint_lsn,
                replayed_records=recovered.replayed_records,
                replayed_ops=recovered.replayed_ops,
                version=recovered.version,
                recover_seconds=recover_seconds,
                rebuild_seconds=rebuild_seconds,
            )
    finally:
        if temporary:
            shutil.rmtree(base_dir, ignore_errors=True)
    return result


def report(result: RecoverResult) -> str:
    """Render the recovery table."""
    headers = [
        "family",
        "ckpt lsn",
        "replayed recs/ops",
        "version",
        "recover ms",
        "rebuild ms",
        "speedup",
    ]
    rows = []
    for family, stats in result.stats.items():
        rows.append(
            [
                family,
                stats.checkpoint_lsn,
                f"{stats.replayed_records}/{stats.replayed_ops}",
                stats.version,
                f"{stats.recover_seconds * 1000:.1f}",
                f"{stats.rebuild_seconds * 1000:.1f}",
                f"{stats.speedup:.1f}x",
            ]
        )
    table = format_table(headers, rows)
    source = (
        "reopened stores from --store-dir"
        if result.reused
        else "manufactured crashed stores (checkpoint at 90%, torn tail replayed)"
    )
    note = "recover ms includes the valid-level invariant post-check"
    return f"{table}\n\n{source}; {note}"


def main(scale: ExperimentScale) -> str:
    """CLI entry point."""
    return report(run(scale))

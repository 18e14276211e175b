"""The crash-point torture test: recovery is exact at every cut byte.

The contract under test (DESIGN.md §7): after a crash at **any byte of
any write**, recovery reproduces precisely the prefix of commits whose
WAL records survive whole — byte-identical graph *and* index dumps, and
the matching version number.  The workload covers both index families,
edge and node operations, and a mid-run checkpoint (so some cuts recover
across a truncated log, others replay over checkpoint 0).

Protocol per family:

1. run a seeded workload through a durable ``IndexService``, one batch at
   a time, snapshotting the store directory (``copytree``) and the live
   graph/index fingerprints after every commit — plus once more after
   the mid-run checkpoint;
2. for every snapshot, cut the final WAL record at its boundaries
   (``start``: record fully lost; ``end-1``: only the newline lost — a
   *complete* record, accepted; ``end``: untouched) and at sampled
   interior bytes; the **final** snapshot gets the full byte sweep;
3. recover each cut and byte-compare against the expected state's
   fingerprints.

``CRASH_SEED`` shifts the workload and the sampled interior positions.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.resilience.guard import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.store import StoreConfig, recover
from repro.store.wal import AppendResult
from repro.graph.datagraph import EdgeKind
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

from tests.store.conftest import (
    CRASH_SEED,
    STORE_XMARK,
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)

#: operations per committed batch and committed batches per run
BATCH_OPS = 3
NUM_COMMITS = 10
#: the commit after which the mid-run checkpoint is taken
CHECKPOINT_AFTER = NUM_COMMITS // 2
#: interior cut positions sampled per non-final record
INTERIOR_SAMPLES = 3

STORE_CONFIG = StoreConfig(
    fsync="off",  # the torture cuts below the fsync layer anyway
    segment_max_bytes=1 << 20,
    checkpoint_every_records=0,  # cadence off; the run checkpoints explicitly
)


def _service_config(family: str) -> ServiceConfig:
    return ServiceConfig(
        family=family,
        k=2,
        batch_max_ops=BATCH_OPS,
        queue_capacity=0,
        coalesce=False,  # every submitted op must reach the log
        guard=GuardConfig(policy="raise", check_level=""),
    )


def _workload_ops(graph, updates, count: int, seed: int) -> list[Update]:
    """Edge ops from the mixed workload, with node inserts sprinkled in."""
    rng = random.Random(seed)
    anchor = min(graph.nodes())  # never deleted: the workload only touches edges
    ops: list[Update] = []
    steps = updates.steps(count)  # generous upper bound; consumed lazily
    while len(ops) < count:
        if len(ops) % 4 == 3:
            ops.append(Update.insert_node(anchor, "torture", rng.randrange(100)))
        else:
            op, source, target = next(steps)
            if op == "insert":
                ops.append(Update.insert_edge(source, target, EdgeKind.IDREF))
            else:
                ops.append(Update.delete_edge(source, target))
    return ops


class Snapshot:
    """One post-commit copy of the store directory."""

    def __init__(self, path: str, state: int, span: AppendResult | None):
        self.path = path
        self.state = state  # commits reflected in the live structures
        self.span = span  # byte span of the final WAL record, if cuttable


class TortureRun:
    """The never-crashed baseline: snapshots, fingerprints, batches."""

    def __init__(self, family: str, base_dir: str, seed: int):
        self.family = family
        self.fingerprints: dict[int, tuple[str, str]] = {}
        self.snapshots: list[Snapshot] = []
        self.batches: dict[int, list[Update]] = {}

        graph = generate_xmark(STORE_XMARK).graph
        updates = MixedUpdateWorkload.prepare(graph, seed=seed)
        store = os.path.join(base_dir, "live")
        service = IndexService(
            graph, _service_config(family), store_dir=store, store_config=STORE_CONFIG
        )
        self._fingerprint(service, 0)
        ops = _workload_ops(graph, updates, NUM_COMMITS * BATCH_OPS, seed + 1)
        for commit in range(1, NUM_COMMITS + 1):
            batch = ops[(commit - 1) * BATCH_OPS : commit * BATCH_OPS]
            self.batches[commit] = batch
            for update in batch:
                service.submit_nowait(update)
            service.flush()
            assert service.version == commit
            self._fingerprint(service, commit)
            self._snapshot(base_dir, service, commit, service.wal.last_append)
            if commit == CHECKPOINT_AFTER:
                service.checkpoint()
                # same state, different store layout (log truncated):
                # recoverable, but there is no final record to cut
                self._snapshot(base_dir, service, commit, None)
        service.close(checkpoint=False)

    def _fingerprint(self, service, state: int) -> None:
        if self.family == "one":
            index_fp = index_fingerprint(service.guarded.index)
        else:
            index_fp = family_fingerprint(service.guarded.family)
        self.fingerprints[state] = (graph_fingerprint(service.graph), index_fp)

    def _snapshot(self, base_dir, service, state: int, span) -> None:
        path = os.path.join(base_dir, f"kill-{len(self.snapshots):03d}")
        shutil.copytree(service.store_dir, path)
        self.snapshots.append(Snapshot(path, state, span))


@pytest.fixture(scope="module", params=["one", "ak"])
def torture(request, tmp_path_factory) -> TortureRun:
    base_dir = str(tmp_path_factory.mktemp(f"torture-{request.param}"))
    return TortureRun(request.param, base_dir, seed=11 + CRASH_SEED)


def _recover_fingerprints(store_dir: str, family: str) -> tuple[int, str, str]:
    result = recover(store_dir)
    assert result.structure.kind == family
    if family == "one":
        index_fp = index_fingerprint(result.structure)
    else:
        index_fp = family_fingerprint(result.structure)
    return result.version, graph_fingerprint(result.graph), index_fp


def _assert_recovers_to(torture: TortureRun, store_dir: str, state: int, context: str):
    version, graph_fp, index_fp = _recover_fingerprints(store_dir, torture.family)
    expected_graph, expected_index = torture.fingerprints[state]
    assert version == state, f"{context}: version {version} != {state}"
    assert graph_fp == expected_graph, f"{context}: graph diverged from state {state}"
    assert index_fp == expected_index, f"{context}: index diverged from state {state}"


def _cut_and_check(torture: TortureRun, snapshot: Snapshot, cuts: list[int]):
    """Truncate the snapshot's final record at each byte; verify recovery."""
    span = snapshot.span
    segment_path = os.path.join(snapshot.path, span.segment)
    with open(segment_path, "rb") as fp:
        original = fp.read()
    assert len(original) == span.end, "span must end the segment"
    try:
        for cut in cuts:
            with open(segment_path, "wb") as fp:
                fp.write(original[:cut])
            # a cut keeping the record whole (missing at most the final
            # newline) recovers state N; any shorter cut recovers N-1
            expected = snapshot.state if cut >= span.end - 1 else snapshot.state - 1
            _assert_recovers_to(
                torture, snapshot.path, expected,
                f"state {snapshot.state}, cut at byte {cut} of [{span.start},{span.end})",
            )
    finally:
        with open(segment_path, "wb") as fp:
            fp.write(original)


class TestCrashPoints:
    def test_uncut_snapshots_recover_exactly(self, torture):
        for snapshot in torture.snapshots:
            _assert_recovers_to(
                torture, snapshot.path, snapshot.state,
                f"uncut snapshot of state {snapshot.state}",
            )

    def test_cut_at_every_record_boundary(self, torture):
        for snapshot in torture.snapshots:
            if snapshot.span is None:
                continue
            span = snapshot.span
            _cut_and_check(torture, snapshot, [span.start, span.end - 1, span.end])

    def test_sampled_interior_cuts(self, torture):
        rng = random.Random(CRASH_SEED * 1009 + 17)
        for snapshot in torture.snapshots[:-1]:
            if snapshot.span is None:
                continue
            span = snapshot.span
            interior = range(span.start + 1, span.end - 1)
            if not interior:
                continue
            cuts = sorted(rng.sample(interior, min(INTERIOR_SAMPLES, len(interior))))
            _cut_and_check(torture, snapshot, cuts)

    def test_full_byte_sweep_of_final_record(self, torture):
        snapshot = torture.snapshots[-1]
        span = snapshot.span
        assert span is not None
        _cut_and_check(torture, snapshot, list(range(span.start, span.end + 1)))


class TestResumeAfterRecovery:
    def test_recovered_service_replays_to_identical_final_state(
        self, torture, tmp_path
    ):
        # crash at the start of record C+2's append (so states beyond the
        # mid-run checkpoint replay over it), then resume the remaining
        # workload on the recovered service
        target = next(
            s for s in torture.snapshots
            if s.state == CHECKPOINT_AFTER + 2 and s.span is not None
        )
        resumed_dir = str(tmp_path / "resumed")
        shutil.copytree(target.path, resumed_dir)
        span = target.span
        segment_path = os.path.join(resumed_dir, span.segment)
        with open(segment_path, "rb") as fp:
            original = fp.read()
        with open(segment_path, "wb") as fp:
            fp.write(original[: span.start])

        service = IndexService.recover(
            resumed_dir,
            config=_service_config(torture.family),
            store_config=STORE_CONFIG,
        )
        assert service.version == target.state - 1
        for commit in range(target.state, NUM_COMMITS + 1):
            for update in torture.batches[commit]:
                service.submit_nowait(update)
            service.flush()
        assert service.version == NUM_COMMITS
        expected_graph, expected_index = torture.fingerprints[NUM_COMMITS]
        assert graph_fingerprint(service.graph) == expected_graph
        if torture.family == "one":
            assert index_fingerprint(service.guarded.index) == expected_index
        else:
            assert family_fingerprint(service.guarded.family) == expected_index
        service.close(checkpoint=False)

        # and the resumed run is itself durable: recover it once more
        _assert_recovers_to(torture, resumed_dir, NUM_COMMITS, "re-recovery")

    def test_resume_after_newline_cut_recovery(self, torture, tmp_path):
        # crash cut exactly the final newline (cut == end - 1): the
        # record is whole and survives, recovery repairs the missing
        # terminator, and the resumed writer's first append must start a
        # fresh line — not glue onto the old final record, which a later
        # recovery would then discard wholesale as a torn tail
        target = next(
            s for s in torture.snapshots
            if s.state == CHECKPOINT_AFTER + 2 and s.span is not None
        )
        resumed_dir = str(tmp_path / "resumed-newline")
        shutil.copytree(target.path, resumed_dir)
        span = target.span
        segment_path = os.path.join(resumed_dir, span.segment)
        with open(segment_path, "rb") as fp:
            original = fp.read()
        with open(segment_path, "wb") as fp:
            fp.write(original[: span.end - 1])

        service = IndexService.recover(
            resumed_dir,
            config=_service_config(torture.family),
            store_config=STORE_CONFIG,
        )
        assert service.version == target.state  # the cut record survived
        for commit in range(target.state + 1, NUM_COMMITS + 1):
            for update in torture.batches[commit]:
                service.submit_nowait(update)
            service.flush()
        assert service.version == NUM_COMMITS
        expected_graph, expected_index = torture.fingerprints[NUM_COMMITS]
        assert graph_fingerprint(service.graph) == expected_graph
        if torture.family == "one":
            assert index_fingerprint(service.guarded.index) == expected_index
        else:
            assert family_fingerprint(service.guarded.family) == expected_index
        service.close(checkpoint=False)

        # the append after the repaired newline must itself be readable
        _assert_recovers_to(
            torture, resumed_dir, NUM_COMMITS, "re-recovery after newline cut"
        )

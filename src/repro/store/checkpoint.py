"""Checkpoints: atomic full snapshots of the graph + index pair.

Recovery replays a short log over a checkpoint instead of rebuilding the
1-index/A(k) family from scratch — the I/O-conscious discipline of
Hellings et al.'s external-memory bisimulation work, transplanted to the
incremental setting.  A checkpoint file is one JSON document in the
CRC envelope of :mod:`repro.core.codec`::

    {"crc": 123..., "data": {
        "format_version": 2,
        "kind": ..., "k": 0,   # the structure's (repro.index.KINDS)
        "wal_lsn": 42,         # every WAL record <= this is superseded
        "version": 42,         # service version at capture time
        "graph": {...},        # repro.graph.serialize.graph_to_dict
        "index": {...}         # repro.index.serialize.structure_to_dict
    }}

The file is written as text, not from those dicts: :func:`write_checkpoint`
joins :func:`~repro.graph.serialize.graph_to_json` and
:func:`~repro.index.serialize.structure_to_json` — emitters that read the
slab core in bulk and are tested byte-equal to the canonical JSON of the
dict writers, which stay the reference and the public wire form.

It is written **atomically**: serialise to ``<name>.tmp``, flush + fsync,
then ``os.replace`` onto the final name (and fsync the directory).  A crash
at any byte of that sequence leaves either the previous checkpoint set
untouched or the new file complete — recovery can never select a
partial checkpoint, because ``.tmp`` files are invisible to
:func:`latest_checkpoint` and a torn final file fails its CRC and is
skipped.

File names are ``checkpoint-<wal_lsn>.json``; after a successful write
the WAL is truncated up to ``wal_lsn``, older checkpoints beyond a
retention count are pruned (newest-first survivors), and so is any
``.tmp`` file a crash between write and rename left behind.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.core.codec import canonical, canonical_object, seal_canonical, unseal
from repro.exceptions import CheckpointError
from repro.graph.datagraph import DataGraph
from repro.graph.serialize import check_format_version, graph_from_dict, graph_to_json
from repro.index.serialize import structure_from_dict, structure_to_json
from repro.index.structure import KINDS, Structure
from repro.maintenance import maintainer_for
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.store.wal import TMP_SUFFIX, WriteAheadLog, replace_file

#: current checkpoint format version; bump on structural changes.
#: v2 embeds v2 graph/index payloads (label table, delta-encoded
#: extents).  The embedded dicts carry their own ``format_version`` and
#: the nested loaders branch on it, so v1 checkpoints still materialize.
CHECKPOINT_FORMAT_VERSION = 2

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"


def checkpoint_name(wal_lsn: int) -> str:
    """The file name of the checkpoint superseding WAL records <= lsn."""
    return f"{CHECKPOINT_PREFIX}{wal_lsn:020d}{CHECKPOINT_SUFFIX}"


def checkpoint_lsn(name: str) -> int:
    """Parse a checkpoint file name back to its WAL LSN."""
    return int(name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)])


def list_checkpoints(directory: str) -> list[str]:
    """Checkpoint file names in *directory*, oldest first (no ``.tmp``)."""
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)
    ]
    return sorted(names, key=checkpoint_lsn)


@dataclass(frozen=True)
class Checkpoint:
    """One loaded, CRC-verified checkpoint (payload still as dicts)."""

    kind: str
    k: int
    wal_lsn: int
    version: int
    graph_dict: dict[str, Any]
    index_dict: dict[str, Any]
    path: str

    def materialize(self) -> tuple[DataGraph, Structure]:
        """Rebuild the live graph and the structure over it from the payload."""
        graph = graph_from_dict(self.graph_dict)
        return graph, structure_from_dict(graph, self.kind, self.index_dict)

    def adopt(self) -> tuple[DataGraph, Any]:
        """The live graph plus the split/merge maintainer over its structure."""
        graph, structure = self.materialize()
        return graph, maintainer_for(structure)


def write_checkpoint(
    directory: str,
    graph: DataGraph,
    structure: Structure,
    *,
    wal_lsn: int,
    version: int,
    fault_injector: Optional[FaultInjector] = None,
) -> str:
    """Atomically write *graph* and *structure* as one checkpoint file;
    returns its path.

    The tmp-write / fsync / rename sequence guarantees no reader ever
    selects a partial file; *fault_injector* (io hook) can kill the
    sequence between any two of those steps for the atomicity tests.
    The ``store.checkpoint`` span and ``store.checkpoint_write_seconds``
    cover the encoding as well as the write: at scale the encoding is
    most of the stall.
    """
    kind = structure.kind
    final_path = os.path.join(directory, checkpoint_name(wal_lsn))
    obs = current_obs()
    started = time.perf_counter()
    with obs.span("store.checkpoint", lsn=wal_lsn, kind=kind) as span:
        document = seal_canonical(
            canonical_object(
                {
                    "format_version": canonical(CHECKPOINT_FORMAT_VERSION),
                    "kind": canonical(kind),
                    "k": canonical(structure.k),
                    "wal_lsn": canonical(wal_lsn),
                    "version": canonical(version),
                    "graph": graph_to_json(graph),
                    "index": structure_to_json(structure),
                }
            )
        )
        span.set(bytes=len(document))
        before_rename = None
        if fault_injector is not None:
            fault_injector.io("checkpoint.write")
            before_rename = partial(fault_injector.io, "checkpoint.rename")
        replace_file(final_path, document, before_rename)
    obs.add("store.checkpoints")
    obs.add("store.checkpoint_bytes", len(document))
    obs.observe("store.checkpoint_write_seconds", time.perf_counter() - started)
    return final_path


def checkpoint_from_bytes(raw: bytes, origin: str = "<bytes>") -> Checkpoint:
    """Verify and parse a checkpoint from its raw file bytes.

    The shared validation core of :func:`load_checkpoint`, factored out
    so the replication feed can ship a checkpoint over the wire and the
    follower can verify it (CRC, format version, field shape) without
    the bytes ever touching the follower's disk.  *origin* names the
    source in error messages — a path for local loads, a feed label for
    shipped bootstraps.
    """
    data = unseal(raw, CheckpointError, f"checkpoint {origin!r}")
    check_format_version(data, CHECKPOINT_FORMAT_VERSION, CheckpointError)
    try:
        kind = data["kind"]
        k = data["k"]
        wal_lsn = data["wal_lsn"]
        version = data["version"]
        graph_dict = data["graph"]
        index_dict = data["index"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint {origin!r}: {exc!r}") from exc
    if kind not in KINDS:
        raise CheckpointError(f"checkpoint {origin!r} has unknown kind {kind!r}")
    return Checkpoint(
        kind=kind,
        k=k,
        wal_lsn=wal_lsn,
        version=version,
        graph_dict=graph_dict,
        index_dict=index_dict,
        path=origin,
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Load and verify one checkpoint file.

    Raises :class:`CheckpointError` on truncation, CRC mismatch, missing
    fields, or a format version newer than this library understands.
    """
    try:
        with open(path, "rb") as fp:
            raw = fp.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return checkpoint_from_bytes(raw, origin=path)


def latest_checkpoint(directory: str) -> Optional[Checkpoint]:
    """The newest checkpoint that loads and verifies; ``None`` if none do.

    Corrupt or future-format files are skipped (newest-first), so a torn
    final checkpoint silently falls back to its predecessor — the
    atomicity contract recovery builds on.
    """
    for name in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(os.path.join(directory, name))
        except CheckpointError:
            current_obs().add("store.checkpoints_skipped")
            continue
    return None


def prune_checkpoints(directory: str, keep: int = 2) -> int:
    """Delete all but the *keep* newest checkpoint files; returns count.

    Orphaned ``checkpoint-*.json.tmp`` files go too (not counted): the
    single writer calls this after its own rename, so any it finds was
    left by a crash or fault before an earlier one, under another LSN
    that no later write would ever replace.
    """
    if keep < 1:
        raise CheckpointError("must keep at least one checkpoint")
    started = time.perf_counter()
    names = list_checkpoints(directory)
    removed = 0
    for name in names[:-keep]:
        os.unlink(os.path.join(directory, name))
        removed += 1
    orphans = [
        name
        for name in os.listdir(directory)
        if name.startswith(CHECKPOINT_PREFIX)
        and name.endswith(CHECKPOINT_SUFFIX + TMP_SUFFIX)
    ]
    for name in orphans:
        os.unlink(os.path.join(directory, name))
    obs = current_obs()
    obs.add("store.checkpoints_pruned", removed)
    obs.add("store.checkpoint_orphans_removed", len(orphans))
    obs.observe("store.checkpoint_prune_seconds", time.perf_counter() - started)
    return removed


class Checkpointer:
    """Cadenced checkpoint policy bound to one store directory + WAL.

    Counts WAL records since the last checkpoint and, when the cadence
    fires (``every_records``; 0 disables automatic checkpoints),
    snapshots the live structures, truncates the WAL through the
    checkpointed LSN, and prunes old checkpoints down to *keep*.
    """

    def __init__(
        self,
        directory: str,
        wal: WriteAheadLog,
        every_records: int = 512,
        keep: int = 2,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if every_records < 0:
            raise CheckpointError("every_records must be >= 0")
        self.directory = directory
        self.wal = wal
        self.every_records = every_records
        self.keep = keep
        self.fault_injector = fault_injector
        self.records_since_checkpoint = 0
        self.checkpoints_written = 0
        #: how long the last :meth:`checkpoint` held its caller (encode,
        #: write, truncate, prune) and the size of the file it wrote;
        #: ``None`` until this process has written one
        self.last_checkpoint_ms: Optional[float] = None
        self.last_checkpoint_bytes: Optional[int] = None

    def note_record(self) -> bool:
        """Count one appended WAL record; report whether a checkpoint is due."""
        self.records_since_checkpoint += 1
        return (
            self.every_records > 0
            and self.records_since_checkpoint >= self.every_records
        )

    def checkpoint(self, graph: DataGraph, structure: Structure, *, version: int) -> str:
        """Snapshot now, truncate the WAL behind it, prune old checkpoints."""
        started = time.perf_counter()
        lsn = self.wal.last_lsn
        path = write_checkpoint(
            self.directory,
            graph,
            structure,
            wal_lsn=lsn,
            version=version,
            fault_injector=self.fault_injector,
        )
        self.wal.truncate_upto(lsn)
        prune_checkpoints(self.directory, keep=self.keep)
        self.records_since_checkpoint = 0
        self.checkpoints_written += 1
        self.last_checkpoint_ms = (time.perf_counter() - started) * 1e3
        self.last_checkpoint_bytes = os.path.getsize(path)
        return path

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

The file is written as text, not from those dicts, and the text is kept
between checkpoints one 1 024-key page at a time (:class:`CheckpointText`,
held by the :class:`Checkpointer`): each commit's
:class:`~repro.resilience.journal.TouchedSet` marks the pages it changed,
and a cadence checkpoint re-renders only those and joins the rest, so its
encoding costs O(touched pages) — the bytes it writes are still the whole
file.  :func:`~repro.graph.serialize.graph_to_json` and
:func:`~repro.index.serialize.structure_to_json` are the same renderers
run over every page (the first checkpoint of a process, and
:func:`write_checkpoint` without pages); all of it is tested byte-equal to
the canonical JSON of the dict writers, which stay the reference and the
public wire form.  ``/health`` reports the pages the last checkpoint
rendered of those it holds (``last_checkpoint_pages``).

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
from repro.core.intmap import PAGE_BITS
from repro.exceptions import CheckpointError
from repro.graph.datagraph import DataGraph
from repro.graph.serialize import (
    check_format_version,
    graph_from_dict,
    graph_json,
    graph_labels,
    graph_page_edges,
    graph_page_nodes,
    graph_pages,
    graph_to_json,
)
from repro.index.serialize import (
    structure_from_dict,
    structure_json,
    structure_page,
    structure_pages,
    structure_to_json,
)
from repro.index.structure import KINDS, Structure
from repro.maintenance import maintainer_for
from repro.obs import current as current_obs
from repro.resilience.faults import FaultInjector
from repro.resilience.journal import TouchedSet
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


class CheckpointText:
    """The last checkpoint's graph and structure text, one entry per page.

    A page is the :class:`~repro.core.intmap.PagedIntMap`'s 1 024-key
    page: a graph page holds the ``nodes`` and the ``edges`` entries of
    the oids ``[p << PAGE_BITS, (p + 1) << PAGE_BITS)``, a structure
    page ``(level, p)`` the extents (and, above level 0, the parent
    links) of the ids in that range.  :meth:`mark` folds a commit's
    :class:`~repro.resilience.journal.TouchedSet` into dirty page
    numbers; :meth:`render` re-renders only those pages and joins them
    with the rest, unchanged.  The text is byte-equal to
    :func:`~repro.graph.serialize.graph_to_json` /
    :func:`~repro.index.serialize.structure_to_json` of the live pair:
    those functions are the cold case of the same renderers.

    A node entry names its label by rank among the labels in use, so
    when that set changes every page's node text is re-rendered (edge
    text never names a label and keeps its pages).  The pages hold only
    while every change to the pair since they were rendered went through
    :meth:`mark`: they are stamped with the pair's ``generation``
    counters, and a pair that moved past its stamp unmarked — a
    rolled-back batch, a mutation no journal saw — or that is not the
    pair the pages came from is rendered whole, as is the first render
    and the one after ``touched.full``.  Marks clear only once a render
    succeeds.
    """

    def __init__(self) -> None:
        #: the (graph, structure) pair the pages hold; ``None`` = no pages
        self._source: Optional[tuple[DataGraph, Structure]] = None
        #: the pair's generations the pages plus the marks account for
        self._stamp: tuple[int, int] = (-1, -1)
        self._labels: list[str] = []
        self._nodes: dict[int, str] = {}
        self._edges: dict[int, str] = {}
        self._structure: dict[tuple[int, int], tuple[str, str]] = {}
        self._dirty_graph: set[int] = set()
        self._dirty_structure: set[tuple[int, int]] = set()
        #: ``(pages rendered, pages held)`` by the last :meth:`render`
        self.last_pages: Optional[tuple[int, int]] = None

    def expect(self) -> None:
        """Drop every page unless the pair they hold is as the last mark or
        render left it (called before a commit applies)."""
        if self._source is not None and _stamp(self._source[1]) != self._stamp:
            self._drop()

    def mark(self, touched: TouchedSet, structure: Structure) -> None:
        """Fold *touched* — what the commit since :meth:`expect` changed in
        *structure* and its graph — into the dirty pages.

        ``dnodes`` mark graph pages; ``inodes`` (1-index inodes, A(k) leaf
        tokens) mark pages of the leaf level ``structure.k``; ``tokens``
        mark ``(level, page)``.  ``touched.full`` drops every page: the
        index was rebuilt, and a full set records no further dnodes.
        """
        if self._source is None:
            return
        if touched.full:
            self._drop()
            return
        self._dirty_graph.update(dnode >> PAGE_BITS for dnode in touched.dnodes)
        leaf = structure.k
        self._dirty_structure.update((leaf, inode >> PAGE_BITS) for inode in touched.inodes)
        self._dirty_structure.update(
            (level, token >> PAGE_BITS) for level, token in touched.tokens if token is not None
        )
        self._stamp = _stamp(structure)

    def _drop(self) -> None:
        self._source = None
        self._nodes, self._edges, self._structure = {}, {}, {}
        self._dirty_graph, self._dirty_structure = set(), set()

    def render(self, graph: DataGraph, structure: Structure) -> tuple[str, str]:
        """The canonical graph and structure texts of the live pair,
        re-rendering only the dirty pages."""
        labels, wire_of = graph_labels(graph)
        source, stamp = self._source, _stamp(structure)
        if (
            source is None
            or source[0] is not graph
            or source[1] is not structure
            or stamp != self._stamp
        ):
            nodes: dict[int, str] = {}
            edges: dict[int, str] = {}
            pages: dict[tuple[int, int], tuple[str, str]] = {}
            edge_pages = graph_pages(graph)
            node_pages = edge_pages
            structure_keys = structure_pages(structure)
        else:
            nodes, edges, pages = dict(self._nodes), dict(self._edges), dict(self._structure)
            edge_pages = self._dirty_graph
            node_pages = edge_pages if labels == self._labels else edge_pages | nodes.keys()
            structure_keys = self._dirty_structure
        for page_no in node_pages:
            _keep(nodes, page_no, graph_page_nodes(graph, page_no, wire_of))
        for page_no in edge_pages:
            _keep(edges, page_no, graph_page_edges(graph, page_no))
        for key in structure_keys:
            _keep(pages, key, structure_page(structure, *key))
        graph_text = graph_json(
            graph, labels, [nodes[p] for p in sorted(nodes)], [edges[p] for p in sorted(edges)]
        )
        structure_text = structure_json(structure, pages)
        self._source, self._stamp, self._labels = (graph, structure), stamp, labels
        self._nodes, self._edges, self._structure = nodes, edges, pages
        self._dirty_graph, self._dirty_structure = set(), set()
        held = len(nodes.keys() | edges.keys()) + len(pages)
        self.last_pages = (len(node_pages) + len(structure_keys), held)
        return graph_text, structure_text


def _stamp(structure: Structure) -> tuple[int, int]:
    return structure.graph.generation, structure.generation


def _keep(table: dict, key: Any, text: Any) -> None:
    """Hold a page's text; a page left empty goes."""
    if text and text != ("", ""):
        table[key] = text
    else:
        table.pop(key, None)


def write_checkpoint(
    directory: str,
    graph: DataGraph,
    structure: Structure,
    *,
    wal_lsn: int,
    version: int,
    fault_injector: Optional[FaultInjector] = None,
    text: Optional[CheckpointText] = None,
) -> str:
    """Atomically write *graph* and *structure* as one checkpoint file;
    returns its path.

    The tmp-write / fsync / rename sequence guarantees no reader ever
    selects a partial file; *fault_injector* (io hook) can kill the
    sequence between any two of those steps for the atomicity tests.
    With *text*, the pair's text comes from those pages (only the dirty
    ones re-rendered); without, it is rendered whole.  The
    ``store.checkpoint`` span and ``store.checkpoint_write_seconds``
    cover the encoding as well as the write.
    """
    kind = structure.kind
    final_path = os.path.join(directory, checkpoint_name(wal_lsn))
    obs = current_obs()
    started = time.perf_counter()
    with obs.span("store.checkpoint", lsn=wal_lsn, kind=kind) as span:
        if text is None:
            graph_text, structure_text = graph_to_json(graph), structure_to_json(structure)
        else:
            graph_text, structure_text = text.render(graph, structure)
            rendered, held = text.last_pages
            span.set(pages_rendered=rendered, pages=held)
            obs.add("store.checkpoint_pages_rendered", rendered)
        document = seal_canonical(
            canonical_object(
                {
                    "format_version": canonical(CHECKPOINT_FORMAT_VERSION),
                    "kind": canonical(kind),
                    "k": canonical(structure.k),
                    "wal_lsn": canonical(wal_lsn),
                    "version": canonical(version),
                    "graph": graph_text,
                    "index": structure_text,
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
        #: ``(pages rendered, pages held)`` of that checkpoint's text
        self.last_checkpoint_pages: Optional[tuple[int, int]] = None
        #: the last checkpoint's text, per page; the store marks what
        #: each commit changed (``text.expect`` / ``text.mark``)
        self.text = CheckpointText()

    def note_record(self) -> bool:
        """Count one appended WAL record; report whether a checkpoint is due."""
        self.records_since_checkpoint += 1
        return (
            self.every_records > 0
            and self.records_since_checkpoint >= self.every_records
        )

    def checkpoint(self, graph: DataGraph, structure: Structure, *, version: int) -> str:
        """Snapshot now, truncate the WAL behind it, prune old checkpoints.

        The text is :attr:`text`'s: only the pages marked since the last
        checkpoint (or every page, when it holds none) are rendered.
        """
        started = time.perf_counter()
        lsn = self.wal.last_lsn
        path = write_checkpoint(
            self.directory,
            graph,
            structure,
            wal_lsn=lsn,
            version=version,
            fault_injector=self.fault_injector,
            text=self.text,
        )
        self.wal.truncate_upto(lsn)
        prune_checkpoints(self.directory, keep=self.keep)
        self.records_since_checkpoint = 0
        self.checkpoints_written += 1
        self.last_checkpoint_ms = (time.perf_counter() - started) * 1e3
        self.last_checkpoint_bytes = os.path.getsize(path)
        self.last_checkpoint_pages = self.text.last_pages
        return path

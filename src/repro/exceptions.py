"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  More specific subclasses distinguish the layer that
raised them (graph substrate, index layer, maintenance, query parsing).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Invalid operation on a :class:`~repro.graph.datagraph.DataGraph`."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was referenced that does not exist in the graph."""

    def __init__(self, oid: int):
        super().__init__(f"node {oid!r} does not exist in the data graph")
        self.oid = oid


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was referenced that does not exist in the graph.

    *step*, when given, is the index of the workload operation that
    referenced the edge — workloads validate operations at their
    boundary so a desynchronised stream fails loudly instead of deep
    inside a maintainer (see :mod:`repro.workload.updates`).
    """

    def __init__(self, source: int, target: int, step: int | None = None):
        message = f"edge ({source!r} -> {target!r}) does not exist"
        if step is not None:
            message += f" (workload step {step})"
        super().__init__(message)
        self.source = source
        self.target = target
        self.step = step


class DuplicateNodeError(GraphError, ValueError):
    """A node id was added twice."""

    def __init__(self, oid: int):
        super().__init__(f"node {oid!r} already exists in the data graph")
        self.oid = oid


class DuplicateEdgeError(GraphError, ValueError):
    """An edge was added twice (the data model has no parallel edges).

    *step* carries the workload operation index when the duplicate was
    caught at the workload boundary (see :class:`EdgeNotFoundError`).
    """

    def __init__(self, source: int, target: int, step: int | None = None):
        message = f"edge ({source!r} -> {target!r}) already exists"
        if step is not None:
            message += f" (workload step {step})"
        super().__init__(message)
        self.source = source
        self.target = target
        self.step = step


class RootError(GraphError):
    """The single-root invariant of the data model was violated."""


class IndexError_(ReproError):
    """Invalid operation on a structural index.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``StructuralIndexError``.
    """


StructuralIndexError = IndexError_


class InvalidIndexError(StructuralIndexError):
    """An index failed a validity check (partition or stability broken)."""


class MaintenanceError(ReproError):
    """An incremental maintenance operation could not be applied."""


class SerializationError(GraphError, ValueError):
    """A persisted graph payload is malformed or inconsistent.

    Raised by the loader in :mod:`repro.graph.serialize` instead of the
    bare ``KeyError`` / ``TypeError`` / ``ValueError`` that malformed
    input would otherwise surface (index payloads raise
    :class:`InvalidIndexError` the same way).  Subclasses
    :class:`GraphError` because a malformed payload cannot name a live
    graph object — callers catching graph errors get these too.
    """


class ResilienceError(ReproError):
    """Base class for the transactional-maintenance layer (``repro.resilience``)."""


class InjectedFaultError(ResilienceError):
    """The deterministic fault injector fired (chaos testing only)."""

    def __init__(self, trigger: str, record_number: int):
        super().__init__(
            f"injected fault ({trigger}) at journal record {record_number}"
        )
        self.trigger = trigger
        self.record_number = record_number


class InvariantViolationError(ResilienceError):
    """A guarded post-check found the graph or index in an invalid state.

    *definition* numbers the paper's definition violated (1 stability,
    4 A(k) signature, 5 minimality), *pair* the offending inodes, if known.
    *audit_range* is set when an audit slice found it, not the batch's own
    check: the cursor the slice started at and the last leaf inode id it
    covered.
    """

    def __init__(self, message: str, definition: int | None = None, pair=None):
        super().__init__(message)
        self.definition = definition
        self.pair = pair
        self.audit_range: tuple[int, int] | None = None


class RollbackError(ResilienceError):
    """A transaction rollback could not restore the pre-update state.

    After this error the graph/index pair must be considered corrupt;
    the only safe recovery is a from-scratch rebuild (the ``degrade``
    policy) or abandoning the structures.
    """


class StoreError(ReproError):
    """Base class for the durable persistence layer (``repro.store``)."""


class WalCorruptionError(StoreError):
    """A write-ahead-log segment is corrupt beyond torn-tail repair.

    A torn *tail* (a crash mid-append) is expected and silently truncated
    by the reader; this error means a record **before** the tail failed
    its CRC or LSN check — i.e. the log was damaged after it was written,
    which replay must not paper over.
    """

    def __init__(self, segment: str, offset: int, reason: str):
        super().__init__(
            f"WAL segment {segment!r} corrupt at byte {offset}: {reason}"
        )
        self.segment = segment
        self.offset = offset
        self.reason = reason


class CheckpointError(StoreError):
    """A checkpoint file is malformed, truncated, or from a future format."""


class RecoveryError(StoreError):
    """A store directory could not be recovered into a consistent state."""


class ReplicationError(ReproError):
    """Base class for the WAL-shipping replication layer (``repro.replication``)."""


class ReplicationTimeoutError(ReplicationError):
    """A replication fetch ran out of attempts or exceeded its deadline.

    Raised by :class:`~repro.replication.link.ReplicationLink` after its
    retry budget is spent; a single dropped or torn response is retried
    silently (with capped exponential backoff) and never surfaces.
    """


class StaleEpochError(ReplicationError):
    """A replication message carried an epoch older than one already seen.

    A follower that has observed epoch *N* must refuse feed responses
    stamped with an earlier epoch — they come from a demoted (zombie)
    primary whose writes were fenced off, and applying them would fork
    the replica from the promoted timeline.
    """

    def __init__(self, seen_epoch: int, frame_epoch: int):
        super().__init__(
            f"feed response from epoch {frame_epoch} but epoch "
            f"{seen_epoch} was already observed (zombie primary?)"
        )
        self.seen_epoch = seen_epoch
        self.frame_epoch = frame_epoch


class StalePrimaryError(ReplicationError):
    """A fenced (demoted) primary tried to commit a write.

    After failover promotes a follower, the cluster epoch advances; the
    old primary discovers this — through an explicit :meth:`fence` call
    or the durable epoch check in its commit path — and every write
    from then on raises this error instead of splitting the WAL's
    history.  Reads remain allowed (they are just stale).
    """

    def __init__(self, own_epoch: int, current_epoch: int):
        super().__init__(
            f"primary at epoch {own_epoch} was superseded by epoch "
            f"{current_epoch}; writes are fenced off"
        )
        self.own_epoch = own_epoch
        self.current_epoch = current_epoch


class WorkloadError(ReproError):
    """A workload generator was driven outside its prepared envelope."""


class WorkloadExhaustedError(WorkloadError):
    """A workload was asked for more operations than it prepared.

    Carries both sides of the mismatch so the caller can resize the run
    (or the pool) instead of silently replaying a truncated sequence.
    """

    def __init__(self, requested_pairs: int, supplied_pairs: int, prepared: int):
        super().__init__(
            f"workload exhausted after {supplied_pairs} of {requested_pairs} "
            f"requested pairs ({prepared} prepared)"
        )
        self.requested_pairs = requested_pairs
        self.supplied_pairs = supplied_pairs
        self.prepared = prepared


class ServiceError(ReproError):
    """Base class for the index serving layer (``repro.service``)."""


class QueueFullError(ServiceError):
    """An update was rejected because the admission queue is at capacity.

    Only raised under the ``shed`` admission policy; ``block`` and
    ``flush`` make room instead of rejecting.
    """

    def __init__(self, capacity: int):
        super().__init__(f"update queue is full (capacity {capacity})")
        self.capacity = capacity


class ServiceClosedError(ServiceError):
    """An operation was submitted to a service that has been closed."""


class XmlFormatError(ReproError, ValueError):
    """Malformed XML input or unresolvable IDREF.

    Carries optional context so a failure names its origin instead of a
    bare identifier: *source* is the document's id, *path* the
    ``/tag[i]/...`` element path the error anchors to.
    """

    def __init__(
        self, message: str, *, source: "str | None" = None, path: "str | None" = None
    ):
        details = []
        if source is not None:
            details.append(f"document {source}")
        if path is not None:
            details.append(f"at {path}")
        if details:
            message = f"{message} [{', '.join(details)}]"
        super().__init__(message)
        self.source = source
        self.path = path


class CorpusError(ReproError):
    """Base class for the multi-document corpus layer (``repro.corpus``)."""


class DocumentNotFoundError(CorpusError, KeyError):
    """A document id was referenced that is not in the corpus."""

    def __init__(self, doc_id: str):
        super().__init__(f"document {doc_id!r} is not in the corpus")
        self.doc_id = doc_id


class DuplicateDocumentError(CorpusError, ValueError):
    """A document id was added to a corpus that already holds it."""

    def __init__(self, doc_id: str):
        super().__init__(
            f"document {doc_id!r} already exists in the corpus; use "
            "replace_document to change its content"
        )
        self.doc_id = doc_id


class PathSyntaxError(ReproError, ValueError):
    """A path expression failed to parse."""

    def __init__(self, expression: str, position: int, message: str):
        super().__init__(
            f"invalid path expression {expression!r} at position {position}: {message}"
        )
        self.expression = expression
        self.position = position

"""The maintenance-operation wire schema (stable, JSON-only).

:meth:`GuardedMaintainer.apply_batch` consumes ``(method, args)`` pairs
whose args may hold live Python objects — an :class:`EdgeKind` enum, a
whole :class:`DataGraph` for ``add_subgraph``.  The durable layers
(:mod:`repro.store`) need those same operations as plain JSON so a
write-ahead-log record survives a process and replays identically.

This module is that boundary: :func:`op_to_wire` lowers one batch
operation to a JSON-serialisable dict, :func:`op_from_wire` raises it
back.  The encoding is **stable by contract** — logs written by one
version of the library must replay on the next — so changes here must
stay backward-compatible (add optional fields, never repurpose
existing ones; bump the WAL format version for anything structural).

Wire shapes (``{"op": <name>, "args": [...]}``):

* ``insert_edge``    — ``[source, target, kind]`` with kind ``"tree"`` / ``"idref"``
* ``delete_edge``    — ``[source, target]``
* ``insert_node``    — ``[parent, label, value]`` (value JSON-serialisable)
* ``delete_node``    — ``[dnode]``
* ``add_subgraph``   — ``[graph_dict, subgraph_root, [[a, b, kind], ...]]``
  (the subgraph in the :func:`repro.graph.serialize.graph_to_dict`
  format; cross edges normalised to explicit kinds) — an optional
  fourth element ``true`` marks an oid-preserving addition (absent
  means the pre-existing remapping behaviour, so old logs replay
  unchanged)
* ``delete_subgraph`` — ``[subgraph_root]``
* ``set_value``       — ``[dnode, value]`` (value JSON-serialisable)
* ``reconstruct``     — ``[]`` (merge the 1-index to its minimum; the
  merge order is a function of the index alone, so the record replays
  identically; logs older than the operation replay unchanged)

Malformed payloads raise :class:`SerializationError`, never a bare
``KeyError`` / ``TypeError`` / ``ValueError`` — the same hardened-loader
contract the graph and index formats follow.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any

from repro.exceptions import SerializationError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_from_dict, graph_to_dict

#: every batch-operation name the schema can carry (mirrors
#: ``repro.service.queue.ALL_OPS`` — the guarded mutation surface)
WIRE_OPS = (
    "insert_edge",
    "delete_edge",
    "insert_node",
    "delete_node",
    "add_subgraph",
    "delete_subgraph",
    "set_value",
    "reconstruct",
)

#: operations whose arguments travel as they are → how many they take
_PLAIN_ARITY = {
    "delete_edge": 2,
    "insert_node": 3,
    "delete_node": 1,
    "delete_subgraph": 1,
    "set_value": 2,
    "reconstruct": 0,
}


def _cross_edges_to_wire(cross_edges: tuple) -> list[list]:
    """Normalise ``(a, b)`` / ``(a, b, kind)`` tuples to explicit kinds."""
    wire = []
    for item in cross_edges:
        if len(item) == 2:
            a, b = item
            kind = EdgeKind.TREE
        else:
            a, b, kind = item
        wire.append([a, b, kind.value])
    return wire


def op_to_wire(method: str, args: tuple) -> dict[str, Any]:
    """Lower one ``(method, args)`` batch operation to a JSON-safe dict."""
    if method in _PLAIN_ARITY:
        if len(args) != _PLAIN_ARITY[method]:
            raise SerializationError(
                f"{method!r} takes {_PLAIN_ARITY[method]} arguments, got {len(args)}"
            )
        wire_args = list(args)
    elif method == "insert_edge":
        source, target, kind = args
        wire_args = [source, target, kind.value]
    elif method == "add_subgraph":
        subgraph, subgraph_root, cross_edges = args[:3]
        wire_args = [
            graph_to_dict(subgraph),
            subgraph_root,
            _cross_edges_to_wire(tuple(cross_edges)),
        ]
        if len(args) > 3 and args[3]:
            wire_args.append(True)
    else:
        raise SerializationError(
            f"cannot encode unknown operation {method!r}; choose from {WIRE_OPS}"
        )
    return {"op": method, "args": wire_args}


def op_from_wire(payload: dict[str, Any]) -> tuple[str, tuple]:
    """Raise a wire dict back into an ``apply_batch`` ``(method, args)`` pair."""
    try:
        method = payload["op"]
        wire_args = payload["args"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed wire operation: {exc!r}") from exc
    try:
        if method in _PLAIN_ARITY:
            if len(wire_args) != _PLAIN_ARITY[method]:
                raise ValueError(f"expected {_PLAIN_ARITY[method]} arguments")
            return method, tuple(wire_args)
        if method == "insert_edge":
            source, target, kind = wire_args
            return method, (source, target, EdgeKind(kind))
        if method == "add_subgraph":
            graph_dict, subgraph_root, cross_wire = wire_args[:3]
            cross_edges = tuple(
                (a, b, EdgeKind(kind)) for a, b, kind in cross_wire
            )
            decoded: tuple = (graph_from_dict(graph_dict), subgraph_root, cross_edges)
            if len(wire_args) > 3 and wire_args[3]:
                decoded += (True,)
            return method, decoded
    except SerializationError:
        raise
    except (ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed args for wire operation {method!r}: {exc}"
        ) from exc
    raise SerializationError(
        f"cannot decode unknown operation {method!r}; choose from {WIRE_OPS}"
    )


def batch_to_wire(operations: list[tuple[str, tuple]]) -> list[dict[str, Any]]:
    """Encode a whole ``apply_batch`` operation list."""
    return [op_to_wire(method, tuple(args)) for method, args in operations]


def batch_from_wire(payload: list[dict[str, Any]]) -> list[tuple[str, tuple]]:
    """Decode a whole encoded batch back to ``apply_batch`` input."""
    if not isinstance(payload, list):
        raise SerializationError(
            f"malformed wire batch: expected a list, got {type(payload).__name__}"
        )
    return [op_from_wire(op) for op in payload]


# ----------------------------------------------------------------------
# Replication feed framing
# ----------------------------------------------------------------------
#
# One feed response is one JSON frame::
#
#     {"crc": <frame crc>, "data": {
#         "v": 1,
#         "epoch": 3,            # the primary's fencing epoch
#         "last_lsn": 42,        # end of the primary's log at fetch time
#         "records": [
#             {"crc": <record crc>, "lsn": 7, "ops": [...]},
#             ...
#         ]
#     }}
#
# The frame CRC catches a truncated or bit-flipped response as a whole;
# the per-record CRCs (same canonical-JSON convention as a WAL line, so
# a record's integrity check is identical at rest and in flight) catch a
# payload that was re-framed around damaged records — a corrupt proxy
# can produce a frame whose envelope checks out but whose cargo does
# not.  Either failure is a SerializationError; the link treats it as a
# retriable torn response, never applying a partial frame.

#: current feed frame format version; bump on structural changes
FEED_FORMAT_VERSION = 1


def _canonical_crc(body: dict[str, Any]) -> int:
    """CRC32 over compact sorted-key JSON (the WAL record convention).

    Deliberately a local copy of ``repro.store.wal._record_crc`` rather
    than an import: ``repro.store`` imports this module while building
    its service layer, so importing back would cycle.  The convention is
    tiny and frozen by the WAL format contract.
    """
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(payload.encode("utf-8"))


def feed_record(lsn: int, ops: list[dict[str, Any]]) -> dict[str, Any]:
    """One CRC-stamped feed record (shape-compatible with a WAL line)."""
    body = {"lsn": lsn, "ops": ops, "v": FEED_FORMAT_VERSION}
    record = dict(body)
    record["crc"] = _canonical_crc(body)
    return record


@dataclass(frozen=True)
class FeedFrame:
    """One decoded, CRC-verified replication feed response."""

    epoch: int
    last_lsn: int
    #: ``(lsn, wire-encoded ops)`` pairs, in LSN order
    records: list[tuple[int, list[dict[str, Any]]]]


def encode_feed_frame(
    epoch: int,
    last_lsn: int,
    records: list[dict[str, Any]],
) -> bytes:
    """Encode one feed response; *records* are :func:`feed_record` dicts."""
    data = {
        "v": FEED_FORMAT_VERSION,
        "epoch": epoch,
        "last_lsn": last_lsn,
        "records": records,
    }
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8"))
    return f'{{"crc": {crc}, "data": {payload}}}'.encode("utf-8")


def decode_feed_frame(raw: bytes) -> FeedFrame:
    """Verify and decode one feed response.

    Checks, in order: frame JSON, frame CRC, format version, then every
    record's shape and CRC.  Any failure raises
    :class:`SerializationError` — the caller must treat the whole frame
    as undelivered and re-fetch from its own applied LSN.
    """
    try:
        document = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SerializationError(f"feed frame is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SerializationError(
            f"malformed feed frame: expected an object, got {type(document).__name__}"
        )
    try:
        crc = document["crc"]
        data = document["data"]
    except KeyError as exc:
        raise SerializationError(f"malformed feed frame: {exc!r}") from exc
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(payload.encode("utf-8")) != crc:
        raise SerializationError("feed frame failed its CRC check")
    version = data.get("v", 0)
    if not isinstance(version, int) or version > FEED_FORMAT_VERSION:
        raise SerializationError(
            f"feed frame format version {version!r} is newer than the "
            f"supported version {FEED_FORMAT_VERSION}"
        )
    try:
        epoch = data["epoch"]
        last_lsn = data["last_lsn"]
        raw_records = data["records"]
    except KeyError as exc:
        raise SerializationError(f"malformed feed frame: {exc!r}") from exc
    if not isinstance(epoch, int) or not isinstance(last_lsn, int):
        raise SerializationError("malformed feed frame: epoch/last_lsn not ints")
    if not isinstance(raw_records, list):
        raise SerializationError("malformed feed frame: records is not a list")
    records: list[tuple[int, list[dict[str, Any]]]] = []
    for item in raw_records:
        if not isinstance(item, dict):
            raise SerializationError("malformed feed record: not an object")
        body = dict(item)
        record_crc = body.pop("crc", None)
        if record_crc is None or record_crc != _canonical_crc(body):
            raise SerializationError(
                f"feed record lsn={body.get('lsn')!r} failed its CRC check"
            )
        lsn = body.get("lsn")
        ops = body.get("ops")
        if not isinstance(lsn, int) or not isinstance(ops, list):
            raise SerializationError("malformed feed record: bad lsn/ops")
        records.append((lsn, ops))
    return FeedFrame(epoch=epoch, last_lsn=last_lsn, records=records)

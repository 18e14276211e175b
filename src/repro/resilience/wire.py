"""The maintenance-operation wire schema (stable, JSON-only).

:meth:`GuardedMaintainer.apply_batch` consumes ``(method, args)`` pairs
whose args may hold live Python objects — an :class:`EdgeKind` enum, a
whole :class:`DataGraph` for ``add_subgraph``.  The durable layers
(:mod:`repro.store`, :mod:`repro.replication`) need those same
operations as plain JSON so a write-ahead-log record survives a process
and replays identically.

This module is that boundary: :func:`op_to_wire` lowers one batch
operation to ``{"op": <name>, "args": [...]}``, :func:`op_from_wire`
raises it back.  Which names exist, how many arguments each takes and
how they are spelled in JSON is the operation table's to say
(:data:`repro.maintenance.operations.OPERATIONS`); nothing here knows
an operation by name.

This is where operations arrive from outside the process (a log file, a
feed), so malformed payloads raise :class:`SerializationError`, never a
bare ``KeyError`` / ``TypeError`` / ``ValueError`` — the same
hardened-loader contract the graph and index formats follow.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import SerializationError
from repro.maintenance.operations import operation


def op_to_wire(method: str, args: tuple) -> dict[str, Any]:
    """Lower one ``(method, args)`` batch operation to a JSON-safe dict."""
    entry = operation(method, len(args), SerializationError)
    return {"op": method, "args": entry.to_wire(*args)}


def op_from_wire(payload: dict[str, Any]) -> tuple[str, tuple]:
    """Raise a wire dict back into an ``apply_batch`` ``(method, args)`` pair."""
    try:
        method = payload["op"]
        wire_args = payload["args"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed wire operation: {exc!r}") from exc
    if not isinstance(wire_args, list):
        raise SerializationError(
            f"malformed args for wire operation {method!r}: expected a list, "
            f"got {type(wire_args).__name__}"
        )
    entry = operation(method, len(wire_args), SerializationError)
    try:
        return method, entry.from_wire(*wire_args)
    except (ValueError, TypeError) as exc:
        raise SerializationError(
            f"malformed args for wire operation {method!r}: {exc}"
        ) from exc


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

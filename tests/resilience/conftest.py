"""Shared helpers for the resilience (chaos) suite.

Byte-identity is asserted through the canonical JSON wire formats:
two structures are "the same state" iff their sorted-key JSON dumps are
equal.  ``CHAOS_SEED`` (env var, default 0) shifts every random choice in
the chaos tests so the CI matrix explores different fault points per run.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_to_dict
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.serialize import family_to_dict, index_to_dict
from repro.workload.xmark import XMarkConfig, generate_xmark

#: CI chaos matrix seed — shifts workload and injector randomness
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: small-but-nontrivial dataset for chaos runs (hundreds of dnodes)
CHAOS_XMARK = XMarkConfig(
    num_items=30,
    num_persons=40,
    num_open_auctions=25,
    num_closed_auctions=15,
    num_categories=8,
)

#: the acyclic variant (minimal == minimum, so degrade-equality is exact)
CHAOS_XMARK_ACYCLIC = XMarkConfig(
    num_items=30,
    num_persons=40,
    num_open_auctions=25,
    num_closed_auctions=15,
    num_categories=8,
    cyclicity=0.0,
)


def edge_call(step) -> tuple[str, tuple]:
    """A mixed-workload step as the ``(method, args)`` pair a batch carries."""
    op, source, target = step
    if op == "insert":
        return "insert_edge", (source, target, EdgeKind.IDREF)
    return "delete_edge", (source, target)


def graph_fingerprint(graph: DataGraph) -> str:
    """Canonical byte representation of a graph's full state."""
    return json.dumps(graph_to_dict(graph), sort_keys=True)


def index_fingerprint(index: StructuralIndex) -> str:
    """Canonical byte representation of an index (partition + next_id)."""
    return json.dumps(index_to_dict(index), sort_keys=True)


def family_fingerprint(family: AkIndexFamily) -> str:
    """Canonical byte representation of an A(k) family (all levels)."""
    return json.dumps(family_to_dict(family), sort_keys=True)


@pytest.fixture(scope="session")
def chaos_graph_dict() -> dict:
    """The chaos XMark graph, as a dict template (copied per test)."""
    return graph_to_dict(generate_xmark(CHAOS_XMARK).graph)


@pytest.fixture(scope="session", autouse=True)
def chaos_trace():
    """With ``CHAOS_TRACE=<path>`` set, trace the whole suite to JSONL.

    CI uploads the trace as an artifact when the chaos job fails, so the
    ``txn`` spans and ``resilience.*`` counters of the failing run are
    inspectable.  Tests that install their own observer nest cleanly
    (``observed`` restores the previous one on exit).
    """
    path = os.environ.get("CHAOS_TRACE")
    if not path:
        yield
        return
    from repro.obs import JsonlSink, observed

    with observed(JsonlSink(path)):
        yield

"""Shared fixtures: the paper's running examples and small reference graphs."""

from __future__ import annotations

import os

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph


@pytest.fixture(autouse=True)
def ci_flight_recorder():
    """CI post-mortem hook: when ``FLIGHT_DIR`` is set, run every test
    under an ambient observer with a flight recorder attached, so a
    failing chaos/soak/recovery job leaves span-level dumps behind for
    the artifact upload.

    ``resilience.rolled_back`` and ``store.recovered`` are excluded from
    the trigger set: the fault-injection suites roll back *by design*
    and the crash-point torture recovers the store hundreds of times, so
    dumping on those expected events would bury the interesting
    failures.  Tests that install their own observer (``observed()``)
    shadow this one for the duration of their block, exactly as in
    production code.
    """
    flight_dir = os.environ.get("FLIGHT_DIR")
    if not flight_dir:
        yield
        return
    from repro.obs import FlightRecorder, Observer, install
    from repro.obs.flight import DEFAULT_TRIGGERS

    recorder = FlightRecorder(
        dump_dir=flight_dir,
        triggers=DEFAULT_TRIGGERS - {"resilience.rolled_back", "store.recovered"},
    )
    previous = install(Observer(recorder))
    try:
        yield
    finally:
        install(previous)


@pytest.fixture(autouse=True)
def small_audit_slices(monkeypatch):
    """Tier-1 graphs are a few thousand visits: at the served constant
    every commit would audit all of one, and no suite would ever hold a
    cursor between two commits.  A slice of 1024 visits makes their audit
    cycles span several commits, rollbacks and recoveries."""
    monkeypatch.setattr("repro.resilience.invariants.AUDIT_SLICE_VISITS", 1024)


@pytest.fixture
def tiny_tree() -> DataGraph:
    """root -> a -> b, root -> c (labels A, B, C)."""
    return (
        GraphBuilder()
        .node("a", "A")
        .node("b", "B")
        .node("c", "C")
        .edge("root", "a")
        .edge("a", "b")
        .edge("root", "c")
        .build()
    )


@pytest.fixture
def figure2_builder() -> GraphBuilder:
    """The Figure 2 running example (see test_paper_examples for the map).

    Dnodes 1 (A) and 2 (D) hang off the root; 3, 4, 5 are B-labeled with
    parents {1}, {1}, {1, 2}; 6, 7, 8 are C-labeled children of 3, 4, 5.
    Before the update the minimum 1-index is
    {root} {1} {2} {3,4} {5} {6,7} {8}; inserting dedge (2, 4) makes 4
    bisimilar to 5, triggering 2 splits then 2 merges.
    """
    return (
        GraphBuilder()
        .node(1, "A")
        .node(2, "D")
        .node(3, "B")
        .node(4, "B")
        .node(5, "B")
        .node(6, "C")
        .node(7, "C")
        .node(8, "C")
        .edge("root", 1)
        .edge("root", 2)
        .edge(1, 3)
        .edge(1, 4)
        .edge(1, 5)
        .edge(2, 5)
        .edge(3, 6)
        .edge(4, 7)
        .edge(5, 8)
    )


@pytest.fixture
def figure2_graph(figure2_builder: GraphBuilder) -> DataGraph:
    """The built Figure 2 data graph (before the dedge insertion)."""
    return figure2_builder.build()


@pytest.fixture
def figure4_graph() -> DataGraph:
    """The Figure 4 example: minimal 1-indexes need not be unique.

    A cyclic graph where two A-B cycles can be folded into one (the
    minimum) or kept apart (minimal but not minimum): a1 <-> b1 and
    a2 <-> b2 are parallel 2-cycles fed identically from the root.
    """
    builder = (
        GraphBuilder()
        .node("a1", "A")
        .node("a2", "A")
        .node("b1", "B")
        .node("b2", "B")
        .edge("root", "a1")
        .edge("root", "a2")
        .edge("a1", "b1")
        .edge("b1", "a1")
        .edge("a2", "b2")
        .edge("b2", "a2")
    )
    return builder.build()


@pytest.fixture
def diamond_dag() -> DataGraph:
    """root -> x, y; both -> shared leaf (tests multi-parent stability)."""
    return (
        GraphBuilder()
        .node("x", "X")
        .node("y", "X")
        .node("leaf", "L")
        .edge("root", "x")
        .edge("root", "y")
        .edge("x", "leaf")
        .edge("y", "leaf")
        .build()
    )

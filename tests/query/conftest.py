"""Shared fixtures of the query suites."""

from __future__ import annotations

import pytest

from repro.graph.builder import GraphBuilder


@pytest.fixture
def site_builder() -> GraphBuilder:
    return (
        GraphBuilder()
        .node("site", "site")
        .node("people", "people")
        .node("p1", "person").node("p2", "person")
        .node("n1", "name").node("n2", "name")
        .node("auctions", "open_auctions")
        .node("a1", "open_auction")
        .node("n3", "name")
        .edge("root", "site")
        .edge("site", "people")
        .edge("people", "p1").edge("people", "p2")
        .edge("p1", "n1").edge("p2", "n2")
        .edge("site", "auctions").edge("auctions", "a1")
        .edge("a1", "n3")
        .idref("a1", "p1")
    )

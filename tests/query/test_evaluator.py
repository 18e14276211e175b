"""Unit tests for data-graph path evaluation (the reference semantics)."""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.query.evaluator import evaluate_on_graph


class TestChildPaths:
    def test_exact_path(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_graph(g, "/site/people/person/name")
        assert report.matches == {site_builder.oid("n1"), site_builder.oid("n2")}

    def test_no_match(self, site_builder):
        g = site_builder.build()
        assert evaluate_on_graph(g, "/site/nothing").matches == frozenset()

    def test_path_through_idref(self, site_builder):
        # IDREF edges are ordinary dedges for path evaluation
        g = site_builder.build()
        report = evaluate_on_graph(
            g, "/site/open_auctions/open_auction/person/name"
        )
        assert report.matches == {site_builder.oid("n1")}

    def test_wildcard(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_graph(g, "/site/*")
        assert report.matches == {
            site_builder.oid("people"),
            site_builder.oid("auctions"),
        }


class TestDescendantPaths:
    def test_descendant_finds_all(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_graph(g, "//name")
        assert report.matches == {
            site_builder.oid(k) for k in ("n1", "n2", "n3")
        }

    def test_descendant_below_anchor(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_graph(g, "/site/people//name")
        assert report.matches == {site_builder.oid("n1"), site_builder.oid("n2")}

    def test_cyclic_graph_terminates(self, figure4_graph):
        report = evaluate_on_graph(figure4_graph, "//B")
        assert report.matches == set(figure4_graph.nodes_with_label("B"))

    def test_path_around_a_cycle(self, figure4_graph):
        # A -> B -> A is realisable by going around the cycle
        report = evaluate_on_graph(figure4_graph, "/A/B/A")
        assert report.matches == set(figure4_graph.nodes_with_label("A"))


class TestEdgeCases:
    def test_rootless_graph(self):
        assert evaluate_on_graph(DataGraph(), "//a").matches == frozenset()

    def test_counters_populated(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_graph(g, "//name")
        assert report.nodes_visited > 0
        assert report.edges_followed > 0

    def test_unreachable_nodes_never_match(self):
        b = GraphBuilder().edge("root", "a").node("island", "a")
        g = b.build()
        report = evaluate_on_graph(g, "//a")
        assert report.matches == {b.oid("a")}


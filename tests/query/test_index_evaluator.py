"""Index-based evaluation: safety, 1-index precision, A(k) validation.

These are the Section 3 semantics properties, checked both on hand-built
cases and property-style over random graphs and queries.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.index.akindex import AkIndexFamily
from repro.index.construction import label_partition, partition_index
from repro.index.oneindex import OneIndex
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import evaluate_on_ak, evaluate_on_index
from repro.workload.random_graphs import random_cyclic

QUERIES = (
    "/A",
    "/A/B",
    "/A/B/C",
    "//B",
    "//C",
    "/A//C",
    "//B/C",
    "/*/B",
    "//*",
)


def random_labeled_graph(seed: int):
    return random_cyclic(random.Random(seed), 25, 8)


class TestOneIndexPrecision:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_1index_is_safe_and_precise(self, query, seed):
        g = random_labeled_graph(seed)
        truth = evaluate_on_graph(g, query).matches
        index = OneIndex.build(g)
        got = evaluate_on_index(index, query).matches
        assert got == truth

    def test_nonminimum_1index_still_precise(self, figure2_graph):
        # any *valid* 1-index is precise; use the discrete partition
        discrete = partition_index(
            figure2_graph, {n: n for n in figure2_graph.nodes()}
        )
        truth = evaluate_on_graph(figure2_graph, "/A/B").matches
        assert evaluate_on_index(discrete, "/A/B").matches == truth

    def test_index_evaluation_touches_fewer_nodes(self):
        # counted alike, one visit per (node, state) pair: the discrete
        # partition is the data graph seen through the same kernel
        g = random_labeled_graph(11)
        index = OneIndex.build(g)
        discrete = partition_index(g, {n: n for n in g.nodes()})
        on_graph = evaluate_on_index(discrete, "//C")
        on_index = evaluate_on_index(index, "//C")
        assert on_graph.matches == on_index.matches == evaluate_on_graph(g, "//C").matches
        assert on_index.nodes_visited < on_graph.nodes_visited


class TestAkSafetyAndValidation:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_unvalidated_ak_is_safe(self, query, k):
        g = random_labeled_graph(21)
        family = AkIndexFamily.build(g, k)
        index = family.level_index()
        truth = evaluate_on_graph(g, query).matches
        unvalidated = evaluate_on_ak(index, k, query, validate=False).matches
        assert unvalidated >= truth  # safe: no misses

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_validated_ak_is_exact(self, query, k):
        g = random_labeled_graph(22)
        family = AkIndexFamily.build(g, k)
        index = family.level_index()
        truth = evaluate_on_graph(g, query).matches
        report = evaluate_on_ak(index, k, query)
        assert report.matches == truth

    def test_validation_skipped_when_k_suffices(self):
        g = random_labeled_graph(23)
        family = AkIndexFamily.build(g, 3)
        index = family.level_index()
        report = evaluate_on_ak(index, 3, "/A/B")
        assert not report.validated  # 2 child steps <= k = 3

    def test_validation_runs_for_long_paths(self):
        g = random_labeled_graph(23)
        family = AkIndexFamily.build(g, 1)
        index = family.level_index()
        report = evaluate_on_ak(index, 1, "/A/B/C")
        if report.matches or report.candidates_before_validation:
            assert report.validated

    def test_a0_can_have_false_positives_without_validation(self):
        # two C nodes, only one reachable via /A/B/C
        b = (
            GraphBuilder()
            .node("a", "A").node("b", "B").node("c1", "C")
            .node("x", "X").node("c2", "C")
            .edge("root", "a").edge("a", "b").edge("b", "c1")
            .edge("root", "x").edge("x", "c2")
        )
        g = b.build()
        index = partition_index(g, label_partition(g))
        truth = evaluate_on_graph(g, "/A/B/C").matches
        unvalidated = evaluate_on_ak(index, 0, "/A/B/C", validate=False).matches
        validated = evaluate_on_ak(index, 0, "/A/B/C").matches
        assert truth == {b.oid("c1")}
        assert unvalidated == {b.oid("c1"), b.oid("c2")}  # false positive
        assert validated == truth

    def test_forced_validation_on_short_query(self):
        g = random_labeled_graph(25)
        family = AkIndexFamily.build(g, 3)
        index = family.level_index()
        truth = evaluate_on_graph(g, "/A").matches
        report = evaluate_on_ak(index, 3, "/A", validate=True)
        assert report.matches == truth


class TestHypothesisQueries:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        query=st.sampled_from(QUERIES),
        k=st.integers(min_value=0, max_value=3),
    )
    def test_sandwich_property(self, seed, query, k):
        """truth == 1-index result ⊆ unvalidated A(k) result; validated == truth."""
        g = random_labeled_graph(seed)
        truth = evaluate_on_graph(g, query).matches
        one = evaluate_on_index(OneIndex.build(g), query).matches
        family = AkIndexFamily.build(g, k)
        ak_index = family.level_index()
        loose = evaluate_on_ak(ak_index, k, query, validate=False).matches
        tight = evaluate_on_ak(ak_index, k, query).matches
        assert one == truth
        assert loose >= truth
        assert tight == truth

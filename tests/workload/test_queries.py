"""Unit tests for the seeded query workload (repro.workload.queries)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graph.datagraph import DataGraph
from repro.query.evaluator import evaluate_on_graph
from repro.query.path_expression import parse_path
from repro.workload.queries import QueryWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

from tests.workload.sessions import ShiftingQueryPool

CONFIG = XMarkConfig(
    num_items=30, num_persons=40, num_open_auctions=25,
    num_closed_auctions=15, num_categories=8,
)


@pytest.fixture(scope="module")
def graph():
    return generate_xmark(CONFIG).graph


class TestGenerate:
    def test_pool_size_and_parseability(self, graph):
        workload = QueryWorkload.generate(graph, count=30, seed=5)
        assert len(workload) == 30
        for expression in workload:
            parse_path(expression)  # every expression is syntactically valid

    def test_deterministic_for_a_seed(self, graph):
        a = QueryWorkload.generate(graph, count=25, seed=9)
        b = QueryWorkload.generate(graph, count=25, seed=9)
        assert a.expressions == b.expressions
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]

    def test_different_seeds_differ(self, graph):
        a = QueryWorkload.generate(graph, count=25, seed=1)
        b = QueryWorkload.generate(graph, count=25, seed=2)
        assert a.expressions != b.expressions

    def test_child_only_expressions_are_live_paths(self, graph):
        # walks follow real edges, so child-only expressions must match
        workload = QueryWorkload.generate(
            graph, count=20, seed=3, descendant_fraction=0.0
        )
        for expression in workload:
            assert "//" not in expression
            assert evaluate_on_graph(graph, expression).matches

    def test_descendant_fraction_produces_descendant_axes(self, graph):
        workload = QueryWorkload.generate(
            graph, count=40, seed=7, descendant_fraction=1.0, max_depth=4
        )
        assert any("//" in expression for expression in workload)

    def test_rejects_rootless_graph(self):
        orphan = DataGraph()
        orphan.add_node("x")
        with pytest.raises(GraphError):
            QueryWorkload.generate(orphan)

    def test_rejects_non_positive_count(self, graph):
        with pytest.raises(ValueError):
            QueryWorkload.generate(graph, count=0)


class TestAnswerableByAk:
    def test_filters_to_short_child_only(self, graph):
        workload = QueryWorkload.generate(graph, count=40, seed=11, max_depth=5)
        exact = workload.answerable_by_ak(2)
        assert exact  # short child-only paths exist in any mixed pool
        for expression in exact:
            assert "//" not in expression
            assert expression.count("/") <= 2

    def test_sampling_stays_inside_the_pool(self, graph):
        workload = QueryWorkload.generate(graph, count=15, seed=13)
        pool = set(workload.expressions)
        assert all(workload.sample() in pool for _ in range(50))

    def test_k_zero_answers_nothing(self, graph):
        # every generated expression has at least one step, so A(0) can
        # answer none of them exactly
        workload = QueryWorkload.generate(graph, count=30, seed=15)
        assert workload.answerable_by_ak(0) == []

    def test_length_equal_to_k_is_included(self):
        workload = QueryWorkload(expressions=["/a/b", "/a", "/a/b/c", "//a"])
        assert workload.answerable_by_ak(2) == ["/a/b", "/a"]

    def test_length_beyond_k_is_excluded(self):
        workload = QueryWorkload(expressions=["/a/b/c"])
        assert workload.answerable_by_ak(2) == []
        assert workload.answerable_by_ak(3) == ["/a/b/c"]

    def test_descendant_axis_is_never_answerable(self):
        workload = QueryWorkload(expressions=["//a", "/a//b"])
        for k in (0, 1, 5, 100):
            assert workload.answerable_by_ak(k) == []

    def test_agrees_with_the_query_router(self, graph):
        # the serving-layer router compiles the same exactness condition;
        # the two classifications must never drift apart
        from repro.adaptive.router import QueryRouter

        workload = QueryWorkload.generate(graph, count=40, seed=17, max_depth=5)
        for k in (2, 3, 4):
            exact = set(workload.answerable_by_ak(k))
            router = QueryRouter((), k=k)
            for expression in workload:
                assert router.classify(expression).exact == (expression in exact)


class TestShiftingQueryPool:
    def _pools(self):
        short = QueryWorkload(expressions=["/a", "/b"])
        deep = QueryWorkload(expressions=["//c"])
        return short, deep

    def test_phases_advance_on_budget_exhaustion(self):
        short, deep = self._pools()
        pool = ShiftingQueryPool([(3, short), (2, deep)])
        drawn = [pool.sample() for _ in range(5)]
        assert all(e in short.expressions for e in drawn[:3])
        assert drawn[3:] == ["//c", "//c"]
        assert pool.phase == 1

    def test_stays_on_the_last_phase_forever(self):
        short, deep = self._pools()
        pool = ShiftingQueryPool([(1, short), (1, deep)])
        draws = [pool.sample() for _ in range(10)]
        assert draws[-5:] == ["//c"] * 5
        assert pool.draws == 10

    def test_iterates_and_counts_the_union_of_phases(self):
        short, deep = self._pools()
        pool = ShiftingQueryPool([(5, short), (5, deep)])
        assert list(pool) == ["/a", "/b", "//c"]
        assert len(pool) == 3

    def test_rejects_empty_phases_and_zero_budgets(self):
        short, _ = self._pools()
        with pytest.raises(ValueError):
            ShiftingQueryPool([])
        with pytest.raises(ValueError):
            ShiftingQueryPool([(0, short)])

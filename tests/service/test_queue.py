"""Unit tests for update batching and coalescing (repro.service.queue)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.service.queue import BoundedQueue, Update, coalesce


def ins(u: int, v: int, kind: EdgeKind = EdgeKind.IDREF) -> Update:
    return Update.insert_edge(u, v, kind)


def dele(u: int, v: int) -> Update:
    return Update.delete_edge(u, v)


class TestUpdate:
    def test_unknown_op_rejected(self):
        with pytest.raises(ServiceError):
            Update("frobnicate", ())

    @pytest.mark.parametrize(
        "op, args",
        [
            ("delete_edge", (1,)),
            ("insert_edge", (1, 2)),
            ("insert_node", (1, "label")),
            ("add_subgraph", (DataGraph(), 0)),
            ("add_subgraph", (DataGraph(), 0, (), True, "extra")),
            ("reconstruct", (1,)),
        ],
    )
    def test_wrong_arity_rejected(self, op, args):
        # it used to be admitted, and killed the flush that drained it
        with pytest.raises(ServiceError):
            Update(op, args)

    def test_edge_key_and_kind(self):
        update = ins(3, 4, EdgeKind.TREE)
        assert update.edge_key == (3, 4)
        assert update.edge_kind is EdgeKind.TREE
        assert dele(3, 4).edge_kind is None

    def test_edge_key_requires_edge_op(self):
        with pytest.raises(ServiceError):
            Update.delete_subgraph(5).edge_key

    def test_as_call_round_trip(self):
        assert ins(1, 2).as_call() == ("insert_edge", (1, 2, EdgeKind.IDREF))


class TestCoalesce:
    def test_insert_then_delete_cancels(self):
        survivors, stats = coalesce([ins(1, 2), dele(1, 2)])
        assert survivors == []
        assert stats.cancelled == 2 and stats.kept == 0
        assert stats.removed == 2

    def test_chain_collapses_fully(self):
        batch = [ins(1, 2), dele(1, 2), ins(1, 2), dele(1, 2)]
        survivors, stats = coalesce(batch)
        assert survivors == []
        assert stats.cancelled == 4

    def test_exact_repeat_deduplicated(self):
        survivors, stats = coalesce([ins(1, 2), ins(1, 2)])
        assert survivors == [ins(1, 2)]
        assert stats.deduplicated == 1

    def test_different_keys_do_not_interact(self):
        batch = [ins(1, 2), dele(3, 4)]
        survivors, _ = coalesce(batch)
        assert survivors == batch

    def test_order_of_survivors_is_preserved(self):
        batch = [ins(1, 2), ins(3, 4), dele(1, 2), ins(5, 6)]
        survivors, _ = coalesce(batch)
        assert survivors == [ins(3, 4), ins(5, 6)]

    def test_delete_then_insert_needs_the_graph(self):
        # without a graph the pre-batch kind is unknowable: keep both
        survivors, stats = coalesce([dele(1, 2), ins(1, 2)])
        assert survivors == [dele(1, 2), ins(1, 2)]
        assert stats.cancelled == 0

    def test_delete_then_insert_cancels_with_matching_kind(self, tiny_graph):
        (a,) = tiny_graph.nodes_with_label("a")
        (c,) = tiny_graph.nodes_with_label("c")
        assert tiny_graph.edge_kind(a, c) is EdgeKind.IDREF
        survivors, stats = coalesce([dele(a, c), ins(a, c)], tiny_graph)
        assert survivors == []
        assert stats.cancelled == 2

    def test_delete_then_insert_keeps_on_kind_mismatch(self, tiny_graph):
        (a,) = tiny_graph.nodes_with_label("a")
        (c,) = tiny_graph.nodes_with_label("c")
        batch = [dele(a, c), ins(a, c, EdgeKind.TREE)]
        survivors, _ = coalesce(batch, tiny_graph)
        assert survivors == batch

    def test_delete_then_insert_keeps_when_not_first_touch(self, tiny_graph):
        # insert/delete of an absent edge cancels; the later delete/insert
        # pair is NOT first-touch, so the live graph can't vouch for it
        (b,) = tiny_graph.nodes_with_label("b")
        (c,) = tiny_graph.nodes_with_label("c")
        assert not tiny_graph.has_edge(b, c)
        batch = [ins(b, c), dele(b, c), dele(b, c), ins(b, c)]
        survivors, stats = coalesce(batch, tiny_graph)
        assert survivors == [dele(b, c), ins(b, c)]
        assert stats.cancelled == 2

    def test_non_edge_ops_are_barriers(self):
        barrier = Update.delete_subgraph(9)
        batch = [ins(1, 2), barrier, dele(1, 2)]
        survivors, stats = coalesce(batch)
        assert survivors == batch
        assert stats.removed == 0

    def test_input_batch_is_not_modified(self):
        batch = [ins(1, 2), dele(1, 2)]
        snapshot = list(batch)
        coalesce(batch)
        assert batch == snapshot

    def test_stats_merge_accumulates(self):
        _, a = coalesce([ins(1, 2), dele(1, 2)])
        _, b = coalesce([ins(3, 4), ins(3, 4)])
        a.merge(b)
        assert a.examined == 4
        assert a.cancelled == 2 and a.deduplicated == 1
        assert a.removed == 3


class TestBoundedQueue:
    def test_fifo_drain(self):
        queue = BoundedQueue()
        for i in range(5):
            assert queue.offer(ins(i, i + 1))
        assert queue.drain() == [ins(i, i + 1) for i in range(5)]
        assert len(queue) == 0

    def test_drain_respects_max_ops(self):
        queue = BoundedQueue()
        for i in range(5):
            queue.offer(ins(i, i + 1))
        first = queue.drain(2)
        assert first == [ins(0, 1), ins(1, 2)]
        assert len(queue) == 3

    def test_capacity_rejects_when_full(self):
        queue = BoundedQueue(capacity=2)
        assert queue.offer(ins(1, 2))
        assert queue.offer(ins(2, 3))
        assert queue.full
        assert not queue.offer(ins(3, 4))
        queue.drain(1)
        assert queue.offer(ins(3, 4))

    def test_zero_capacity_is_unbounded(self):
        queue = BoundedQueue(capacity=0)
        for i in range(1000):
            assert queue.offer(ins(i, i + 1))
        assert not queue.full

    def test_wait_not_empty_times_out(self):
        queue = BoundedQueue()
        assert not queue.wait_not_empty(timeout=0.01)
        queue.offer(ins(1, 2))
        assert queue.wait_not_empty(timeout=0.01)

    def test_wait_not_full_returns_after_drain(self):
        queue = BoundedQueue(capacity=1)
        queue.offer(ins(1, 2))
        assert not queue.wait_not_full(timeout=0.01)
        queue.drain()
        assert queue.wait_not_full(timeout=0.01)

"""The operation wire schema: JSON round-trips and hardened decoding."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import SerializationError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.maintenance.operations import OPERATIONS
from repro.resilience.wire import (
    batch_from_wire,
    batch_to_wire,
    op_from_wire,
    op_to_wire,
)

from tests.store.conftest import graph_fingerprint


def _subgraph() -> DataGraph:
    sub = DataGraph()
    root = sub.add_node("r", "v")
    child = sub.add_node("c", 7)
    sub.add_edge(root, child)
    return sub


class TestRoundTrip:
    def test_insert_edge_keeps_kind_enum(self):
        for kind in (EdgeKind.TREE, EdgeKind.IDREF):
            wire = op_to_wire("insert_edge", (1, 2, kind))
            method, args = op_from_wire(json.loads(json.dumps(wire)))
            assert method == "insert_edge"
            assert args == (1, 2, kind)
            assert isinstance(args[2], EdgeKind)

    def test_delete_edge(self):
        method, args = op_from_wire(op_to_wire("delete_edge", (3, 4)))
        assert (method, args) == ("delete_edge", (3, 4))

    def test_insert_node_value_survives(self):
        wire = op_to_wire("insert_node", (5, "person", {"name": "ada"}))
        method, args = op_from_wire(json.loads(json.dumps(wire)))
        assert (method, args) == ("insert_node", (5, "person", {"name": "ada"}))

    def test_delete_node(self):
        method, args = op_from_wire(op_to_wire("delete_node", (9,)))
        assert (method, args) == ("delete_node", (9,))

    def test_add_subgraph_carries_whole_graph(self):
        sub = _subgraph()
        root = next(iter(sub.nodes()))
        cross = ((1, root), (2, root, EdgeKind.IDREF))
        wire = op_to_wire("add_subgraph", (sub, root, cross))
        # the payload is pure JSON (a log record must serialise)
        method, args = op_from_wire(json.loads(json.dumps(wire)))
        decoded_sub, decoded_root, decoded_cross = args
        assert method == "add_subgraph"
        assert decoded_root == root
        assert graph_fingerprint(decoded_sub) == graph_fingerprint(sub)
        # bare pairs are normalised to explicit TREE kind
        assert decoded_cross == ((1, root, EdgeKind.TREE), (2, root, EdgeKind.IDREF))

    def test_add_subgraph_preserve_oids_flag_round_trips(self):
        sub = _subgraph()
        root = next(iter(sub.nodes()))
        wire = op_to_wire("add_subgraph", (sub, root, (), True))
        assert wire["args"][3] is True
        method, args = op_from_wire(json.loads(json.dumps(wire)))
        assert method == "add_subgraph"
        assert len(args) == 4 and args[3] is True

    def test_add_subgraph_three_arg_wire_still_decodes(self):
        # old logs (pre preserve_oids) carry three args; decode must not change
        sub = _subgraph()
        root = next(iter(sub.nodes()))
        wire = op_to_wire("add_subgraph", (sub, root, ()))
        assert len(wire["args"]) == 3
        method, args = op_from_wire(json.loads(json.dumps(wire)))
        assert len(args) == 3

    def test_delete_subgraph(self):
        method, args = op_from_wire(op_to_wire("delete_subgraph", (11,)))
        assert (method, args) == ("delete_subgraph", (11,))

    def test_set_value(self):
        wire = op_to_wire("set_value", (7, {"price": 3}))
        method, args = op_from_wire(json.loads(json.dumps(wire)))
        assert (method, args) == ("set_value", (7, {"price": 3}))

    def test_batch_round_trip_covers_every_op(self):
        sub = _subgraph()
        root = next(iter(sub.nodes()))
        batch = [
            ("insert_edge", (1, 2, EdgeKind.IDREF)),
            ("delete_edge", (1, 2)),
            ("insert_node", (3, "item", None)),
            ("delete_node", (4,)),
            ("add_subgraph", (sub, root, ())),
            ("delete_subgraph", (5,)),
            ("set_value", (6, "text")),
            ("reconstruct", ()),
        ]
        assert {method for method, _ in batch} == set(OPERATIONS)
        wire = batch_to_wire(batch)
        decoded = batch_from_wire(json.loads(json.dumps(wire)))
        assert [m for m, _ in decoded] == [m for m, _ in batch]
        for (method, original), (_, restored) in zip(batch, decoded):
            if method == "add_subgraph":
                continue  # graph equality checked via fingerprint above
            assert tuple(original) == restored


class TestHardening:
    def test_unknown_op_encode(self):
        with pytest.raises(SerializationError):
            op_to_wire("truncate_graph", ())

    def test_unknown_op_decode(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": "truncate_graph", "args": []})

    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": "insert_edge"})
        with pytest.raises(SerializationError):
            op_from_wire({"args": [1, 2]})
        with pytest.raises(SerializationError):
            op_from_wire("not a dict")

    def test_wrong_arity(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": "delete_edge", "args": [1]})
        with pytest.raises(SerializationError):
            op_from_wire({"op": "insert_edge", "args": [1, 2, "idref", 4]})

    @pytest.mark.parametrize(
        "args", ["ab", {"a": 1, "b": 2}, 7, None], ids=["str", "dict", "int", "null"]
    )
    def test_args_must_be_a_list(self, args):
        # a two-character string or a two-key dict has the right "length"
        with pytest.raises(SerializationError):
            op_from_wire({"op": "delete_edge", "args": args})

    def test_op_must_be_a_name(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": ["delete_edge"], "args": [1, 2]})

    def test_bad_edge_kind(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": "insert_edge", "args": [1, 2, "hyperlink"]})

    def test_malformed_subgraph_payload(self):
        with pytest.raises(SerializationError):
            op_from_wire({"op": "add_subgraph", "args": [{"nodes": "nope"}, 0, []]})

    def test_batch_must_be_list(self):
        with pytest.raises(SerializationError):
            batch_from_wire({"op": "delete_node", "args": [1]})

"""Hardened graph loader: round-trips plus corrupted-payload rejection.

Every malformed payload must surface as :class:`SerializationError` (a
:class:`ReproError`/:class:`GraphError` subclass) with a descriptive
message — never a bare ``KeyError`` / ``TypeError`` / ``ValueError``
from deep inside the loader.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import (
    DuplicateEdgeError,
    GraphError,
    NodeNotFoundError,
    ReproError,
    RootError,
    SerializationError,
)
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import (
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    loads_graph,
)


@pytest.fixture
def payload(figure2_graph) -> dict:
    return graph_to_dict(figure2_graph)


class TestRoundTrip:
    def test_fingerprint_stable_through_roundtrip(self, figure2_graph):
        text = dumps_graph(figure2_graph)
        clone = loads_graph(text)
        assert dumps_graph(clone) == text

    def test_edge_kinds_survive(self, figure2_graph):
        figure2_graph.add_edge(
            next(iter(figure2_graph.nodes_with_label("D"))),
            next(iter(figure2_graph.nodes_with_label("C"))),
            EdgeKind.IDREF,
        )
        clone = loads_graph(dumps_graph(figure2_graph))
        assert sorted(clone.edges_of_kind(EdgeKind.IDREF)) == sorted(
            figure2_graph.edges_of_kind(EdgeKind.IDREF)
        )

    def test_json_values_roundtrip(self):
        g = DataGraph()
        root = g.add_root()
        a = g.add_node("A", value={"nested": [1, 2, None]})
        g.add_edge(root, a)
        clone = loads_graph(dumps_graph(g))
        assert clone.value(a) == {"nested": [1, 2, None]}


class TestCorruptPayloads:
    def test_missing_sections(self):
        for broken in ({}, {"nodes": []}, {"edges": []}, None, 42):
            with pytest.raises(SerializationError):
                graph_from_dict(broken)

    def test_malformed_node_entry(self, payload):
        payload["nodes"][1] = [99]  # not [oid, label, value]
        with pytest.raises(SerializationError, match="node entry"):
            graph_from_dict(payload)

    def test_malformed_edge_entry(self, payload):
        payload["edges"][0] = [0]  # not [source, target, kind]
        with pytest.raises(SerializationError, match="edge entry"):
            graph_from_dict(payload)

    def test_unknown_edge_kind(self, payload):
        payload["edges"][0][2] = "hyperlink"
        with pytest.raises(SerializationError, match="edge entry"):
            graph_from_dict(payload)

    def test_dangling_edge_endpoint(self, payload):
        payload["edges"].append([0, 999, "tree"])
        with pytest.raises(GraphError):
            graph_from_dict(payload)

    def test_duplicate_oid(self, payload):
        payload["nodes"].append(list(payload["nodes"][-1]))
        with pytest.raises(GraphError):
            graph_from_dict(payload)

    def test_root_not_among_nodes(self, payload):
        payload["root"] = 12345
        with pytest.raises(SerializationError, match="root"):
            graph_from_dict(payload)

    def test_root_with_wrong_label(self, payload):
        root_entry = next(e for e in payload["nodes"] if e[0] == payload["root"])
        root_entry[1] = "NOTROOT"
        with pytest.raises(GraphError):
            graph_from_dict(payload)

    def test_duplicate_edge(self, payload):
        payload["edges"].append(list(payload["edges"][-1]))
        with pytest.raises(DuplicateEdgeError):
            graph_from_dict(payload)

    def test_edge_into_root(self, payload):
        leaf = payload["nodes"][-1][0]
        payload["edges"].append([leaf, payload["root"], "idref"])
        with pytest.raises(RootError):
            graph_from_dict(payload)

    @pytest.mark.parametrize("endpoint", [1.0, "1", None, True], ids=repr)
    def test_non_int_edge_endpoint(self, payload, endpoint):
        payload["edges"].append([endpoint, payload["nodes"][-1][0], "tree"])
        with pytest.raises(NodeNotFoundError):
            graph_from_dict(payload)

    @pytest.mark.parametrize("oid", [True, "9", -1, 2**48], ids=repr)
    def test_bad_oid(self, payload, oid):
        # add_node's TypeError, reported as the node entry it came from
        payload["nodes"].append([oid, 0, None])
        with pytest.raises(SerializationError, match="node entry"):
            graph_from_dict(payload)

    @pytest.mark.parametrize(
        "version, label", [(1, 7), (1, None), (2, 2.5), (2, True), (2, None)], ids=repr
    )
    def test_non_str_label(self, payload, version, label):
        payload["format_version"] = version
        if version < 2:  # inline labels, no table
            names = payload.pop("labels")
            for entry in payload["nodes"]:
                entry[1] = names[entry[1]]
        payload["nodes"][-1][1] = label
        with pytest.raises(SerializationError, match="node entry"):
            graph_from_dict(payload)

    def test_errors_are_repro_errors(self, payload):
        # the satellite contract: corrupt payloads never leak bare
        # KeyError/TypeError/ValueError out of the loader
        del payload["edges"]
        try:
            graph_from_dict(payload)
        except ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("corrupt payload was accepted")

    def test_truncated_json_text(self, figure2_graph):
        text = dumps_graph(figure2_graph)
        with pytest.raises(json.JSONDecodeError):
            loads_graph(text[: len(text) // 2])

    def test_loaded_graph_passes_invariants(self, payload):
        graph_from_dict(payload).check_invariants()

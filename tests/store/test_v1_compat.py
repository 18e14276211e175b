"""Backward compatibility: v1 wire payloads must keep loading.

The v2 format (label table in the graph payload, delta-encoded extents
in the index payload) shipped with the array-backed core.  Checkpoints
written by v1 deployments — inline string labels, absolute sorted
extents, ``format_version: 1`` throughout — must still materialize
bit-for-bit.  ``tests/store/fixtures/`` holds two frozen v1 checkpoint
files (one per index kind) generated before the bump; these tests are
the contract that no future change silently drops the v1 reader.
"""

from pathlib import Path

import pytest

from repro.graph.datagraph import ROOT_LABEL, EdgeKind
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.index import OneIndex, index_from_dict, index_to_dict
from repro.store.checkpoint import load_checkpoint

FIXTURES = Path(__file__).parent / "fixtures"


class TestV1CheckpointFixtures:
    def test_one_index_checkpoint_materializes(self):
        cp = load_checkpoint(str(FIXTURES / "checkpoint-v1-one.json"))
        assert cp.kind == "one"
        assert cp.wal_lsn == 7
        assert cp.version == 3
        graph, index = cp.materialize()
        assert index.kind == "one"
        graph.check_invariants()
        index.check_invariants()
        assert graph.num_nodes == 30
        assert graph.num_edges == 29
        assert index.num_inodes == 13
        # the v1 payload must rebuild the exact same minimum 1-index a
        # fresh build over the revived graph produces
        rebuilt = OneIndex.build(graph)
        assert index.as_blocks() == rebuilt.as_blocks()

    def test_ak_family_checkpoint_materializes(self):
        cp = load_checkpoint(str(FIXTURES / "checkpoint-v1-ak.json"))
        assert cp.kind == "ak"
        assert cp.k == 1
        graph, family = cp.materialize()
        assert family.kind == "ak"
        graph.check_invariants()
        family.check_invariants()
        assert family.k == 1
        assert len(family.levels) == 2
        covered = set()
        for extent in family.levels[1].extents.values():
            covered |= extent
        assert covered == set(graph.nodes())

    def test_fixture_graphs_agree_across_kinds(self):
        one = load_checkpoint(str(FIXTURES / "checkpoint-v1-one.json"))
        ak = load_checkpoint(str(FIXTURES / "checkpoint-v1-ak.json"))
        assert one.graph_dict == ak.graph_dict


class TestV1PayloadLayouts:
    """The v1 layouts themselves (not just fixtures) stay readable."""

    @pytest.fixture
    def graph(self, figure2_graph):
        return figure2_graph

    def test_inline_label_graph_payload(self, graph):
        v2 = graph_to_dict(graph)
        v1 = {
            "format_version": 1,
            "nodes": [
                [oid, graph.label(oid), graph.value(oid)]
                for oid in sorted(graph.nodes())
            ],
            "edges": v2["edges"],
            "root": v2["root"],
        }
        revived = graph_from_dict(v1)
        assert sorted(revived.nodes()) == sorted(graph.nodes())
        assert sorted(revived.edges()) == sorted(graph.edges())
        for oid in graph.nodes():
            assert revived.label(oid) == graph.label(oid)
        assert revived.label(revived.root) == ROOT_LABEL
        for source, target in graph.edges():
            assert revived.edge_kind(source, target) is graph.edge_kind(
                source, target
            )

    def test_absolute_extent_index_payload(self, graph):
        index = OneIndex.build(graph)
        v1 = {
            "format_version": 1,
            "inodes": [[i, sorted(index.extent(i))] for i in sorted(index.inodes())],
            "next_id": index._next_id,
        }
        revived = index_from_dict(graph, v1, cls=OneIndex)
        assert revived.as_blocks() == index.as_blocks()
        for inode in index.inodes():
            assert revived.label_of(inode) == index.label_of(inode)
        revived.check_invariants()

    def test_v1_and_v2_payloads_revive_identically(self, graph):
        index = OneIndex.build(graph)
        via_v2 = index_from_dict(graph, index_to_dict(index), cls=OneIndex)
        v1 = {
            "format_version": 1,
            "inodes": [[i, sorted(index.extent(i))] for i in sorted(index.inodes())],
            "next_id": index._next_id,
        }
        via_v1 = index_from_dict(graph, v1, cls=OneIndex)
        assert via_v1.as_blocks() == via_v2.as_blocks()
        assert sorted(via_v1.inodes()) == sorted(via_v2.inodes())

    def test_missing_version_reads_as_v0_absolute(self, graph):
        # pre-versioned payloads carry no format_version at all
        index = OneIndex.build(graph)
        v0 = {
            "inodes": [[i, sorted(index.extent(i))] for i in sorted(index.inodes())],
            "next_id": index._next_id,
        }
        assert index_from_dict(graph, v0, cls=OneIndex).as_blocks() == index.as_blocks()

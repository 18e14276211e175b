"""Differential suite: the slab core against the retained dict oracle.

Every test drives the array-backed :class:`~repro.graph.DataGraph` /
:class:`~repro.index.StructuralIndex` and the pre-rewrite dict fossils
(:mod:`tests.core.refimpl`) through *identical* operation sequences and
asserts the observable states never diverge:

* every graph mutator, in seeded random scripts heavy enough to force
  slot reuse, slab growth and overlay churn;
* from-scratch index builds (shape equality always; fingerprint equality
  for ascending-built graphs, where the inode-numbering contract holds);
* split/merge maintenance — the same update stream applied through a
  maintainer over each core;
* the A(k) family maintainer on both cores;
* rollback at **every** journal position of a maintenance batch — the
  restored slab state must equal the dict snapshot taken before the
  batch;
* wire round-trips (graph/index/family) preserving equality and
  fingerprints.
"""

import random

import pytest

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.frozen import FrozenGraph
from repro.graph.serialize import graph_from_dict, graph_to_dict
from repro.index import (
    AkIndexFamily,
    OneIndex,
    family_from_dict,
    family_to_dict,
    index_from_dict,
    index_to_dict,
)
from repro.index.frozen import FrozenIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.resilience.journal import Transaction
from repro.service.snapshot import IndexSnapshot
from repro.workload.random_graphs import document_tree

from tests.core.refimpl import (
    DictGraph,
    build_dict_family,
    build_dict_one_index,
    to_dict_graph,
)

LABELS = ("item", "person", "name", "price", "desc")


# ----------------------------------------------------------------------
# Equality oracles
# ----------------------------------------------------------------------


def assert_graphs_equal(slab, ref):
    """Every public observable of the two graphs must agree."""
    assert sorted(slab.nodes()) == sorted(ref.nodes())
    assert slab.num_nodes == ref.num_nodes
    assert slab.num_edges == ref.num_edges
    assert slab.has_root == ref.has_root
    if slab.has_root:
        assert slab.root == ref.root
    for oid in slab.nodes():
        assert slab.label(oid) == ref.label(oid)
        assert slab.value(oid) == ref.value(oid)
        assert slab.succ(oid) == ref.succ(oid)
        assert slab.pred(oid) == ref.pred(oid)
        assert set(slab.iter_succ(oid)) == set(ref.iter_succ(oid))
        assert set(slab.iter_pred(oid)) == set(ref.iter_pred(oid))
        assert slab.out_degree(oid) == ref.out_degree(oid)
        assert slab.in_degree(oid) == ref.in_degree(oid)
    assert sorted(slab.edges()) == sorted(ref.edges())
    for source, target in slab.edges():
        assert slab.edge_kind(source, target) == ref.edge_kind(source, target)
    assert slab.labels() == ref.labels()
    for label in slab.labels():
        assert sorted(slab.nodes_with_label(label)) == sorted(
            ref.nodes_with_label(label)
        )
    assert slab._next_oid == ref._next_oid


def index_shape(index):
    """The index up to inode renaming: extents → (label, succ supports)."""
    extent_of = {i: frozenset(index.extent(i)) for i in index.inodes()}
    shape = {}
    for inode in index.inodes():
        succ = {
            extent_of[t]: index.support(inode, t) for t in index.isucc(inode)
        }
        shape[extent_of[inode]] = (index.label_of(inode), succ)
    return shape


def assert_indexes_equal(slab_index, ref_index):
    assert slab_index.num_inodes == ref_index.num_inodes
    assert slab_index.num_iedges == ref_index.num_iedges
    assert index_shape(slab_index) == index_shape(ref_index)


def family_shape(family):
    """Per-level partitions up to class-token renaming."""
    return [
        {frozenset(extent) for extent in level.extents.values()}
        for level in family.levels
    ]


# ----------------------------------------------------------------------
# Lockstep drivers
# ----------------------------------------------------------------------


class Mirror:
    """Applies each graph mutation to both cores and checks return values."""

    def __init__(self):
        self.slab = DataGraph()
        self.ref = DictGraph()
        assert self.slab.add_root() == self.ref.add_root()

    def add_node(self, label, value=None):
        oid = self.slab.add_node(label, value)
        assert self.ref.add_node(label, value) == oid
        return oid

    def add_edge(self, source, target, kind=EdgeKind.TREE):
        self.slab.add_edge(source, target, kind)
        self.ref.add_edge(source, target, kind)

    def remove_edge(self, source, target):
        self.slab.remove_edge(source, target)
        self.ref.remove_edge(source, target)

    def remove_node(self, oid):
        self.slab.remove_node(oid)
        self.ref.remove_node(oid)

    def relabel_node(self, oid, label):
        self.slab.relabel_node(oid, label)
        self.ref.relabel_node(oid, label)

    def set_value(self, oid, value):
        self.slab.set_value(oid, value)
        self.ref.set_value(oid, value)


def run_random_script(mirror, rng, steps, check_every=25):
    """A seeded script exercising every mutator, with periodic equality."""
    slab = mirror.slab
    root = slab.root
    for step in range(1, steps + 1):
        nodes = sorted(slab.nodes())
        roll = rng.random()
        if roll < 0.40 or len(nodes) < 4:
            value = rng.choice((None, "v", step))
            child = mirror.add_node(rng.choice(LABELS), value)
            mirror.add_edge(rng.choice(nodes), child)
        elif roll < 0.55:
            for _ in range(10):  # find a legal extra edge
                source = rng.choice(nodes)
                target = rng.choice(nodes)
                if target != root and not slab.has_edge(source, target):
                    kind = EdgeKind.IDREF if rng.random() < 0.5 else EdgeKind.TREE
                    mirror.add_edge(source, target, kind)
                    break
        elif roll < 0.70:
            edges = sorted(slab.edges())
            if edges:
                mirror.remove_edge(*edges[rng.randrange(len(edges))])
        elif roll < 0.80:
            victims = [n for n in nodes if n != root]
            if victims:
                mirror.remove_node(rng.choice(victims))
        elif roll < 0.90:
            victims = [n for n in nodes if n != root]
            if victims:
                mirror.relabel_node(rng.choice(victims), rng.choice(LABELS))
        else:
            mirror.set_value(rng.choice(nodes), rng.choice((None, step, "x")))
        if step % check_every == 0:
            assert_graphs_equal(mirror.slab, mirror.ref)
    assert_graphs_equal(mirror.slab, mirror.ref)
    mirror.slab.check_invariants()
    mirror.ref.check_invariants()


def grow_insert_only(mirror, rng, steps):
    """Ascending-oid growth: the regime where fingerprints must match."""
    slab = mirror.slab
    for step in range(steps):
        nodes = sorted(slab.nodes())
        child = mirror.add_node(rng.choice(LABELS), None if step % 3 else "v")
        mirror.add_edge(rng.choice(nodes), child)
        if step % 5 == 0 and len(nodes) > 2:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if target != slab.root and not slab.has_edge(source, target):
                mirror.add_edge(source, target, EdgeKind.IDREF)


# ----------------------------------------------------------------------
# Graph mutator equivalence
# ----------------------------------------------------------------------


class TestGraphMutators:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scripts_never_diverge(self, seed):
        mirror = Mirror()
        run_random_script(mirror, random.Random(seed), steps=250)

    def test_slot_reuse_after_bulk_removal(self):
        # drain most of the graph, then regrow: the slab core recycles
        # slots through its freelist while oids keep ascending
        mirror = Mirror()
        rng = random.Random(9)
        grow_insert_only(mirror, rng, steps=120)
        root = mirror.slab.root
        for oid in sorted(mirror.slab.nodes(), reverse=True):
            if oid != root and mirror.slab.has_node(oid) and oid % 3:
                mirror.remove_node(oid)
        assert_graphs_equal(mirror.slab, mirror.ref)
        grow_insert_only(mirror, rng, steps=120)
        assert_graphs_equal(mirror.slab, mirror.ref)
        mirror.slab.check_invariants()

    def test_copy_matches_reference_copy(self):
        mirror = Mirror()
        run_random_script(mirror, random.Random(4), steps=100)
        slab_copy = mirror.slab.copy()
        ref_copy = mirror.ref.copy()
        mirror.remove_node(max(n for n in mirror.slab.nodes() if n != mirror.slab.root))
        assert_graphs_equal(slab_copy, ref_copy)  # copies unaffected
        assert_graphs_equal(mirror.slab, mirror.ref)


# ----------------------------------------------------------------------
# From-scratch builds
# ----------------------------------------------------------------------


def reference_fingerprint(ref_graph, ref_index) -> bytes:
    """The 1-index snapshot fingerprint of the dict-backed pair (which
    stays outside the structure protocol: it is what the protocol's
    implementations are compared against)."""
    frozen = FrozenGraph.capture(ref_graph)
    frozen_index = FrozenIndex.capture(ref_index, frozen)
    return IndexSnapshot(0, "one", 0, frozen, frozen_index).fingerprint()


class TestIndexBuilds:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_shape_after_arbitrary_mutations(self, seed):
        mirror = Mirror()
        run_random_script(mirror, random.Random(seed + 10), steps=200)
        slab_index = OneIndex.build(mirror.slab)
        ref_index = build_dict_one_index(mirror.ref)
        assert_indexes_equal(slab_index, ref_index)
        slab_index.check_invariants()
        ref_index.check_invariants()

    def test_fingerprints_identical_for_ascending_graphs(self):
        # inode numbering (and hence the snapshot fingerprint) is part of
        # the cross-core contract when slots ascend with oids
        mirror = Mirror()
        grow_insert_only(mirror, random.Random(2), steps=300)
        slab_index = OneIndex.build(mirror.slab)
        ref_index = build_dict_one_index(mirror.ref)
        slab_fp = IndexSnapshot.capture(0, mirror.slab, slab_index).fingerprint()
        ref_fp = reference_fingerprint(mirror.ref, ref_index)
        assert slab_fp == ref_fp

    def test_document_tree_build_matches_oracle(self):
        graph = document_tree(random.Random(17), 400)
        ref_graph = to_dict_graph(graph)
        assert_graphs_equal(graph, ref_graph)
        slab_index = OneIndex.build(graph)
        ref_index = build_dict_one_index(ref_graph)
        assert_indexes_equal(slab_index, ref_index)
        slab_fp = IndexSnapshot.capture(0, graph, slab_index).fingerprint()
        ref_fp = reference_fingerprint(ref_graph, ref_index)
        assert slab_fp == ref_fp


# ----------------------------------------------------------------------
# Maintainer equivalence
# ----------------------------------------------------------------------


def drive_maintainers(slab_m, ref_m, rng, steps):
    """The same update stream through a maintainer over each core."""
    graph = slab_m.graph
    root = graph.root
    for step in range(steps):
        nodes = sorted(graph.nodes())
        roll = rng.random()
        if roll < 0.35:
            parent = rng.choice(nodes)
            label = rng.choice(LABELS)
            oid, _ = slab_m.insert_node(parent, label)
            ref_oid, _ = ref_m.insert_node(parent, label)
            assert oid == ref_oid
        elif roll < 0.55:
            for _ in range(10):
                source, target = rng.choice(nodes), rng.choice(nodes)
                if target != root and not graph.has_edge(source, target):
                    slab_m.insert_edge(source, target, EdgeKind.IDREF)
                    ref_m.insert_edge(source, target, EdgeKind.IDREF)
                    break
        elif roll < 0.75:
            edges = sorted(graph.edges())
            if edges:
                source, target = edges[rng.randrange(len(edges))]
                # keep the tree connected enough to stay interesting:
                # only drop edges whose target keeps another parent, or
                # leaf-bound idrefs
                if graph.in_degree(target) > 1:
                    slab_m.delete_edge(source, target)
                    ref_m.delete_edge(source, target)
        elif roll < 0.90:
            victims = [n for n in nodes if n != root]
            if victims:
                victim = rng.choice(victims)
                slab_m.delete_node(victim)
                ref_m.delete_node(victim)
        else:
            target = rng.choice(nodes)
            slab_m.set_value(target, step)
            ref_m.set_value(target, step)
        if step % 10 == 0:
            assert_indexes_equal(slab_m.index, ref_m.index)
            assert_graphs_equal(graph, ref_m.graph)
    assert_indexes_equal(slab_m.index, ref_m.index)
    assert_graphs_equal(graph, ref_m.graph)
    slab_m.index.check_invariants()
    ref_m.index.check_invariants()


class TestMaintainerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_merge_maintenance_matches_oracle(self, seed):
        graph = document_tree(random.Random(seed), 150)
        ref_graph = to_dict_graph(graph)
        slab_m = SplitMergeMaintainer(OneIndex.build(graph))
        ref_m = SplitMergeMaintainer(build_dict_one_index(ref_graph))
        drive_maintainers(slab_m, ref_m, random.Random(seed + 100), steps=80)

    @pytest.mark.parametrize("k", [1, 2])
    def test_ak_family_maintenance_matches_oracle(self, k):
        graph = document_tree(random.Random(k), 120)
        ref_graph = to_dict_graph(graph)
        slab_m = AkSplitMergeMaintainer(AkIndexFamily.build(graph, k))
        ref_m = AkSplitMergeMaintainer(build_dict_family(ref_graph, k))
        assert family_shape(slab_m.family) == family_shape(ref_m.family)
        rng = random.Random(k + 40)
        root = graph.root
        for step in range(60):
            nodes = sorted(graph.nodes())
            roll = rng.random()
            if roll < 0.4:
                parent = rng.choice(nodes)
                label = rng.choice(LABELS)
                oid, _ = slab_m.insert_node(parent, label)
                assert ref_m.insert_node(parent, label)[0] == oid
            elif roll < 0.7:
                for _ in range(10):
                    source, target = rng.choice(nodes), rng.choice(nodes)
                    if target != root and not graph.has_edge(source, target):
                        slab_m.insert_edge(source, target, EdgeKind.IDREF)
                        ref_m.insert_edge(source, target, EdgeKind.IDREF)
                        break
            else:
                edges = [
                    (s, t) for s, t in sorted(graph.edges())
                    if graph.in_degree(t) > 1
                ]
                if edges:
                    source, target = edges[rng.randrange(len(edges))]
                    slab_m.delete_edge(source, target)
                    ref_m.delete_edge(source, target)
            if step % 10 == 0:
                assert family_shape(slab_m.family) == family_shape(ref_m.family)
                assert_graphs_equal(graph, ref_m.graph)
        assert family_shape(slab_m.family) == family_shape(ref_m.family)
        assert_graphs_equal(graph, ref_m.graph)
        slab_m.family.check_invariants()
        ref_m.family.check_invariants()


# ----------------------------------------------------------------------
# Rollback at every journal position
# ----------------------------------------------------------------------


class _Fault(RuntimeError):
    pass


def _fault_at(position):
    def hook(op, count):
        if count == position:
            raise _Fault(f"injected at record {position} ({op})")

    return hook


def _fixture(seed=7):
    graph = document_tree(random.Random(seed), 80)
    index = OneIndex.build(graph)
    return graph, SplitMergeMaintainer(index)


def _batch(maintainer):
    """A deterministic journal-rich batch over the seed-7 fixture."""
    graph = maintainer.graph
    root = graph.root
    records = sorted(graph.succ(root))
    first, second = records[0], records[1]
    annex, _ = maintainer.insert_node(root, "annex")
    leaf, _ = maintainer.insert_node(annex, "name")
    maintainer.insert_edge(leaf, first, EdgeKind.IDREF)
    maintainer.set_value(leaf, "payload")
    maintainer.insert_edge(annex, second, EdgeKind.IDREF)
    maintainer.delete_edge(leaf, first)
    maintainer.delete_node(first)  # cascades through every incident edge
    maintainer.delete_node(annex)


class TestRollbackDifferential:
    def test_rollback_at_every_journal_position(self):
        # count the records of a committed run first
        graph, maintainer = _fixture()
        counted = []
        with Transaction(
            graph, maintainer.index, on_record=lambda op, n: counted.append(n)
        ):
            _batch(maintainer)
        total = counted[-1]
        assert total > 40, "batch too small to be an interesting torture"

        for position in range(1, total + 1):
            graph, maintainer = _fixture()
            baseline_graph = to_dict_graph(graph)
            baseline_shape = index_shape(maintainer.index)
            with pytest.raises(_Fault):
                with Transaction(
                    graph, maintainer.index, on_record=_fault_at(position)
                ):
                    _batch(maintainer)
            # the rolled-back slab state must equal the dict snapshot
            # taken before the batch — bitwise observables, not just shape
            assert_graphs_equal(graph, baseline_graph)
            assert index_shape(maintainer.index) == baseline_shape
            graph.check_invariants()
            maintainer.index.check_invariants()

    def test_committed_batch_matches_oracle_replay(self):
        graph, maintainer = _fixture()
        with Transaction(graph, maintainer.index):
            _batch(maintainer)
        ref_graph = to_dict_graph(graph)
        ref_index = build_dict_one_index(ref_graph)
        assert_graphs_equal(graph, ref_graph)
        assert_indexes_equal(maintainer.index, ref_index)


# ----------------------------------------------------------------------
# Wire round-trips
# ----------------------------------------------------------------------


class TestSerializationRoundTrips:
    def test_graph_roundtrip_after_mutations(self):
        mirror = Mirror()
        run_random_script(mirror, random.Random(31), steps=150)
        revived = graph_from_dict(graph_to_dict(mirror.slab))
        assert_graphs_equal(revived, mirror.ref)
        revived.check_invariants()

    def test_index_roundtrip_preserves_fingerprint(self):
        graph = document_tree(random.Random(13), 300)
        index = OneIndex.build(graph)
        revived = index_from_dict(graph, index_to_dict(index))
        assert_indexes_equal(revived, index)
        original_fp = IndexSnapshot.capture(0, graph, index).fingerprint()
        revived_fp = IndexSnapshot.capture(0, graph, revived).fingerprint()
        assert original_fp == revived_fp

    def test_family_roundtrip_preserves_levels(self):
        graph = document_tree(random.Random(19), 200)
        family = AkIndexFamily.build(graph, 2)
        revived = family_from_dict(graph, family_to_dict(family))
        assert family_shape(revived) == family_shape(family)
        revived.check_invariants()

"""Figure 3's merge-partner search reads one index parent's children.

A partner of ``I[v]`` shares every index parent, so the maintainer scans
only the index children of the parent with the fewest.  The reference
here is the scan it replaced: the children of *every* index parent,
with a frozen parent set built per sibling.

* **The partner does not change.**  Seeded XMark and IMDB streams (edge
  inserts and deletes, Figure 6 subgraph additions, subgraph deletions)
  run through the maintainer with the reference asked at every
  merge-phase start, and through a maintainer made of the reference
  alone: every search finds the same partner (or none), and the
  partitions, inode ids included, agree after every operation.
* **The work budget.**  ``one.merge_probes`` counts the siblings the
  searches read; a hub and a fixed-seed stream pin it, so a search that
  reads every parent's children again fails here, not only on a timer.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.experiments.config import SMOKE
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import EdgeKind
from repro.index.oneindex import OneIndex
from repro.index.stability import is_minimal_1index
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import observed
from repro.workload.imdb import generate_imdb
from repro.workload.updates import (
    MixedUpdateWorkload,
    extract_subgraphs,
    remove_subgraph_raw,
)
from repro.workload.xmark import generate_xmark


def every_parent_partner(index, inode: int) -> tuple[int | None, int]:
    """The every-parent scan: ``(partner or None, siblings probed)``."""
    label = index.label_of(inode)
    parents = index.ipred_set(inode)
    probes = 0
    if parents:
        seen: set[int] = set()
        for parent in parents:
            for sibling in index.isucc(parent):
                if sibling == inode or sibling in seen:
                    continue
                seen.add(sibling)
                probes += 1
                if index.label_of(sibling) == label and index.ipred_set(sibling) == parents:
                    return sibling, probes
        return None, probes
    for other in index.inodes():
        probes += 1
        if other != inode and index.label_of(other) == label and not index.ipred_set(other):
            return other, probes
    return None, probes


class ReferenceMaintainer(SplitMergeMaintainer):
    """Figure 3 with the every-parent search."""

    def _find_merge_partner(self, inode: int) -> int | None:
        return every_parent_partner(self.index, inode)[0]


class CheckedMaintainer(SplitMergeMaintainer):
    """The maintainer, asking the reference at every merge-phase start."""

    def __init__(self, index):
        super().__init__(index)
        self.searches = 0
        self.found = 0

    def _find_merge_partner(self, inode: int) -> int | None:
        expected, _ = every_parent_partner(self.index, inode)
        partner = super()._find_merge_partner(inode)
        assert partner == expected, (inode, partner, expected)
        self.searches += 1
        self.found += partner is not None
        return partner


def partition(index) -> dict[int, frozenset[int]]:
    """Inode id -> extent: equal only if the ids agree too."""
    return {inode: index.extent(inode) for inode in index.inodes()}


def run_pair(setup, drive) -> CheckedMaintainer:
    """Both maintainers over equal set-ups, compared after every operation.

    ``setup()`` returns a graph and a plan of updates; ``drive(maintainer,
    plan)`` applies the plan, yielding after each operation.
    """
    (graph, plan), (graph_again, plan_again) = setup(), setup()
    checked = CheckedMaintainer(OneIndex.build(graph))
    reference = ReferenceMaintainer(OneIndex.build(graph_again))
    steps = zip(drive(checked, plan), drive(reference, plan_again), strict=True)
    for _ in steps:
        assert partition(checked.index) == partition(reference.index)
    assert is_minimal_1index(checked.index)
    return checked


def mixed_setup(generate, config, seed: int):
    """A generated graph thinned by a seeded insert/delete workload."""

    def setup():
        graph = generate(config).graph
        return graph, MixedUpdateWorkload.prepare(graph, seed=seed)

    return setup


def apply_mixed(maintainer, workload):
    for kind, source, target in workload.steps(SMOKE.pairs_1index):
        if kind == "insert":
            maintainer.insert_edge(source, target, EdgeKind.IDREF)
        else:
            maintainer.delete_edge(source, target)
        yield


def subgraph_setup(seed: int):
    """XMark with Figure 12's subtrees cut out."""

    def setup():
        graph = generate_xmark(SMOKE.xmark_at(1.0)).graph
        extracted = extract_subgraphs(graph, "open_auction", SMOKE.num_subgraphs, seed=seed)
        for item in extracted:
            remove_subgraph_raw(graph, item)
        return graph, extracted

    return setup


def add_then_delete_subgraphs(maintainer, extracted):
    roots = []
    for item in extracted:
        mapping, _ = maintainer.add_subgraph(item.subgraph, item.root, item.cross_edges)
        roots.append(mapping[item.root])
        yield
    for root in roots[::2]:
        maintainer.delete_subgraph(root)
        yield


class TestThePartnerDoesNotChange:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("cyclicity", [1.0, 0.0])
    def test_xmark_edge_stream(self, cyclicity, seed):
        setup = mixed_setup(generate_xmark, SMOKE.xmark_at(cyclicity), seed)
        checked = run_pair(setup, apply_mixed)
        assert checked.found > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_imdb_edge_stream(self, seed):
        checked = run_pair(mixed_setup(generate_imdb, SMOKE.imdb, seed), apply_mixed)
        assert checked.found > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_xmark_subgraph_additions_and_deletions(self, seed):
        checked = run_pair(subgraph_setup(seed), add_then_delete_subgraphs)
        assert checked.found > 0


# ----------------------------------------------------------------------
# The work budget: siblings read per search
# ----------------------------------------------------------------------


def probes_during(action) -> int:
    with observed() as obs:
        action()
    return obs.metrics.counter("one.merge_probes").value


def test_a_search_reads_the_least_fanout_parent_only():
    """I[v] gains parents P (200 index children) and Q (3): the search
    reads Q's two other children, not P's 199."""
    builder = GraphBuilder().node("p", "P").node("q", "Q").node("v", "X")
    builder.edge("root", "p").edge("root", "q").edge("p", "v")
    for i in range(199):
        builder.node(f"c{i}", f"C{i}").edge("p", f"c{i}")
    builder.node("x1", "X1").node("x2", "X2").edge("q", "x1").edge("q", "x2")
    graph = builder.build()
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)
    hub, small = index.inode_of(builder.oid("p")), index.inode_of(builder.oid("q"))

    probes = probes_during(lambda: maintainer.insert_edge(builder.oid("q"), builder.oid("v")))

    assert len(list(index.isucc(hub))) == 200 and len(list(index.isucc(small))) == 3
    assert set(index.ipred(index.inode_of(builder.oid("v")))) == {hub, small}
    assert every_parent_partner(index, index.inode_of(builder.oid("v"))) == (None, 201)
    assert probes <= 2


#: ``one.merge_probes`` over the stream below (57 searches) as the
#: least-fanout search reads it; the every-parent scan read 2 175, 16× as
#: many
XMARK_STREAM_PROBES = 136


def test_a_fixed_stream_stays_within_its_probe_budget():
    graph, workload = mixed_setup(generate_xmark, SMOKE.xmark_at(1.0), seed=7)()
    maintainer = CheckedMaintainer(OneIndex.build(graph))
    probes = probes_during(lambda: deque(apply_mixed(maintainer, workload), maxlen=0))
    assert maintainer.searches == 57
    assert probes <= 1.1 * XMARK_STREAM_PROBES

"""The paper's own relation between its algorithm and its comparator.

Section 7.1: *propagate* is the split phase of Figure 3 with nothing
after it.  So a split/merge maintainer whose merge phase does nothing
must agree with :class:`PropagateMaintainer` operation for operation —
same partition (inode ids included), same ``splits``, ``trivial`` and
``peak_inodes`` — on edge streams and on subgraph additions (Figure 6
with "propagate instead of insert_1_index_edge").
"""

from __future__ import annotations

import pytest

from repro.index.oneindex import OneIndex
from repro.index.stability import is_valid_1index
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.workload.imdb import IMDBConfig, generate_imdb
from repro.workload.updates import (
    MixedUpdateWorkload,
    extract_subgraphs,
    remove_subgraph_raw,
)
from repro.workload.xmark import XMarkConfig, generate_xmark

GRAPHS = {
    "xmark": lambda seed: generate_xmark(
        XMarkConfig(
            num_items=30, num_persons=40, num_open_auctions=25,
            num_closed_auctions=15, num_categories=8, seed=13 + seed,
        )
    ).graph,
    "imdb": lambda seed: generate_imdb(
        IMDBConfig(num_movies=40, num_persons=50, num_communities=4, seed=29 + seed)
    ).graph,
}
SUBTREE_LABEL = {"xmark": "open_auction", "imdb": "movie"}


class SplitOnly(SplitMergeMaintainer):
    def _merge_phase(self, starts, stats):
        """Skip Figure 3's merge phase."""


def partition(maintainer) -> dict[int, frozenset[int]]:
    index = maintainer.index
    return {inode: index.extent(inode) for inode in index.inodes()}


def assert_same_step(propagate, split_only, stats_pair) -> None:
    ours, theirs = stats_pair
    assert (ours.splits, ours.trivial, ours.peak_inodes) == (
        theirs.splits, theirs.trivial, theirs.peak_inodes,
    )
    assert ours.merges == theirs.merges == 0
    assert partition(propagate) == partition(split_only)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dataset", GRAPHS)
def test_propagate_is_split_merge_without_the_merge_phase(dataset, seed):
    graph = GRAPHS[dataset](seed)
    extracted = extract_subgraphs(graph, SUBTREE_LABEL[dataset], 4, seed=23 + seed)
    assert extracted, "the generator produced no subtree to re-add"
    for item in extracted:
        remove_subgraph_raw(graph, item)
    workload = MixedUpdateWorkload.prepare(graph, seed=seed)
    steps = list(workload.steps(min(40, workload.remaining_pairs())))
    propagate = PropagateMaintainer(OneIndex.build(graph.copy()))
    split_only = SplitOnly(OneIndex.build(graph.copy()))
    both = (propagate, split_only)

    nontrivial = 0
    per_subgraph = len(steps) // len(extracted)
    for number, item in enumerate(extracted):
        results = [
            maintainer.add_subgraph(item.subgraph, item.root, iter(item.cross_edges))
            for maintainer in both
        ]
        assert results[0][0] == results[1][0]  # the oid mapping
        assert_same_step(*both, [stats for _, stats in results])
        for kind, source, target in steps[number * per_subgraph : (number + 1) * per_subgraph]:
            method = "insert_edge" if kind == "insert" else "delete_edge"
            stats_pair = [getattr(maintainer, method)(source, target) for maintainer in both]
            assert_same_step(*both, stats_pair)
            nontrivial += not stats_pair[0].trivial
    assert nontrivial, "the stream never left the trivial path"
    assert is_valid_1index(propagate.index)
    propagate.index.check_invariants()

"""Index reconstruction (Kaushik et al. [8]) and the 5 % trigger policy.

Section 7 keeps the *propagate* and *simple* baselines usable by
periodically reconstructing their indexes.  Two pieces live here:

* :func:`reconstruct_via_index_graph` — the "index reconstruction" idea
  of [8]: run the 1-index construction *on the index graph itself*
  (treating inodes as data nodes) and then "blow up" each node of the new
  index by replacing old inodes with their extents.  Because the current
  partition is stable, bisimilarity of inodes in the quotient graph
  coincides with bisimilarity of their extents, so the result is the
  minimum 1-index of the underlying data — at a fraction of the cost of
  re-running construction over all dnodes.

* :class:`ReconstructionPolicy` — the paper's trigger heuristic:
  "remember the size of the index when it was last reconstructed, and
  then perform reconstruction whenever the current index is more than 5 %
  larger than that."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.construction import bisimulation_partition
from repro.obs import current as current_obs

#: The paper's reconstruction trigger: 5 % growth since last reconstruction.
DEFAULT_THRESHOLD = 0.05


def quotient_graph(index: StructuralIndex) -> tuple[DataGraph, dict[int, int]]:
    """The index graph as a :class:`DataGraph` (inodes become nodes).

    Returns the quotient graph and a map ``quotient oid -> inode id``.
    """
    quotient = DataGraph()
    to_inode: dict[int, int] = {}
    oid_of: dict[int, int] = {}
    # ascending inode id, not table order: a checkpoint-loaded index and
    # the live one it was saved from hold the same inodes in different
    # orders, and reconstruction must do the same merges on both
    inodes = sorted(index.inodes())
    for inode in inodes:
        oid = quotient.add_node(index.label_of(inode))
        oid_of[inode] = oid
        to_inode[oid] = inode
    for inode in inodes:
        for target in index.isucc(inode):
            quotient.add_edge(oid_of[inode], oid_of[target])
    return quotient, to_inode


def reconstruct_via_index_graph(index: StructuralIndex) -> None:
    """Rebuild *index* in place to the minimum 1-index, via its quotient.

    Precondition: *index* is a valid (self-stable) 1-index.  The quotient
    construction then computes which inodes are bisimilar; merging each
    bisimilarity class yields the coarsest stable partition of the data
    graph, i.e. the minimum 1-index (Lemma 1).

    Which inode survives each merge is a function of the partition and
    its inode ids alone (classes by smallest member, members ascending),
    so a logged ``reconstruct`` replays to the primary's ids.
    """
    obs = current_obs()
    with obs.span("one.reconstruction", before=index.num_inodes) as span:
        quotient, to_inode = quotient_graph(index)
        classes = bisimulation_partition(quotient)
        groups: dict[int, list[int]] = {}
        for oid in sorted(classes):  # quotient oids ascend with inode ids
            groups.setdefault(classes[oid], []).append(to_inode[oid])
        for members in groups.values():
            if len(members) > 1:
                index.merge_inodes(members)
        span.set(after=index.num_inodes)
    obs.add("recon.via_index_graph")


def reconstruct_from_scratch(index: StructuralIndex) -> None:
    """Rebuild *index* in place by full construction over the data graph.

    The expensive alternative (used as the third comparator in the
    subgraph-addition experiment): ignores the current partition entirely.
    """
    obs = current_obs()
    with obs.span("one.reconstruction_from_scratch", before=index.num_inodes) as span:
        classes = bisimulation_partition(index.graph)
        target: dict[int, list[int]] = {}
        for dnode, cls in classes.items():
            target.setdefault(cls, []).append(dnode)
        fresh = StructuralIndex.from_partition(index.graph, target.values())
        index._adopt_from(fresh)
        span.set(after=index.num_inodes)
    obs.add("recon.from_scratch")


@dataclass
class ReconstructionPolicy:
    """The paper's 5 %-growth reconstruction trigger.

    Track the index size with :meth:`should_reconstruct` after every
    update; when it returns ``True``, reconstruct and call
    :meth:`reconstructed` with the new size.  :attr:`intervals` records
    the number of updates between consecutive reconstructions (Table 1
    reports their mean).
    """

    threshold: float = DEFAULT_THRESHOLD
    baseline_size: int = 0
    updates_since: int = 0
    reconstructions: int = 0
    intervals: list[int] = field(default_factory=list)

    def start(self, size: int) -> None:
        """Initialise with the size of the freshly built index."""
        self.baseline_size = size
        self.updates_since = 0

    def should_reconstruct(self, current_size: int) -> bool:
        """Record one update; report whether the trigger fires."""
        self.updates_since += 1
        if self.baseline_size <= 0:
            return False
        return current_size > (1.0 + self.threshold) * self.baseline_size

    def reconstructed(self, new_size: int) -> None:
        """Note that a reconstruction happened at the current update."""
        self.reconstructions += 1
        self.intervals.append(self.updates_since)
        self.baseline_size = new_size
        self.updates_since = 0

    @property
    def mean_interval(self) -> float:
        """Average number of updates between reconstructions (Table 1)."""
        if not self.intervals:
            return float("inf")
        return sum(self.intervals) / len(self.intervals)

"""The 1-index (Milo & Suciu [11]), Definition 2 of the paper.

A 1-index is a label-homogeneous partition of the dnodes that is stable
with respect to itself.  :class:`OneIndex` is a thin veneer over
:class:`~repro.index.base.StructuralIndex` adding its construction entry
point, ``OneIndex.build(graph)``: the minimum 1-index via signature
iteration (Lemma 1 guarantees uniqueness; the Paige–Tarjan worklist
engine, :func:`~repro.index.construction.stabilize_from_labels`, builds
the same partition and is the tests' cross-check).

Any valid (not necessarily minimum) 1-index can also be wrapped from an
explicit partition with :meth:`OneIndex.from_partition`.
"""

from __future__ import annotations

from repro.exceptions import InvalidIndexError
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.construction import bisimulation_partition, blocks_of


class OneIndex(StructuralIndex):
    """A 1-index over a data graph.

    The class does not *enforce* self-stability on every mutation (the
    maintenance algorithms go through intentionally-unstable intermediate
    states); :func:`repro.index.stability.is_valid_1index` is the oracle.
    """

    @classmethod
    def build(cls, graph: DataGraph) -> "OneIndex":
        """Construct the minimum 1-index of *graph* by signature refinement
        (a first O(n + m) round, then each round re-signs only the
        children of the dnodes that changed class)."""
        # the refinement loop's output is a partition by construction,
        # so the validating public entry point is skipped
        return cls._from_partition_trusted(graph, blocks_of(bisimulation_partition(graph)))

    @classmethod
    def _adopt(cls, index: StructuralIndex) -> "OneIndex":
        """Rebrand a plain :class:`StructuralIndex` as a :class:`OneIndex`."""
        adopted = cls(index.graph)
        adopted._adopt_from(index)
        return adopted

    def copy(self) -> "OneIndex":
        """An independent copy (shares the graph object)."""
        return OneIndex._adopt(super().copy())

    def compression_ratio(self) -> float:
        """``#inodes / #dnodes`` — how much smaller the index graph is."""
        if self.graph.num_nodes == 0:
            raise InvalidIndexError("empty graph has no compression ratio")
        return self.num_inodes / self.graph.num_nodes

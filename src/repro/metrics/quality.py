"""The index-quality metric of Section 3.

    quality = (#inodes in the index) / (#inodes in the minimum index) - 1

"which we would like to keep as close to zero as possible" — the same
metric [8] uses, which makes the Figure 9/10/12/13 comparisons apples to
apples.  Computing the denominator means building the minimum index from
scratch, so the harness samples quality at intervals rather than after
every update.
"""

from __future__ import annotations

from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.stability import minimum_1index_size, minimum_ak_size


def quality_from_sizes(index_size: int, minimum_size: int) -> float:
    """The quality ratio given the two sizes."""
    if minimum_size <= 0:
        raise ValueError("minimum index size must be positive")
    if index_size < minimum_size:
        raise ValueError(
            f"index size {index_size} below the minimum {minimum_size}: "
            "the 'index' is not a valid index of this graph"
        )
    return index_size / minimum_size - 1.0


def one_index_quality(index: StructuralIndex) -> float:
    """Quality of a 1-index against the freshly computed minimum (O(m·d))."""
    return quality_from_sizes(index.num_inodes, minimum_1index_size(index.graph))


def ak_index_quality(index: StructuralIndex, k: int) -> float:
    """Quality of a stand-alone A(k)-index against the fresh minimum."""
    return quality_from_sizes(index.num_inodes, minimum_ak_size(index.graph, k))


def ak_family_quality(family: AkIndexFamily) -> float:
    """Quality of the leaf level of an A(k) family (0.0 when minimum)."""
    minimum = minimum_ak_size(family.graph, family.k)
    return quality_from_sizes(family.num_inodes(family.k), minimum)

"""The structure protocol: what every layer above ``repro.index`` may ask
of the thing it maintains, serves and persists.

The paper treats the 1-index and the A(k) family as two instances of one
idea — a partition refined level by level (Definition 4, Lemma 2) and
repaired by split-then-merge (Figures 3 and 7).  :class:`StructuralIndex`
and :class:`AkIndexFamily` therefore share the surface below, and a
transaction, a snapshot or a checkpoint takes **the structure** as one
argument and never asks which of the two it holds.  The post-check asks
only to pick its one pass (:func:`repro.index.stability.audit_extents` or
:func:`~repro.index.stability.audit_classes`), which states every per-id
fact; the protocol offers what no per-id pass states, the totals.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex

#: the kinds of structure, as spelled on disk, on the wire and in ``/health``
KINDS = (OneIndex.kind, AkIndexFamily.kind)


class Structure(Protocol):
    """A maintained partition of a data graph's dnodes."""

    graph: DataGraph
    #: one of :data:`KINDS`
    kind: str
    #: the leaf level of an A(k) family; 0 for a 1-index, which has no bound
    k: int

    @property
    def generation(self) -> int:
        """A counter every mutation bumps: one comparison tells whether
        anything changed since a caller last looked."""

    def leaf(self) -> Any:
        """The live read surface a published version freezes
        (``inodes`` / ``has_inode`` / ``extent`` / ``label_of`` / ``isucc`` /
        ``inode_of`` / ``derived_entries``): a 1-index itself, a family's
        :class:`~repro.index.akindex.LeafView`."""

    def blocks(self) -> list[frozenset[int]]:
        """The served partition, one frozen extent per inode."""

    def check_totals(self) -> None:
        """Raise :class:`AssertionError` unless what no leaf extent states
        holds: counters, cover sums, key sets (a family's classes above the
        leaf level too).  The per-id facts are the guard's one pass,
        :func:`repro.index.stability.audit_extents` (a 1-index) or
        :func:`~repro.index.stability.audit_classes` (a family)."""

    def approx_bytes(self) -> int:
        """Approximate resident bytes."""


def build_structure(graph: DataGraph, kind: str, k: int) -> Structure:
    """The minimum structure of *kind* over *graph*, built from scratch."""
    if kind == AkIndexFamily.kind:
        return AkIndexFamily.build(graph, k)
    return OneIndex.build(graph)

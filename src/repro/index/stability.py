"""Stability, validity, minimality and minimum-ness oracles.

These functions are the executable versions of Definitions 1, 2, 5 and 6.
Each reads graph adjacency, never the maintainers' own bookkeeping, so it
is ground truth for the test-suite and for the guarded post-check
(:mod:`repro.resilience.invariants`).  Unscoped they cost O(n + m) or
worse; :func:`unstable_pairs` and :func:`mergeable_pairs` also take the
ids a batch touched and then cost only that neighbourhood — the same
predicate over fewer dnodes, which is what runs after every commit.
:func:`depth_violations` is the one question the post-check asks of
either structure: which Definition fails at ``valid`` / ``minimal``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.construction import (
    ClassMap,
    ak_class_maps,
    bisimulation_partition,
)


def is_stable_wrt(index: StructuralIndex, target: int, splitter: int) -> bool:
    """Definition 1: is inode *target* stable w.r.t. inode *splitter*?

    ``I`` is stable w.r.t. ``J`` iff ``I ⊆ Succ(J)`` or ``I ∩ Succ(J) = ∅``.
    """
    succ = index.succ_extent(splitter)
    extent = index.extent(target)
    hit = sum(1 for w in extent if w in succ)
    return hit == 0 or hit == len(extent)


def unstable_pairs(
    index: StructuralIndex,
    inodes: Optional[Iterable[int]] = None,
    dnodes: Optional[Iterable[int]] = None,
) -> list[tuple[int, int]]:
    """``(target, splitter)`` inode pairs violating stability.

    ``I`` is stable w.r.t. every ``J`` iff all its members have the same
    index parents, so each examined dnode's index-parent set (read off
    graph adjacency) is compared with a representative member's, and
    that with the inode's stored index parents; ``J`` is reported
    wherever two of them disagree.

    Unscoped, every dnode is examined.  With *dnodes* (those whose own
    inode, or a parent's, a batch may have changed) only they are, each
    against a member of its inode outside the scope when there is one;
    *inodes* are examined through their representative alone.
    """
    members_of: dict[int, Sequence[int]] = {}
    if inodes is None and dnodes is None:
        members_of = index._extent_arr
    else:
        for inode in inodes or ():
            if index.has_inode(inode):
                members_of[inode] = []
        for w in dnodes or ():
            if index.covers(w):
                members_of.setdefault(index.inode_of(w), []).append(w)
    violations: list[tuple[int, int]] = []
    for inode, members in members_of.items():
        extent = index._extent_arr[inode]
        representative = extent[0]
        if len(members) < len(extent):
            examined = set(members)
            representative = next(w for w in extent if w not in examined)
        # (an uncovered parent shows up as the splitter ``None``)
        base = index.dnode_iparents(representative)
        drift = base ^ index.ipred_set(inode)
        for w in members:
            if w != representative and index.dnode_iparents(w) != base:
                drift |= index.dnode_iparents(w) ^ base
        violations.extend((inode, splitter) for splitter in drift)
    return violations


def is_self_stable(index: StructuralIndex) -> bool:
    """Whether the index is stable with respect to itself."""
    return not unstable_pairs(index)


def is_valid_1index(index: StructuralIndex) -> bool:
    """Definition 2: label-homogeneous partition + self-stability.

    Label homogeneity and partition-ness are enforced structurally by
    :class:`StructuralIndex`, so only self-stability needs checking; the
    structural invariants are still re-asserted for oracle strength.
    """
    index.check_invariants()
    return is_self_stable(index)


def mergeable_pairs(
    index: StructuralIndex, inodes: Optional[Iterable[int]] = None
) -> list[tuple[int, int]]:
    """Inode pairs with the same label and the same index-parent set.

    By the remark under Definition 5, a 1-index is minimal iff this list
    is empty.  Runs in O(#inodes) expected time via signature grouping.

    With *inodes* (those whose label or index parents a batch may have
    changed) only they are probed: a partner shares every index parent,
    so it is among the index children of whichever parent has the
    fewest.  A parentless inode's partners are the other parentless
    ones; the root's own inode (nothing else is labelled ``ROOT``) is
    not probed — an impostor finds it from its own side, the pair being
    reported from whichever member is given.
    """
    label, preds, succs = index._label, index._pred_support, index._succ_support
    pairs: list[tuple[int, int]] = []
    if inodes is not None:
        graph = index.graph
        root_inode = index._inode_of.get(graph.root) if graph.has_root else None
        for inode in inodes:
            parents = preds.get(inode)
            if parents is None or (not parents and inode == root_inode):
                continue
            if parents:
                siblings: Iterable[int] = succs[min(parents, key=lambda p: len(succs[p]))]
            else:
                siblings = (i for i, row in preds.items() if not row)
            pairs.extend(
                (inode, other)
                for other in siblings
                if other != inode
                and label[other] == label[inode]
                and preds[other].keys() == parents.keys()
            )
        return pairs
    groups: dict[tuple[str, frozenset[int]], list[int]] = {}
    for inode in index.inodes():
        groups.setdefault((label[inode], frozenset(preds[inode])), []).append(inode)
    for members in groups.values():
        pairs.extend((members[0], other) for other in members[1:])
    return pairs


def is_minimal_1index(index: StructuralIndex) -> bool:
    """Definition 5 via the same-label/same-parents characterisation."""
    return is_valid_1index(index) and not mergeable_pairs(index)


def depth_violations(
    structure: "StructuralIndex | AkIndexFamily",
    minimal: bool,
    dnodes: Optional[Iterable[int]] = None,
    inodes: Optional[Iterable[int]] = None,
    tokens: object = None,
) -> Iterator[tuple[str, int, tuple]]:
    """``(what is wrong, definition violated, offending pair)`` for either
    structure, within a scope or (none given) everywhere.

    Validity first: an unstable inode pair of a 1-index (Definition 1),
    a class of an A(k) family whose members sign differently
    (Definition 4).  With *minimal*, also what a merge would remove:
    same-label same-parents inodes (Definition 5), family classes that
    sign alike (the family is then not the minimum, Lemma 6).
    """
    if structure.kind == AkIndexFamily.kind:
        for level, token, other in structure.signature_violations(dnodes):
            if other is None or minimal:
                yield (
                    f"A(k) family drifted from the minimum: inode {token}@{level} "
                    + ("mixes signatures" if other is None else f"signs like {other}"),
                    4, (token, other),
                )
        return
    for pair in unstable_pairs(structure, inodes, dnodes):
        yield (
            "index is no longer a valid 1-index: inode %s is not stable "
            "w.r.t. inode %s" % pair, 1, pair,
        )
    if minimal:
        for pair in mergeable_pairs(structure, inodes):
            yield f"index is valid but no longer minimal: inodes {pair} merge", 5, pair


def minimum_1index_size(graph: DataGraph) -> int:
    """Number of inodes in the (unique, Lemma 1) minimum 1-index."""
    return len(set(bisimulation_partition(graph).values()))


def is_minimum_1index(index: StructuralIndex) -> bool:
    """Whether *index* is exactly the minimum 1-index of its graph."""
    minimum = bisimulation_partition(index.graph)
    return _same_partition(index, minimum)


def minimum_ak_size(graph: DataGraph, k: int) -> int:
    """Number of inodes in the (unique, Lemma 2) minimum A(k)-index."""
    return len(set(ak_class_maps(graph, k)[k].values()))


def is_minimum_ak(index: StructuralIndex, k: int) -> bool:
    """Whether *index* is exactly the minimum A(k)-index of its graph."""
    minimum = ak_class_maps(index.graph, k)[k]
    return _same_partition(index, minimum)


def is_refinement(finer: Iterable[frozenset[int]], coarser: ClassMap) -> bool:
    """Definition 3: every block of *finer* fits inside one *coarser* class."""
    for block in finer:
        classes = {coarser[w] for w in block}
        if len(classes) > 1:
            return False
    return True


def _same_partition(index: StructuralIndex, class_of: ClassMap) -> bool:
    """Compare an index partition with a class map, ignoring id names."""
    blocks: dict[int, set[int]] = {}
    for node, cls in class_of.items():
        blocks.setdefault(cls, set()).add(node)
    want = {frozenset(b) for b in blocks.values()}
    return index.as_blocks() == want

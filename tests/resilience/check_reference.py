"""The guard's check as the oracles state it: the reference for its one pass.

Every check the guard makes is one pass of
:func:`repro.index.stability.audit_extents` (a 1-index) or
:func:`~repro.index.stability.audit_classes` (an A(k) family).  Here are
the oracles' scope forms — the graph's, the structure's and the depth
oracle over a batch's touched ids, each reading its ids in ascending
order — that the pass is differenced against, run in turn as
:func:`verdict` does.  Unscoped, :func:`verdict` runs the oracles of ``src/``
(:meth:`DataGraph.check_invariants`, the structures' ``check_invariants``,
:func:`~repro.index.stability.unstable_pairs`,
:func:`~repro.index.stability.mergeable_pairs`,
:meth:`~repro.index.akindex.AkIndexFamily.signature_violations`).
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import InvariantViolationError, NodeNotFoundError, StructuralIndexError
from repro.graph.datagraph import ROOT_LABEL
from repro.index.stability import (
    _mergeable,
    _none_first,
    _unsigned,
    _unstable,
    mergeable_pairs,
    unstable_pairs,
)


def scope(graph, touched) -> tuple[set, set, set]:
    """The ids a batch's check reads: the touched dnodes and the children
    of those that changed inode (their index parents were renamed), the
    touched inodes and the touched ``(level, token)`` classes."""
    dnodes = touched.dnodes | touched.moved
    for w in touched.moved:
        if graph.has_node(w):
            dnodes.update(graph.iter_succ(w))
    return dnodes, set(touched.inodes), {t for t in touched.tokens if t[1] is not None}


def graph_facts(graph, nodes) -> None:
    """``DataGraph.check_invariants`` over *nodes*: a live one's slot entry
    and both adjacency mirrors, a dead one's absence from every map, and
    the root's facts."""
    slot_of = graph._slot_of
    for source in sorted(nodes):
        slot = slot_of.get(source)
        if slot is None:
            assert source not in graph._values, f"value leaked for dead oid {source}"
            continue
        assert 0 <= slot < len(graph._oid_at) and graph._oid_at[slot] == source, (
            f"slot map broken for oid {source}"
        )
        assert graph._label_at[slot] >= 0, f"label missing for oid {source}"
        targets = graph._succ_slabs.to_list(slot)
        assert len(set(targets)) == len(targets), f"duplicate succ at {source}"
        for target in targets:
            target_slot = slot_of.get(target)
            assert target_slot is not None, f"dangling edge {source}->{target}"
            assert graph._pred_slabs.contains(target_slot, source), (
                f"pred missing for {source}->{target}"
            )
        sources = graph._pred_slabs.to_list(slot)
        assert len(set(sources)) == len(sources), f"duplicate pred at {source}"
        for origin in sources:
            origin_slot = slot_of.get(origin)
            assert origin_slot is not None, f"dangling pred {origin}->{source}"
            assert graph._succ_slabs.contains(origin_slot, source), (
                f"succ missing for {origin}->{source}"
            )
    if graph.has_root:
        root_slot = slot_of.get(graph.root)
        assert root_slot is not None, "root is not a live node"
        assert graph._interner.name_of(graph._label_at[root_slot]) == ROOT_LABEL
        assert graph._pred_slabs.length(root_slot) == 0, "root must have no incoming edges"


def index_facts(index, dnodes, inodes) -> None:
    """``StructuralIndex.check_invariants`` over a scope: each dnode in the
    extent its map entry names, its inode's support row recounted from the
    dnodes given — *equal* to the stored one where they are the whole
    extent, *dominated* by it otherwise — and mirrored; each inode given
    non-empty, or, dead, absent from every map."""
    graph = index.graph
    inode_at, pos_at = index._inode_of.get, index._pos_of.get
    extent_arr, succs, preds = index._extent_arr, index._succ_support, index._pred_support
    recount: dict[int, dict] = {}
    examined: dict[int, int] = {}
    for w in sorted(dnodes):
        inode, pos = inode_at(w), pos_at(w)
        try:
            parents = graph.iter_pred(w)
        except NodeNotFoundError:
            assert inode is None and pos is None, f"dead dnode {w} is still mapped"
            continue
        arr = extent_arr.get(inode)
        assert arr is not None, f"partition does not cover dnode {w}"
        assert pos is not None and pos < len(arr) and arr[pos] == w, f"mapping broken for {w}"
        assert graph.label(w) == index._label.get(inode), f"label mismatch at dnode {w}"
        examined[inode] = examined.get(inode, 0) + 1
        row = recount.setdefault(inode, {})
        for j in map(inode_at, parents):
            row[j] = row.get(j, 0) + 1
    for inode, row in sorted(recount.items()):
        stored = preds.get(inode)
        assert stored is not None, f"inode {inode} has no support row"
        if examined[inode] == len(extent_arr[inode]):
            assert row == stored, f"supports of inode {inode} drifted"
        else:
            assert all(stored.get(j, 0) >= n for j, n in row.items()), f"supports drifted {inode}"
        for j in row:
            assert succs.get(j, {}).get(inode) == stored[j], f"iedge {j}->{inode} not mirrored"
    for inode in sorted(inodes):
        if inode in extent_arr:
            assert len(extent_arr[inode]), f"inode {inode} has an empty extent"
        else:
            assert not any(inode in t for t in (index._label, succs, preds)), f"{inode} leaked"


def family_facts(family, dnodes, tokens) -> None:
    """``AkIndexFamily.check_invariants`` over a scope: at every level each
    dnode a member of the class its map entry names, inside that class's
    tree parent (level 0 by label), a dead one classed nowhere; each
    ``(level, token)`` given non-empty and linked both ways."""
    graph = family.graph
    live = [w for w in sorted(dnodes) if graph.has_node(w)]
    dead = [w for w in sorted(dnodes) if not graph.has_node(w)]
    for i, level in enumerate(family.levels):
        coarser = family.levels[i - 1] if i else None
        for w in dead:
            assert w not in level.class_of, f"dead dnode {w} still classed at level {i}"
        for w in live:
            token = level.class_of.get(w)
            extent = level.extents.get(token, ())
            assert w in extent, f"class map broken at level {i} for dnode {w}"
            if coarser is None:
                assert graph.label(w) == graph.label(next(iter(extent))), f"{token}@0 mixes labels"
            else:
                assert coarser.class_of.get(w) == level.parent.get(token), f"{token}@{i} spans"
        for token in sorted(t for lvl, t in tokens if lvl == i):
            extent = level.extents.get(token)
            if extent is None:
                assert token not in level.parent and token not in level.children, f"{token} leaked"
                continue
            assert extent, f"empty inode {token} at level {i}"
            if coarser is not None:
                parent = level.parent.get(token)
                assert (
                    parent == coarser.class_of.get(next(iter(extent)))
                    and token in coarser.children.get(parent, ())
                ), f"tree parent wrong for {token}@{i}"
            for child in level.children.get(token, ()):
                assert family.levels[i + 1].parent.get(child) == token, f"stale child {child}"


def scoped_unstable_pairs(index, inodes, dnodes) -> list[tuple]:
    """``unstable_pairs`` over a scope: each dnode's index parents against a
    member of its inode outside the scope when there is one, each given
    inode through its representative alone; inodes in id order."""
    members_of: dict[int, list[int]] = {}
    for inode in inodes:
        if index.has_inode(inode):
            members_of[inode] = []
    for w in sorted(dnodes):
        if index.covers(w):
            members_of.setdefault(index.inode_of(w), []).append(w)
    pairs = []
    for inode, members in sorted(members_of.items()):
        extent = index._extent_arr[inode]
        representative = extent[0]
        if len(members) < len(extent):
            examined = set(members)
            representative = next(w for w in extent if w not in examined)
        base = index.dnode_iparents(representative)
        drift = base ^ index.ipred_set(inode)
        for w in members:
            if w != representative and index.dnode_iparents(w) != base:
                drift |= index.dnode_iparents(w) ^ base
        pairs.extend((inode, splitter) for splitter in sorted(drift, key=_none_first))
    return pairs


def depth_violations(structure, minimal: bool, dnodes=None, inodes=None):
    """``(message, definition, pair)`` of what the structure is not, within
    a scope or (none given) everywhere: validity first, then, with
    *minimal*, what a merge would remove."""
    if structure.kind == "ak":
        found = structure.signature_violations(None if dnodes is None else sorted(dnodes))
        for violation in found:
            if violation[2] is None or minimal:
                yield _unsigned(violation)
        return
    if dnodes is None and inodes is None:
        yield from map(_unstable, unstable_pairs(structure))
    else:
        yield from map(_unstable, scoped_unstable_pairs(structure, inodes or (), dnodes or ()))
    if minimal:
        probed = None if inodes is None else sorted(inodes)
        yield from map(_mergeable, mergeable_pairs(structure, probed))


def verdict(
    level: str, graph, structure, dnodes=None, inodes=None, tokens=None, totals: bool = False
) -> Optional[InvariantViolationError]:
    """What the oracles in turn raise at *level* over a scope, or (none
    given) everywhere with the totals; ``None`` if nothing."""
    whole = dnodes is None and inodes is None and tokens is None
    try:
        try:
            if whole:
                graph.check_invariants()
                structure.check_invariants()
            else:
                graph_facts(graph, dnodes or ())
                if structure.kind == "ak":
                    family_facts(structure, dnodes or (), tokens or ())
                else:
                    index_facts(structure, dnodes or (), inodes or ())
            if level != "basic":
                for violation in depth_violations(
                    structure, level == "minimal", dnodes, None if whole else inodes or ()
                ):
                    raise InvariantViolationError(*violation)
            if totals:
                graph.check_totals()
                structure.check_totals()
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(f"structural: {exc}") from exc
    except InvariantViolationError as exc:
        return exc
    return None

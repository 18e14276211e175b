"""Stability, validity, minimality and minimum-ness oracles, and the guard's one check pass.

The oracles are the executable versions of Definitions 1, 2, 5 and 6.
Each reads graph adjacency, never the maintainers' own bookkeeping, so it
is ground truth for the test-suite.  The guarded post-check
(:mod:`repro.resilience.invariants`) states the same facts through one
pass per structure — :func:`audit_extents` for a 1-index,
:func:`audit_classes` for an A(k) family — in every scope it checks:
leaf ids read whole (an audit slice, cut at a visit budget, or
everything), or a batch's touched dnodes read one by one, each against
its own extent.  Both kernels call one per-member pass for the graph's
facts (:func:`_member_pass`: each member's slot, succ segment and pred
segment read once), state their structure's facts and depth from the
same read, raise nothing but return what they found, and every fact is
an explicit ``raise`` so none is lost under ``python -O``.  They ask an
oracle only for the exact pair of a test that failed —
:func:`_drift` (shared with :func:`unstable_pairs`) or
:meth:`AkIndexFamily.signature_violations` over the dnodes read — and
:func:`mergeable_pairs` over the ids given is the minimality test
itself.  ``tests/resilience/test_audit_kernel.py`` holds them to the
oracles run in turn over the same ids, slice for slice and scope for
scope.  On XMark(1), one host, in process, a slice costs ≈ 1.5–3 µs a
visit at ``minimal``, and the unscoped check, one pass over every leaf
id, about half of what the unscoped oracles take in turn.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import countOf
from typing import NamedTuple, Optional

from repro.core.intmap import PAGE_BITS, PAGE_MASK
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


def unstable_pairs(index: StructuralIndex) -> list[tuple[int, int]]:
    """``(target, splitter)`` inode pairs violating stability.

    ``I`` is stable w.r.t. every ``J`` iff all its members have the same
    index parents, so each dnode's index-parent set (read off graph
    adjacency) is compared with its inode's first member's, and that with
    the inode's stored index parents; ``J`` is reported wherever two of
    them disagree.
    """
    return [
        (inode, splitter)
        for inode, extent in index._extent_arr.items()
        for splitter in _drift(index, inode, extent)
    ]


def _drift(index: StructuralIndex, inode: int, members: Sequence[int]) -> list:
    """The splitters *inode* is unstable w.r.t., in id order: *members* (its
    extent, or part of it) each against a representative — its first
    member outside them, else its first — and that against the stored
    index parents.  An uncovered parent is the splitter ``None``."""
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
    return sorted(drift, key=_none_first)


def _none_first(inode: Optional[int]) -> int:
    return -1 if inode is None else inode


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


def _unstable(pair: tuple) -> tuple[str, int, tuple]:
    return (
        "index is no longer a valid 1-index: inode %s is not stable w.r.t. inode %s" % pair,
        1, pair,
    )


def _mergeable(pair: tuple) -> tuple[str, int, tuple]:
    return f"index is valid but no longer minimal: inodes {pair} merge", 5, pair


def _unsigned(violation: tuple) -> tuple[str, int, tuple]:
    level, token, other = violation
    return (
        f"A(k) family drifted from the minimum: inode {token}@{level} "
        + ("mixes signatures" if other is None else f"signs like {other}"),
        4, (token, other),
    )


class ExtentAudit(NamedTuple):
    """What :func:`audit_extents` or :func:`audit_classes` found."""

    #: a slice is ``ids[start:end]``: it ends with the extent that reached
    #: the budget, or with the last id; a scope ends with the last id
    end: int
    #: its dnode visits, 1 + in-degree + out-degree of each live member
    visits: int
    #: the first structural fact that failed, as an ``AssertionError`` (or
    #: the ``LookupError`` a corrupted map raised); ``None`` if none did
    broken: Optional[Exception]
    #: then the first depth violation: ``(message, definition, pair)``
    violations: tuple


def _header_visits(graph: DataGraph, dnodes: Iterable[int]) -> int:
    """The visits of *dnodes* from the slab headers alone: 1 + in-degree +
    out-degree of each live one, a dead one none."""
    slot_pages, slots = graph._slot_of._pages, len(graph._oid_at)
    s_len, p_len = graph._succ_slabs._len, graph._pred_slabs._len
    visits = 0
    for w in dnodes:
        page = slot_pages.get(w >> PAGE_BITS)
        slot = -1 if page is None else page[w & PAGE_MASK]
        if 0 <= slot < slots:
            visits += 1 + s_len[slot] + p_len[slot]
    return visits


def _drive(graph, ids, start, budget, dnodes, check, scope, members) -> ExtentAudit:
    """Either kernel's pass after the root's facts: *check* over each of
    ``ids[start:]``, whole, until the visits reach *budget* (``None``:
    none), or, given *dnodes*, *scope* over their live and dead ones.  A
    structural fact that fails is returned as ``broken``, and the cut is
    finished from the slab headers alone (the *members* of each id from
    the failing one on), so the slice and its visits are the same
    whatever it found."""
    end, visits, before = start, 0, None
    limit = float("inf") if budget is None else budget
    try:
        graph.check_root()
        if dnodes is not None:
            return ExtentAudit(len(ids), scope(*_live(graph, dnodes)), None, ())
        while end < len(ids) and visits < limit:
            before = visits
            end += 1
            visits += check(ids[end - 1], None)
    except (AssertionError, LookupError) as exc:
        if dnodes is not None:
            return ExtentAudit(len(ids), _header_visits(graph, dnodes), exc, ())
        if before is not None:  # (the failing id is cut over again, whole)
            end, visits = end - 1, before
        while end < len(ids) and visits < limit:
            visits += _header_visits(graph, members(ids[end]))
            end += 1
        return ExtentAudit(end, visits, exc, ())
    return ExtentAudit(end, visits, None, ())


def _live(graph: DataGraph, dnodes: Iterable[int]) -> tuple[list[int], list[int]]:
    """A scope's live and dead *dnodes*, each ascending; a dead one must
    have left the graph's value table (each kernel checks its own maps)."""
    live, dead = [], []
    for w in sorted(dnodes):
        if graph.has_node(w):
            live.append(w)
        elif w in graph._values:
            raise AssertionError(f"value leaked for dead oid {w}")
        else:
            dead.append(w)
    return live, dead


def _member_pass(graph: DataGraph):
    """The graph facts either kernel states of a live member, bound to
    *graph*'s tables once: ``read(members, want)`` checks each member's
    slot and its label (the interned id *want*), and that every entry of
    its succ and pred segment is listed once, live and mirrored — each
    segment read once, one probe of the other mirror per entry — and
    returns their visits and their pred segments, in order."""
    slot_pages = graph._slot_of._pages
    oid_at, label_at = graph._oid_at, graph._label_at
    succ_slabs, pred_slabs = graph._succ_slabs, graph._pred_slabs
    s_data, s_off, s_len, s_overlay = (
        succ_slabs._data, succ_slabs._off, succ_slabs._len, succ_slabs._overlay
    )
    p_data, p_off, p_len, p_overlay = (
        pred_slabs._data, pred_slabs._off, pred_slabs._len, pred_slabs._overlay
    )
    s_index, p_index = s_data.index, p_data.index
    slots = len(oid_at)
    scratch: set = set()  # (one set reused for every member's distinctness tests)

    def read(members: Iterable[int], want: int) -> tuple[int, list]:
        visits = 0
        segments = []
        for w in members:
            page = slot_pages.get(w >> PAGE_BITS)
            slot = -1 if page is None else page[w & PAGE_MASK]
            if not 0 <= slot < slots or oid_at[slot] != w:
                raise AssertionError(f"dnode {w} is listed, but dead or its slot map is broken")
            if label_at[slot] != want:
                raise AssertionError(f"dnode {w} is not labelled as its class is")
            off = s_off[slot]
            targets = s_data[off : off + s_len[slot]]
            off = p_off[slot]
            sources = p_data[off : off + p_len[slot]]
            out_degree, in_degree = len(targets), len(sources)
            visits += 1 + out_degree + in_degree
            if out_degree > 1:
                scratch.clear()
                scratch.update(targets)
                if len(scratch) != out_degree:
                    raise AssertionError(f"duplicate succ at {w}")
            for t in targets:
                page = slot_pages.get(t >> PAGE_BITS)
                t_slot = -1 if page is None else page[t & PAGE_MASK]
                if t_slot < 0:
                    raise AssertionError(f"dangling edge {w}->{t}")
                overlay = p_overlay.get(t_slot)
                if overlay is not None:
                    if w not in overlay:
                        raise AssertionError(f"pred missing for {w}->{t}")
                    continue
                off = p_off[t_slot]
                try:
                    p_index(w, off, off + p_len[t_slot])
                except ValueError:
                    raise AssertionError(f"pred missing for {w}->{t}") from None
            if in_degree > 1:
                scratch.clear()
                scratch.update(sources)
                if len(scratch) != in_degree:
                    raise AssertionError(f"duplicate pred at {w}")
            for s in sources:
                page = slot_pages.get(s >> PAGE_BITS)
                s_slot = -1 if page is None else page[s & PAGE_MASK]
                if s_slot < 0:
                    raise AssertionError(f"dangling pred {s}->{w}")
                overlay = s_overlay.get(s_slot)
                if overlay is not None:
                    if w not in overlay:
                        raise AssertionError(f"succ missing for {s}->{w}")
                    continue
                off = s_off[s_slot]
                try:
                    s_index(w, off, off + s_len[s_slot])
                except ValueError:
                    raise AssertionError(f"succ missing for {s}->{w}") from None
            segments.append(sources)
        return visits, segments

    return read


def audit_extents(
    index: StructuralIndex,
    ids: Sequence[int],
    start: int,
    budget: Optional[int],
    stable: bool,
    minimal: bool,
    dnodes: Optional[Iterable[int]] = None,
) -> ExtentAudit:
    """The guard's check of a 1-index: one pass over the extents of
    ``ids[start:]``, whole, cut after the extent that takes the visits to
    *budget* (``None``: every id) — or, given a scope's *dnodes*, over
    those dnodes alone, each against its own extent, with *ids* the
    scope's inodes.  Each member's slot, succ segment and pred segment is
    read once, in id order, and no oracle is asked unless a test fails.

    Per member: the graph's facts (:func:`_member_pass`); it sits at its
    own position of its inode's extent, under the inode's label.  Per
    inode: it is non-empty, and the support row recounted from the
    members read must *equal* the stored one where they are the whole
    extent and be *dominated* by it where they are part, and be mirrored
    by the parents' outgoing rows.  A dead id has left every table.
    With *stable*, Definition 1 by count (the proof of Lemma 3): the row
    dominating the recount, a member's index parents are among its keys,
    so the inode is stable iff every member has exactly ``len(keys)``
    distinct parent inodes and so does the member outside the scope the
    oracle takes as representative; only an inode that fails asks
    :func:`_drift` for its exact pair.  With *minimal*, then
    :func:`mergeable_pairs` over the ids.

    Structural facts come before depth ones, and a broken one still
    finishes the cut (from the slab headers alone), so the slice and its
    visits are the same whatever it finds.
    """
    graph = index.graph
    read = _member_pass(graph)
    slot_pages, slots = graph._slot_of._pages, len(graph._oid_at)
    p_data, p_off, p_len = graph._pred_slabs._data, graph._pred_slabs._off, graph._pred_slabs._len
    label_ids = graph._interner._ids
    inode_pages, pos_pages = index._inode_of._pages, index._pos_of._pages
    extent_arr, labels = index._extent_arr, index._label
    succs, preds = index._succ_support, index._pred_support
    scratch: set = set()
    unstable: Optional[tuple] = None  # the first inode that fails the count, and its members

    def check(inode: int, members: Optional[Sequence[int]]) -> int:
        """One inode: its *members* (``None``: the whole extent) read."""
        nonlocal unstable
        arr = extent_arr.get(inode)
        if arr is None:
            if inode in labels or inode in succs or inode in preds:
                raise AssertionError(f"dead inode {inode} leaked a map entry")
            return 0
        if not len(arr):
            raise AssertionError(f"inode {inode} has an empty extent")
        stored = preds.get(inode)
        if stored is None:
            raise AssertionError(f"inode {inode} has no support row")
        whole = members is None
        if whole:
            members = arr
        visits, segments = read(members, label_ids.get(labels.get(inode), -2))
        if whole:  # each listed member mapped back to its own position
            for position, w in enumerate(arr):
                page = inode_pages.get(w >> PAGE_BITS)
                mapped = -1 if page is None else page[w & PAGE_MASK]
                page = pos_pages.get(w >> PAGE_BITS)
                pos = -1 if page is None else page[w & PAGE_MASK]
                if mapped != inode or pos != position:
                    raise AssertionError(
                        f"mapping broken for dnode {w}: not at position {pos} of inode {inode}"
                    )
        keys = len(stored)
        row: dict[int, int] = {}
        counted = True
        for sources in segments:
            in_degree = len(sources)
            if in_degree > 1:
                scratch.clear()
            for s in sources:
                page = inode_pages.get(s >> PAGE_BITS)
                j = -1 if page is None else page[s & PAGE_MASK]
                row[j] = row.get(j, 0) + 1  # (an uncovered parent counts under -1)
                if in_degree > 1:
                    scratch.add(j)
            if counted:  # its distinct parent inodes, against the row's keys
                counted = (len(scratch) if in_degree > 1 else in_degree) == keys
        complete = len(members) == len(arr)  # (a scope's members are distinct: checked)
        if row != stored if complete else any(stored.get(j, 0) < n for j, n in row.items()):
            for s in (s for sources in segments for s in sources):
                if index._inode_of.get(s) is None:
                    raise AssertionError(f"partition does not cover dnode {s}")
            raise AssertionError(f"supports of inode {inode} drifted: {stored} vs {row}")
        for j in row:
            if succs.get(j, {}).get(inode) != stored[j]:
                raise AssertionError(f"iedge from inode {j} to inode {inode} is not mirrored")
        if stable and unstable is None:
            if counted and not complete:  # ... and the representative outside
                examined = set(members)
                rep = next(w for w in arr if w not in examined)
                page = slot_pages.get(rep >> PAGE_BITS)
                slot = -1 if page is None else page[rep & PAGE_MASK]
                if not 0 <= slot < slots:
                    raise AssertionError(f"extent of inode {inode} lists dead dnode {rep}")
                off = p_off[slot]
                parents = set()
                for s in p_data[off : off + p_len[slot]]:
                    page = inode_pages.get(s >> PAGE_BITS)
                    parents.add(-1 if page is None else page[s & PAGE_MASK])
                counted = parents == stored.keys()
            if not counted:
                unstable = (inode, members)
        return visits

    def scope(live: list[int], dead: list[int]) -> int:
        """A scope's dnodes: each dead one unmapped, each live one at its
        own position of its extent; then their inodes and the scope's."""
        for w in dead:
            if index._inode_of.get(w) is not None or index._pos_of.get(w) is not None:
                raise AssertionError(f"dead dnode {w} is still mapped")
        groups: dict[int, list[int]] = {}
        for w in live:
            inode, pos = index._inode_of.get(w), index._pos_of.get(w)
            arr = extent_arr.get(inode)
            if arr is None:
                raise AssertionError(f"partition does not cover dnode {w}")
            if pos is None or pos >= len(arr) or arr[pos] != w:
                raise AssertionError(
                    f"mapping broken for dnode {w}: not at position {pos} of inode {inode}"
                )
            groups.setdefault(inode, []).append(w)
        inodes = sorted(groups.keys() | set(ids))
        return sum(check(inode, groups.get(inode, ())) for inode in inodes)

    audit = _drive(
        graph, ids, start, budget, dnodes, check, scope,
        members=lambda inode: set(extent_arr.get(inode, ())),
    )
    if audit.broken is not None:
        return audit
    if unstable is not None:
        inode, examined = unstable
        pair = (inode, _drift(index, inode, examined)[0])
        return audit._replace(violations=(_unstable(pair),))
    if minimal:
        probed = ids if dnodes is not None else ids[start : audit.end]
        pairs = mergeable_pairs(index, probed)[:1]
        return audit._replace(violations=tuple(map(_mergeable, pairs)))
    return audit


def audit_classes(
    family: AkIndexFamily,
    ids: Sequence,
    start: int,
    budget: Optional[int],
    stable: bool,
    minimal: bool,
    dnodes: Optional[Iterable[int]] = None,
) -> ExtentAudit:
    """The guard's check of an A(k) family: one pass over the leaf classes
    of ``ids[start:]``, whole, cut after the class that takes the visits
    to *budget* (``None``: every id) — or, given a scope's *dnodes*, over
    those dnodes alone, each against its own classes, with *ids* the
    scope's ``(level, token)`` classes, each stated by its tree links.
    Each member's slot, succ segment and pred segment is read once.

    Per leaf class (or the scope's members of one): its tree chain,
    resolved once from the leaf token up through ``parent`` to level 0;
    at every level each member's map entry is the chain's token and it
    belongs to that extent — which states the tree-parent fact too — and
    it carries the label of its level-0 class's first member; the
    graph's facts (:func:`_member_pass`).  A class read whole, and every
    class of a scope's *ids*, has its links checked
    (:meth:`AkIndexFamily._check_class`).  A dead id has left every table.

    With *stable*, Definition 4 at every level i ≥ 1: a class's set of
    parent classes at level i − 1 is formed once, from the first member
    read, and every other member's must be that set — a member of
    in-degree 1 (most of XMark) is one lookup a level, a class's such
    members mapped in one go.  A class the pass reads only part of is
    then compared once against the member outside it that the oracle
    takes as its representative, and every class the oracle signs beside
    them (the tree siblings under their parents, every class at level 0)
    must be non-empty and live; with *minimal*, no two of them may sign
    alike.  Only a pass where one of these tests fails asks
    :meth:`AkIndexFamily.signature_violations` for the oracle's exact
    ``(level, token, other)``, over the dnodes read.

    Structural facts come before depth ones, and a broken one still
    finishes the cut (from the slab headers alone), so the slice and its
    visits are the same whatever it finds.
    """
    graph = family.graph
    read = _member_pass(graph)
    slot_pages, label_at = graph._slot_of._pages, graph._label_at
    p_data, p_off, p_len = graph._pred_slabs._data, graph._pred_slabs._off, graph._pred_slabs._len
    slots = len(graph._oid_at)
    k, levels = family.k, family.levels
    leaf = levels[k]
    class_maps = [level.class_of for level in levels]
    #: per level, each class the pass reaches -> what its members sign with:
    #: the label id at level 0, the set of their parent classes above
    signs: list[dict] = [{} for _ in levels]
    #: per level, each class the pass reaches -> how many of its members it read
    reached: list[dict] = [{} for _ in levels]
    seen: set = set()  # the dnodes read, as the oracle collects them
    suspect = False  # a test of Definition 4 failed: the oracle states which

    def check(token: int, members: Optional[Iterable[int]]) -> int:
        """One leaf class: its *members* (``None``: the whole class) read."""
        nonlocal suspect
        extent = leaf.extents.get(token)
        if members is None:
            family._check_class(k, token)
            if extent is None:
                return 0
            members = extent
        elif extent is None:
            raise AssertionError(f"class map broken at level {k} under inode {token}@{k}")
        size = len(members)
        chain = [token]
        for level in levels[k:0:-1]:
            chain.append(level.parent.get(chain[-1]))
        chain.reverse()
        for i, t in enumerate(chain):  # each member classed along the chain
            container = levels[i].extents.get(t)
            if (
                container is None
                or countOf(map(class_maps[i].get, members), t) != size
                or (container is not members and not container.issuperset(members))
            ):
                raise AssertionError(f"class map broken at level {i} under inode {token}@{k}")
            reached[i][t] = reached[i].get(t, 0) + size
        want = signs[0].get(chain[0])
        if want is None:
            first = next(iter(levels[0].extents[chain[0]]))
            page = slot_pages.get(first >> PAGE_BITS)
            slot = -1 if page is None else page[first & PAGE_MASK]
            if not 0 <= slot < slots or label_at[slot] < 0:
                raise AssertionError(f"inode {chain[0]}@0 lists dead or unlabelled dnode {first}")
            want = signs[0][chain[0]] = label_at[slot]
        visits, segments = read(members, want)
        if not stable:
            return visits
        seen.update(members)
        singles: list[int] = []  # the one parent of each member of in-degree 1
        multi: list = []  # the pred segment of every other member
        for sources in segments:
            if len(sources) == 1:
                singles.append(sources[0])
            else:
                multi.append(sources)
        for i in range(1, k + 1):
            if suspect:
                break
            below = class_maps[i - 1].get
            parents = signs[i].get(chain[i])
            if parents is None:
                parents = signs[i][chain[i]] = (
                    {below(singles[0])} if singles else set(map(below, multi[0]))
                )
            suspect = bool(singles) and (
                len(parents) != 1 or not parents.issuperset(map(below, singles))
            )
            suspect = suspect or any(set(map(below, sources)) != parents for sources in multi)
        return visits

    def scope(live: list[int], dead: list[int]) -> int:
        """A scope's dnodes: each dead one unclassed, each live one read
        with its leaf class; then the scope's classes by their links."""
        for w in dead:
            for i, level in enumerate(levels):
                if w in level.class_of:
                    raise AssertionError(f"dead dnode {w} still classed at level {i}")
        groups: dict[int, list[int]] = {}
        for w in live:
            token = leaf.class_of.get(w)
            if token is None:
                raise AssertionError(f"class map broken at level {k} for dnode {w}")
            groups.setdefault(token, []).append(w)
        visits = sum(check(token, groups[token]) for token in sorted(groups))
        for i, token in sorted(ids):
            family._check_class(i, token)
        return visits

    audit = _drive(
        graph, ids, start, budget, dnodes, check, scope,
        members=lambda token: leaf.extents.get(token, ()),
    )
    if audit.broken is not None or not stable:
        return audit

    def pred_classes(w: int, below) -> Optional[set]:
        """The parent classes of a dnode outside the pass, ``None`` if dead."""
        page = slot_pages.get(w >> PAGE_BITS)
        slot = -1 if page is None else page[w & PAGE_MASK]
        if not 0 <= slot < slots:
            return None
        off = p_off[slot]
        return set(map(below, p_data[off : off + p_len[slot]]))

    # a class read in part, against the oracle's representative: its first
    # member the pass did not read under it
    for i, signed_at in enumerate(signs):
        if suspect:
            break
        classed, extents = class_maps[i].get, levels[i].extents
        for token, signed in signed_at.items():
            members = extents[token]
            if reached[i][token] == len(members):
                continue
            rep = next((w for w in members if w not in seen or classed(w) != token), None)
            if rep is None:
                continue
            if i == 0:
                page = slot_pages.get(rep >> PAGE_BITS)
                slot = -1 if page is None else page[rep & PAGE_MASK]
                suspect = not 0 <= slot < slots or label_at[slot] != signed
            else:
                below = class_maps[i - 1].get
                suspect = (
                    below(rep) != levels[i].parent[token] or pred_classes(rep, below) != signed
                )
            if suspect:
                break
    # ... then every class signed beside them: non-empty, alive, at minimal unlike
    for i in range(k + 1):
        if suspect:
            break
        extents, owners = levels[i].extents, {}
        if i == 0:
            for token, members in extents.items():
                w = next(iter(members), None)
                page = None if w is None else slot_pages.get(w >> PAGE_BITS)
                slot = -1 if page is None else page[w & PAGE_MASK]
                suspect = not 0 <= slot < slots or (
                    minimal and owners.setdefault(label_at[slot], token) != token
                )
                if suspect:
                    break
            continue
        below, parent, children = class_maps[i - 1].get, levels[i].parent, levels[i - 1].children
        if minimal:
            for token, parents in signs[i].items():
                owners[parent[token], frozenset(parents)] = token
            suspect = len(owners) < len(signs[i])
            if suspect:
                break
        siblings = {child for token in signs[i] for child in children.get(parent[token], ())}
        for other in siblings.difference(signs[i]):
            members = extents.get(other)
            w = next(iter(members)) if members else None
            parents = None if w is None else pred_classes(w, below)
            suspect = parents is None or (
                minimal and owners.setdefault((below(w), frozenset(parents)), other) != other
            )
            if suspect:
                break
    if suspect:  # only now the oracle, over the dnodes as it reads them
        try:
            violations = [
                _unsigned(violation)
                for violation in family.signature_violations(sorted(seen))
                if violation[2] is None or minimal
            ]
        except (AssertionError, LookupError) as exc:
            return audit._replace(broken=exc)
        return audit._replace(violations=tuple(violations[:1]))
    return audit


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

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
:func:`audit_extents` is the audit slice of a 1-index and
:func:`audit_classes` that of an A(k) family: one pass over whole leaf
extents stating what the graph and structure oracles and
:func:`depth_violations` state of them, held to them by a differential
(``tests/resilience/test_audit_kernel.py``).  On XMark(1) at ``minimal``
a family's pass costs ≈ 1.2–1.8 µs a visit at A(4) and ≈ 0.9–1.3 at
A(2) (one host, in process, min over cycles), about a third of what the
three oracles in turn took interleaved with it (≈ 3.5–6 and ≈ 2.4–4.5):
they hashed one frozenset signature per member per level; the pass forms
one parent-class set per class.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
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
        # in id order, so the first pair does not depend on the members' order
        violations.extend((inode, splitter) for splitter in sorted(drift, key=_none_first))
    return violations


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
        for violation in structure.signature_violations(dnodes):
            if violation[2] is None or minimal:
                yield _unsigned(violation)
        return
    yield from map(_unstable, unstable_pairs(structure, inodes, dnodes))
    if minimal:
        yield from map(_mergeable, mergeable_pairs(structure, inodes))


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
    """What :func:`audit_extents` or :func:`audit_classes` found in one
    slice of whole leaf extents."""

    #: the slice is ``ids[start:end]``: it ends with the extent that
    #: reached the budget, or with the last id
    end: int
    #: its dnode visits, 1 + in-degree + out-degree of each live member
    visits: int
    #: the first structural fact that failed, as the oracle stating it
    #: raises it (``AssertionError``); ``None`` if none did
    broken: Optional[Exception]
    #: then the first depth violation, as :func:`depth_violations` yields it
    violations: tuple


def _broken_cut(graph, members, ids, end, visits, budget, exc) -> ExtentAudit:
    """The cut of a slice whose pass broke at ``ids[end]``, finished from
    the slab headers alone: the *members* of each id from there on,
    counted until *visits* reach *budget*, so the slice is the same
    whatever it found."""
    slot_pages, slots = graph._slot_of._pages, len(graph._oid_at)
    s_len, p_len = graph._succ_slabs._len, graph._pred_slabs._len
    while end < len(ids) and visits < budget:
        for w in members(ids[end]):
            page = slot_pages.get(w >> PAGE_BITS)
            slot = -1 if page is None else page[w & PAGE_MASK]
            if 0 <= slot < slots:
                visits += 1 + s_len[slot] + p_len[slot]
        end += 1
    return ExtentAudit(end, visits, exc, ())


def audit_extents(
    index: StructuralIndex,
    ids: Sequence[int],
    start: int,
    budget: int,
    stable: bool,
    minimal: bool,
) -> ExtentAudit:
    """One pass over the extents of ``ids[start:]``, cut after the extent
    that takes the visits to *budget*: what :meth:`DataGraph.check_invariants`,
    :meth:`StructuralIndex.check_invariants` over whole extents and
    :func:`depth_violations` state of those ids, each member's slot, succ
    segment and pred segment read once.

    Per member: its slot is its own and labelled; no succ or pred is
    listed twice, and each is live and mirrored; it sits at its own
    position of this extent, under the extent's label.  Per extent: it
    is non-empty, the support row recounted from its members' parents
    equals the stored one and is mirrored by the parents' outgoing rows.
    A dead id has left every table.  With *stable*, Definition 1 by
    count (the proof of Lemma 3): once the recount equals the stored row,
    a member's index parents are a subset of its keys, so the inode is
    stable iff every member has exactly ``len(keys)`` distinct parent
    inodes; only an inode that fails the count asks
    :func:`unstable_pairs` for its exact pair.  With *minimal*, then
    :func:`mergeable_pairs` over the slice's ids.

    Structural facts come before depth ones, and a broken one still
    finishes the cut (from the slab headers alone), so the slice is the
    same whatever it finds.
    """
    graph = index.graph
    slot_pages = graph._slot_of._pages
    oid_at, label_at = graph._oid_at, graph._label_at
    label_ids = graph._interner._ids
    succ_slabs, pred_slabs = graph._succ_slabs, graph._pred_slabs
    s_data, s_off, s_len, s_overlay = (
        succ_slabs._data, succ_slabs._off, succ_slabs._len, succ_slabs._overlay
    )
    p_data, p_off, p_len, p_overlay = (
        pred_slabs._data, pred_slabs._off, pred_slabs._len, pred_slabs._overlay
    )
    inode_pages, pos_pages = index._inode_of._pages, index._pos_of._pages
    extent_arr, labels = index._extent_arr, index._label
    succs, preds = index._succ_support, index._pred_support
    s_index, p_index = s_data.index, p_data.index
    slots = len(oid_at)
    scratch: set = set()  # (one set reused for every member's distinctness tests)
    end, visits = start, 0
    unstable: Optional[int] = None  # the first inode that fails the count
    arr = None
    try:
        graph.check_invariants(())  # the graph's facts with no dnode: the root's
        while end < len(ids) and visits < budget:
            inode = ids[end]
            end += 1
            arr = extent_arr.get(inode)
            if arr is None:
                assert inode not in labels and inode not in succs and inode not in preds, (
                    f"dead inode {inode} leaked a map entry"
                )
                continue
            before = visits
            assert len(arr), f"inode {inode} has an empty extent"
            stored = preds.get(inode)
            assert stored is not None, f"inode {inode} has no support row"
            want = label_ids.get(labels.get(inode), -2)
            keys = len(stored)
            row: dict[int, int] = {}
            counted = True
            for position, w in enumerate(arr):
                page = slot_pages.get(w >> PAGE_BITS)
                slot = -1 if page is None else page[w & PAGE_MASK]
                assert slot >= 0, f"extent of inode {inode} lists dead dnode {w}"
                assert slot < slots and oid_at[slot] == w, f"slot map broken for oid {w}"
                assert label_at[slot] >= 0, f"label missing for oid {w}"
                page = inode_pages.get(w >> PAGE_BITS)
                mapped = -1 if page is None else page[w & PAGE_MASK]
                page = pos_pages.get(w >> PAGE_BITS)
                pos = -1 if page is None else page[w & PAGE_MASK]
                assert mapped == inode and pos == position, (
                    f"mapping broken for dnode {w}: not at position {pos} of inode {inode}"
                )
                assert label_at[slot] == want, f"label mismatch in inode {inode} at dnode {w}"
                off = s_off[slot]
                targets = s_data[off : off + s_len[slot]]
                off = p_off[slot]
                sources = p_data[off : off + p_len[slot]]
                out_degree, in_degree = len(targets), len(sources)
                visits += 1 + out_degree + in_degree
                if out_degree > 1:
                    scratch.clear()
                    scratch.update(targets)
                    assert len(scratch) == out_degree, f"duplicate succ at {w}"
                for t in targets:
                    page = slot_pages.get(t >> PAGE_BITS)
                    t_slot = -1 if page is None else page[t & PAGE_MASK]
                    assert t_slot >= 0, f"dangling edge {w}->{t}"
                    overlay = p_overlay.get(t_slot)
                    if overlay is not None:
                        assert w in overlay, f"pred missing for {w}->{t}"
                        continue
                    off = p_off[t_slot]
                    try:
                        p_index(w, off, off + p_len[t_slot])
                    except ValueError:
                        raise AssertionError(f"pred missing for {w}->{t}") from None
                if in_degree > 1:
                    scratch.clear()
                    scratch.update(sources)
                    assert len(scratch) == in_degree, f"duplicate pred at {w}"
                    scratch.clear()
                for s in sources:
                    page = slot_pages.get(s >> PAGE_BITS)
                    s_slot = -1 if page is None else page[s & PAGE_MASK]
                    assert s_slot >= 0, f"dangling pred {s}->{w}"
                    overlay = s_overlay.get(s_slot)
                    if overlay is not None:
                        assert w in overlay, f"succ missing for {s}->{w}"
                    else:
                        off = s_off[s_slot]
                        try:
                            s_index(w, off, off + s_len[s_slot])
                        except ValueError:
                            raise AssertionError(f"succ missing for {s}->{w}") from None
                    page = inode_pages.get(s >> PAGE_BITS)
                    j = -1 if page is None else page[s & PAGE_MASK]
                    row[j] = row.get(j, 0) + 1  # (an uncovered parent counts under -1)
                    if in_degree > 1:
                        scratch.add(j)
                if counted:  # its distinct parent inodes, against the row's keys
                    counted = (len(scratch) if in_degree > 1 else in_degree) == keys
            assert row == stored, f"supports of inode {inode} drifted: {stored} vs {row}"
            for j, count in row.items():
                assert succs.get(j, {}).get(inode) == count, (
                    f"iedge from inode {j} to inode {inode} is not mirrored"
                )
            if not counted and unstable is None:
                unstable = inode
    except (AssertionError, LookupError) as exc:
        if arr is not None:  # (the failing extent is cut over again, whole)
            end, visits = end - 1, before
        return _broken_cut(
            graph, lambda inode: set(extent_arr.get(inode, ())), ids, end, visits, budget, exc
        )
    violations: tuple = ()
    if stable and unstable is not None:
        pairs = unstable_pairs(index, (unstable,), extent_arr[unstable])
        violations = (_unstable(pairs[0]),)
    elif minimal:
        violations = tuple(map(_mergeable, mergeable_pairs(index, ids[start:end])[:1]))
    return ExtentAudit(end, visits, None, violations)


def audit_classes(
    family: AkIndexFamily,
    ids: Sequence[int],
    start: int,
    budget: int,
    stable: bool,
    minimal: bool,
) -> ExtentAudit:
    """One pass over the leaf classes of ``ids[start:]``, cut after the
    class that takes the visits to *budget*: what
    :meth:`DataGraph.check_invariants`, :meth:`AkIndexFamily.check_invariants`
    over whole leaf classes and :func:`depth_violations` state of those
    ids, each member's slot, succ segment and pred segment read once.

    Per leaf class: its tree chain, resolved once from the leaf token up
    through ``parent`` to level 0, the leaf's link mirrored in its
    parent's ``children``, and the label of its level-0 class.  Per
    member: the graph facts :func:`audit_extents` states; at every level
    its map entry is the chain's token and it belongs to that extent —
    which states the tree-parent fact too — and it carries the label.  A
    dead id has left every leaf table.

    With *stable*, Definition 4 at every level i ≥ 1: a class's set of
    parent classes at level i − 1 is formed once, from the first member
    met, and every other member's must be that set — a member of
    in-degree 1 (most of XMark) is one lookup a level, a class's such
    members mapped in one go.  A class below the leaf level is then
    compared once against the member outside the slice that the oracle
    takes as its representative, and every class the oracle signs beside
    them (the tree siblings under their parents, every class at level 0)
    must be non-empty and live; with *minimal*, no two of them may sign
    alike.  Only a slice where one of these tests fails asks
    :meth:`AkIndexFamily.signature_violations` for the oracle's exact
    ``(level, token, other)``, over the slice's dnodes as the oracle
    reads them.

    Structural facts come before depth ones, and a broken one still
    finishes the cut (from the slab headers alone), so the slice is the
    same whatever it finds.
    """
    graph = family.graph
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
    k, levels = family.k, family.levels
    leaf = levels[k]
    class_maps = [level.class_of for level in levels]
    #: per level, each class the slice reaches -> what its members sign with:
    #: the label id at level 0, the set of their parent classes above
    signs: list[dict] = [{} for _ in levels]
    seen: set = set()  # the slice's dnodes, as the oracle collects them
    scratch: set = set()
    suspect = False  # a test of Definition 4 failed: the oracle states which
    end, visits = start, 0
    extent = None
    try:
        graph.check_invariants(())  # the graph's facts with no dnode: the root's
        while end < len(ids) and visits < budget:
            token = ids[end]
            end += 1
            extent = leaf.extents.get(token)
            if extent is None:
                assert token not in leaf.parent and token not in leaf.children, (
                    f"dead inode {token}@{k} leaked a tree link"
                )
                continue
            before = visits
            size = len(extent)
            assert size, f"empty inode {token} at level {k}"
            assert not leaf.children.get(token), f"stale child under {token}@{k}"
            chain = [token]
            for level in levels[k:0:-1]:
                chain.append(level.parent.get(chain[-1]))
            chain.reverse()
            assert not k or token in levels[k - 1].children.get(chain[k - 1], ()), (
                f"tree parent wrong for {token}@{k}"
            )
            for i, t in enumerate(chain):  # each member classed along the chain
                container = levels[i].extents.get(t)
                assert (
                    container is not None
                    and countOf(map(class_maps[i].get, extent), t) == size
                    and (i == k or container.issuperset(extent))
                ), f"class map broken at level {i} under inode {token}@{k}"
            want = signs[0].get(chain[0])
            if want is None:
                first = next(iter(levels[0].extents[chain[0]]))
                page = slot_pages.get(first >> PAGE_BITS)
                slot = -1 if page is None else page[first & PAGE_MASK]
                assert 0 <= slot < slots, f"inode {chain[0]}@0 lists dead dnode {first}"
                want = signs[0][chain[0]] = label_at[slot]
            singles: list[int] = []  # the one parent of each member of in-degree 1
            multi: list = []  # the pred segment of every other member
            for w in extent:
                page = slot_pages.get(w >> PAGE_BITS)
                slot = -1 if page is None else page[w & PAGE_MASK]
                assert slot >= 0, f"inode {token}@{k} lists dead dnode {w}"
                assert slot < slots and oid_at[slot] == w, f"slot map broken for oid {w}"
                assert label_at[slot] >= 0, f"label missing for oid {w}"
                assert label_at[slot] == want, f"inode {chain[0]}@0 mixes labels at dnode {w}"
                off = s_off[slot]
                targets = s_data[off : off + s_len[slot]]
                off = p_off[slot]
                sources = p_data[off : off + p_len[slot]]
                out_degree, in_degree = len(targets), len(sources)
                visits += 1 + out_degree + in_degree
                if out_degree > 1:
                    scratch.clear()
                    scratch.update(targets)
                    assert len(scratch) == out_degree, f"duplicate succ at {w}"
                for t in targets:
                    page = slot_pages.get(t >> PAGE_BITS)
                    t_slot = -1 if page is None else page[t & PAGE_MASK]
                    assert t_slot >= 0, f"dangling edge {w}->{t}"
                    overlay = p_overlay.get(t_slot)
                    if overlay is not None:
                        assert w in overlay, f"pred missing for {w}->{t}"
                        continue
                    off = p_off[t_slot]
                    try:
                        p_index(w, off, off + p_len[t_slot])
                    except ValueError:
                        raise AssertionError(f"pred missing for {w}->{t}") from None
                if in_degree == 1:
                    singles.append(sources[0])
                else:
                    multi.append(sources)
                    if in_degree > 1:
                        scratch.clear()
                        scratch.update(sources)
                        assert len(scratch) == in_degree, f"duplicate pred at {w}"
                for s in sources:
                    page = slot_pages.get(s >> PAGE_BITS)
                    s_slot = -1 if page is None else page[s & PAGE_MASK]
                    assert s_slot >= 0, f"dangling pred {s}->{w}"
                    overlay = s_overlay.get(s_slot)
                    if overlay is not None:
                        assert w in overlay, f"succ missing for {s}->{w}"
                        continue
                    off = s_off[s_slot]
                    try:
                        s_index(w, off, off + s_len[s_slot])
                    except ValueError:
                        raise AssertionError(f"succ missing for {s}->{w}") from None
            if not stable:
                continue
            seen.update(extent)
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
    except (AssertionError, LookupError) as exc:
        if extent is not None:  # (the failing class is cut over again, whole)
            end, visits = end - 1, before
        return _broken_cut(
            graph, lambda token: leaf.extents.get(token, ()), ids, end, visits, budget, exc
        )
    if not stable:
        return ExtentAudit(end, visits, None, ())

    def pred_classes(w: int, below) -> Optional[set]:
        """The parent classes of a dnode outside the slice, ``None`` if dead."""
        page = slot_pages.get(w >> PAGE_BITS)
        slot = -1 if page is None else page[w & PAGE_MASK]
        if not 0 <= slot < slots:
            return None
        off = p_off[slot]
        return set(map(below, p_data[off : off + p_len[slot]]))

    # the classes below the leaf level, each against the oracle's
    # representative: its first member the slice does not reach under it
    for i, reached in enumerate(signs[:k]):
        if suspect:
            break
        classed, extents = class_maps[i].get, levels[i].extents
        for token, signed in reached.items():
            rep = next(
                (w for w in extents[token] if w not in seen or classed(w) != token), None
            )
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
    violations: tuple = ()
    if suspect:  # only now the oracle, over the slice as it reads it
        try:
            violations = tuple(
                _unsigned(violation)
                for violation in family.signature_violations(seen)
                if violation[2] is None or minimal
            )[:1]
        except (AssertionError, LookupError) as exc:
            return ExtentAudit(end, visits, exc, ())
    return ExtentAudit(end, visits, None, violations)


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

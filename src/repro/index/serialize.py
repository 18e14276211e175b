"""JSON-friendly (de)serialisation of structural indexes.

An index is serialised *relative to its graph* as the partition (lists of
dnode oids per inode, with the inode ids preserved); iedge supports are
recomputed on load — they are derived state.  The A(k) family format adds
the per-level partitions and the refinement-tree parent links.

Since wire v2 every extent is stored **delta-encoded**: the sorted member
oids become ``[first, gap, gap, ...]`` (see :mod:`repro.core.codec`),
which collapses the dominant payload cost — dense oid runs — to one or
two JSON characters per member.  v0/v1 payloads (absolute oids) load
unchanged.

The ``*_to_dict`` writers are the wire form and the reference;
:func:`structure_to_json` writes the canonical JSON text of the same
dicts straight off the extent tables, one page at a time: a page is
``(level, id >> PAGE_BITS)`` (a 1-index is level 0 keyed by inode id),
:func:`structure_page` renders its extents and parent links and
:func:`structure_json` joins pages.  A checkpoint keeps the page texts
and re-renders only those commits touched (:mod:`repro.store.checkpoint`).
A family's levels hold a few hundred tokens each, so there a page is
most of a level.  All of it is tested equal to
``canonical(structure_to_dict(...))``.

Typical use: persist the graph (:mod:`repro.graph.serialize`) and its
maintained index together, reload both, resume maintenance::

    payload = {"graph": graph_to_dict(g), "index": index_to_dict(idx)}
    ...
    g = graph_from_dict(payload["graph"])
    idx = index_from_dict(g, payload["index"], cls=OneIndex)
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Collection, Mapping
from itertools import chain
from typing import Any, TextIO, Type, TypeVar

from repro.core.codec import (
    canonical,
    canonical_array,
    canonical_object,
    delta_decode,
    delta_encode,
    delta_text,
)
from repro.core.intmap import PAGE_BITS, PAGE_SIZE
from repro.exceptions import InvalidIndexError
from repro.graph.datagraph import DataGraph
from repro.graph.serialize import check_format_version
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex

IndexT = TypeVar("IndexT", bound=StructuralIndex)

#: current index/family wire-format version; bump on structural changes.
#: Readers accept a missing version as v0 (the identical pre-versioned
#: layout) and reject newer versions with :class:`InvalidIndexError` —
#: checkpoints must stay evolvable (see :mod:`repro.store.checkpoint`).
#: v2 delta-encodes extents; v0/v1 stored absolute sorted oids.
INDEX_FORMAT_VERSION = 2


def _decode_extent(raw: Any, version: int, inode_id: Any) -> list:
    """Materialise one wire extent: delta-decoded since v2, absolute before."""
    if version < 2:
        return raw
    try:
        return delta_decode(raw)
    except TypeError as exc:
        raise InvalidIndexError(
            f"malformed extent of inode {inode_id}: expected a delta-encoded "
            f"int list, got {raw!r}"
        ) from exc


def index_to_dict(index: StructuralIndex) -> dict[str, Any]:
    """Serialise an index partition (inode ids preserved)."""
    return {
        "format_version": INDEX_FORMAT_VERSION,
        "inodes": [
            [inode, delta_encode(sorted(index.extent(inode)))]
            for inode in sorted(index.inodes())
        ],
        "next_id": index._next_id,
    }


def index_from_dict(
    graph: DataGraph,
    data: dict[str, Any],
    cls: Type[IndexT] = StructuralIndex,  # type: ignore[assignment]
) -> IndexT:
    """Rebuild an index over *graph* from :func:`index_to_dict` output."""
    version = check_format_version(data, INDEX_FORMAT_VERSION, InvalidIndexError)
    try:
        inodes = data["inodes"]
        next_id = data["next_id"]
    except (KeyError, TypeError) as exc:
        raise InvalidIndexError(f"malformed index payload: {exc!r}") from exc
    index = cls(graph)
    inode_of = index._inode_of
    for entry in inodes:
        try:
            inode_id, extent = entry
        except (ValueError, TypeError) as exc:
            raise InvalidIndexError(
                f"malformed inode entry {entry!r}: expected [id, extent]"
            ) from exc
        extent = _decode_extent(extent, version, inode_id)
        if not extent:
            raise InvalidIndexError(f"inode {inode_id} has an empty extent")
        # Inode ids feed the PagedIntMap partition table, whose values
        # must be non-negative ints (hashability alone no longer cuts it).
        if not isinstance(inode_id, int) or isinstance(inode_id, bool) or inode_id < 0:
            raise InvalidIndexError(
                f"inode id {inode_id!r} is not a non-negative int"
            )
        if inode_id in index._extent_arr:
            raise InvalidIndexError(f"inode id {inode_id} appears twice")
        for dnode in extent:
            if not graph.has_node(dnode):
                raise InvalidIndexError(
                    f"inode {inode_id} references dnode {dnode!r} not in the graph"
                )
        label = graph.label(extent[0])
        index._extent_arr[inode_id] = arr = array("q")
        index._label[inode_id] = label
        index._succ_support[inode_id] = {}
        index._pred_support[inode_id] = {}
        pos_of = index._pos_of
        for dnode in extent:
            if graph.label(dnode) != label:
                raise InvalidIndexError(f"inode {inode_id} mixes labels")
            if inode_of.get(dnode) is not None:
                raise InvalidIndexError(f"dnode {dnode} in two inodes")
            inode_of[dnode] = inode_id
            pos_of[dnode] = len(arr)
            arr.append(dnode)
    missing = set(graph.nodes()) - set(inode_of)
    if missing:
        raise InvalidIndexError(
            f"extents do not partition the graph: missing dnodes {sorted(missing)[:5]}"
        )
    try:
        index._next_id = max(next_id, max(index._extent_arr, default=-1) + 1)
    except TypeError as exc:
        raise InvalidIndexError(f"malformed next_id {next_id!r}") from exc
    index.rebuild_iedges()
    return index


def family_to_dict(family: AkIndexFamily) -> dict[str, Any]:
    """Serialise an A(k) family: per-level partitions + tree parents."""
    levels = []
    for level_no, level in enumerate(family.levels):
        levels.append(
            {
                "extents": [
                    [token, delta_encode(sorted(extent))]
                    for token, extent in sorted(level.extents.items())
                ],
                "parent": sorted(level.parent.items()) if level_no > 0 else [],
                "next_token": level.next_token,
            }
        )
    return {"format_version": INDEX_FORMAT_VERSION, "k": family.k, "levels": levels}


def family_from_dict(graph: DataGraph, data: dict[str, Any]) -> AkIndexFamily:
    """Rebuild an A(k) family over *graph*; validates the invariants."""
    version = check_format_version(data, INDEX_FORMAT_VERSION, InvalidIndexError)
    try:
        k = data["k"]
        levels = data["levels"]
        if not isinstance(k, int) or k < 0:
            raise InvalidIndexError(f"malformed k {k!r}: expected a non-negative int")
        if len(levels) != k + 1:
            raise InvalidIndexError(f"expected {k + 1} levels, got {len(levels)}")
        family = AkIndexFamily(graph, k)
        for level_no, payload in enumerate(levels):
            level = family.levels[level_no]
            for token, extent in payload["extents"]:
                if token in level.extents:
                    raise InvalidIndexError(
                        f"token {token} appears twice at level {level_no}"
                    )
                extent = _decode_extent(extent, version, token)
                level.extents[token] = set(extent)
                for dnode in extent:
                    level.class_of[dnode] = token
            level.parent = dict((int(a), int(b)) for a, b in payload["parent"])
            level.next_token = payload["next_token"]
    except InvalidIndexError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidIndexError(f"malformed family payload: {exc!r}") from exc
    for level_no in range(1, k + 1):
        level = family.levels[level_no]
        coarser = family.levels[level_no - 1]
        for token in level.extents:
            parent = level.parent.get(token)
            if parent is None:
                raise InvalidIndexError(f"missing tree parent for {token}@{level_no}")
            coarser.children.setdefault(parent, set()).add(token)
    for level_no in range(k):
        level = family.levels[level_no]
        for token in level.extents:
            level.children.setdefault(token, set())
    try:
        family.check_invariants()
    except AssertionError as exc:
        raise InvalidIndexError(f"family payload violates invariants: {exc}") from exc
    family.index_labels()
    return family


def structure_to_dict(structure: "StructuralIndex | AkIndexFamily") -> dict[str, Any]:
    """Serialise either structure; its ``kind`` travels beside the payload."""
    if structure.kind == AkIndexFamily.kind:
        return family_to_dict(structure)
    return index_to_dict(structure)


def structure_pages(structure: "StructuralIndex | AkIndexFamily") -> list[tuple[int, int]]:
    """The ``(level, id >> PAGE_BITS)`` pages that hold an id, ascending.

    A 1-index is level 0 keyed by inode id; an A(k) family's pages hold
    the tokens of its extents and (above level 0) of its parent links.
    """
    if structure.kind == AkIndexFamily.kind:
        return sorted(
            {
                (level_no, token >> PAGE_BITS)
                for level_no, level in enumerate(structure.levels)
                for token in chain(level.extents, level.parent)
            }
        )
    inode_pages = {inode >> PAGE_BITS for inode in structure._extent_arr}
    return [(0, page_no) for page_no in sorted(inode_pages)]


def _ids_on_page(table: Collection[int], page_no: int) -> list[int]:
    base = page_no << PAGE_BITS
    return [ident for ident in range(base, base + PAGE_SIZE) if ident in table]


def _extent_entries(extents: Mapping[int, Collection[int]], ids: list[int]) -> str:
    """``[id, delta-coded extent]`` of each of *ids*, comma-joined.

    Most inodes of a real document hold one dnode (48.6k of 55.4k on the
    4x XMark corpus): a singleton is its own delta code and skips the sort.
    """
    entries = []
    for ident in ids:
        extent = extents[ident]
        if len(extent) == 1:
            (only,) = extent
            entries.append(f"[{ident},[{only}]]")
        else:
            entries.append(f"[{ident},{delta_text(sorted(extent))}]")
    return ",".join(entries)


def structure_page(
    structure: "StructuralIndex | AkIndexFamily", level_no: int, page_no: int
) -> tuple[str, str]:
    """One page's ``extents`` entries and ``parent`` entries, each
    comma-joined ("" if none; a 1-index and level 0 have no parents)."""
    if structure.kind != AkIndexFamily.kind:
        extents = structure._extent_arr
        return _extent_entries(extents, _ids_on_page(extents, page_no)), ""
    level = structure.levels[level_no]
    parents = ""
    if level_no:
        parent = level.parent
        parents = ",".join(f"[{a},{parent[a]}]" for a in _ids_on_page(parent, page_no))
    return _extent_entries(level.extents, _ids_on_page(level.extents, page_no)), parents


def structure_json(
    structure: "StructuralIndex | AkIndexFamily",
    pages: Mapping[tuple[int, int], tuple[str, str]],
) -> str:
    """The structure's canonical text from its pages' texts (keyed as
    :func:`structure_pages`; empty page texts are skipped)."""
    ordered = [(key[0], pages[key]) for key in sorted(pages)]
    if structure.kind != AkIndexFamily.kind:
        return canonical_object(
            {
                "format_version": canonical(INDEX_FORMAT_VERSION),
                "inodes": canonical_array(filter(None, (text[0] for _, text in ordered))),
                "next_id": canonical(structure._next_id),
            }
        )
    levels = []
    for level_no, level in enumerate(structure.levels):
        texts = [text for at, text in ordered if at == level_no]
        levels.append(
            canonical_object(
                {
                    "extents": canonical_array(filter(None, (ext for ext, _ in texts))),
                    "parent": canonical_array(filter(None, (par for _, par in texts))),
                    "next_token": canonical(level.next_token),
                }
            )
        )
    return canonical_object(
        {
            "format_version": canonical(INDEX_FORMAT_VERSION),
            "k": canonical(structure.k),
            "levels": canonical_array(levels),
        }
    )


def structure_to_json(structure: "StructuralIndex | AkIndexFamily") -> str:
    """``canonical(structure_to_dict(structure))`` for either structure.

    Every page rendered by :func:`structure_page` and joined: the cold
    case of a checkpoint's paged text.
    """
    pages = structure_pages(structure)
    return structure_json(structure, {key: structure_page(structure, *key) for key in pages})


def structure_from_dict(
    graph: DataGraph, kind: str, data: dict[str, Any]
) -> "OneIndex | AkIndexFamily":
    """Rebuild the structure of *kind* over *graph* from its payload."""
    if kind == AkIndexFamily.kind:
        return family_from_dict(graph, data)
    if kind == OneIndex.kind:
        return index_from_dict(graph, data, cls=OneIndex)
    raise InvalidIndexError(f"unknown structure kind {kind!r}")


def dump_index(index: StructuralIndex, fp: TextIO) -> None:
    """Write an index as JSON to an open text file."""
    json.dump(index_to_dict(index), fp)


def load_index(
    graph: DataGraph, fp: TextIO, cls: Type[IndexT] = StructuralIndex  # type: ignore[assignment]
) -> IndexT:
    """Read an index from JSON written by :func:`dump_index`."""
    return index_from_dict(graph, json.load(fp), cls)

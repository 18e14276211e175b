"""The A(k) ladder: several published index resolutions off one family.

The maintainer keeps the whole refinement ladder A(0) ⊑ A(1) ⊑ … ⊑ A(k)
live anyway (each level's classes point at their coarser parent through
the refinement tree), but the service publishes only the leaf level.
This module derives any coarser ladder level **from the published leaf
snapshot plus an ancestor map** captured at publish time, so a short
child-only query can run on a far smaller index graph without the
writer freezing k full partitions per commit.

The derivation leans on two facts:

* a level-j extent is exactly the union of the leaf extents below it in
  the refinement tree, and a level-j iedge is exactly the image of a
  leaf iedge under the ancestor map — so ``(leaf FrozenIndex, anc_j)``
  determines the level-j evaluation surface completely;
* leaf tokens are stable across maintenance, so the per-commit work is
  one parent-chain walk per leaf token (O(#leaf tokens · k), leaf token
  count ≪ |G|), not a re-freeze of every level.

:class:`LadderLevel` materialises that surface lazily (first query to a
level at a version pays the O(#leaf tokens + #leaf iedges) projection;
extents are unioned only for inodes a query actually matches, and a
descendant step's closure is walked once per level and version), and
:func:`invalidation_sets` turns a commit's touched leaf tokens plus the
ancestor-map diff into per-level sets of changed level tokens — the
currency the result cache intersects against.  The diff term matters:
propagation can re-parent a surviving leaf token at level j **without
any leaf move** (the signature-keeping path of
``AkSplitMergeMaintainer._refresh_level``), so touched leaf tokens alone
under-approximate coarse-level change.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.exceptions import ServiceError, StructuralIndexError
from repro.index.akindex import AkIndexFamily
from repro.index.base import LabelTable
from repro.service.snapshot import FrozenGraph, FrozenIndex


def validate_ladder_levels(levels: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Normalise a ladder spec: sorted, unique, strictly below the leaf k.

    Level k itself is always served (it is the snapshot's own index), so
    it is implied and never listed.  An empty ladder is legal — the
    service degenerates to plain fixed-k serving.
    """
    cleaned = sorted(set(int(j) for j in levels))
    for j in cleaned:
        if j < 0 or j >= k:
            raise ServiceError(
                f"ladder level {j} out of range for an A({k}) family "
                f"(levels must satisfy 0 <= level < k)"
            )
    return tuple(cleaned)


class LadderLevel:
    """The frozen A(j) evaluation surface, derived from the leaf level.

    Implements what :func:`repro.query.evaluate_on_index` and
    :func:`repro.query.evaluate_on_ak` consume (``evaluation_tables`` /
    ``.graph``) plus the checked public reads.  Extents are computed
    lazily and memoised — a query pays only for the inodes it matches —
    and so is the level's label table, grouped on the first read.  The
    level keeps its own closure memo for the query kernel: its iedges
    are not the leaf's, so neither are its loop-state closures.
    """

    __slots__ = (
        "level", "graph", "roots", "_leaf", "_groups", "_label", "_isucc", "_extents",
        "_labelled", "_closures",
    )

    def __init__(self, level: int, leaf: FrozenIndex, anc: dict[int, int]):
        self.level = level
        self.graph: FrozenGraph = leaf.graph
        #: the evaluation seed: the level-j ancestor of the leaf's root token
        self.roots = tuple(anc[t] for t in leaf.roots)
        self._leaf = leaf
        groups: dict[int, list[int]] = {}
        for token, ancestor in anc.items():
            groups.setdefault(ancestor, []).append(token)
        self._groups = groups
        self._label = {
            ancestor: leaf.label_of(members[0]) for ancestor, members in groups.items()
        }
        isucc_sets: dict[int, set[int]] = {ancestor: set() for ancestor in groups}
        for token, ancestor in anc.items():
            bucket = isucc_sets[ancestor]
            for child in leaf.isucc(token):
                bucket.add(anc[child])
        self._isucc = {ancestor: tuple(s) for ancestor, s in isucc_sets.items()}
        self._extents: dict[int, frozenset[int]] = {}
        self._labelled: Optional[LabelTable] = None
        #: this level's loop-state closures (its iedges are not the leaf's)
        self._closures: dict = {}

    # -- the evaluation surface of StructuralIndex ---------------------

    def evaluation_tables(self) -> tuple:
        """``(roots, children_of, labelled, extent_of, closures)`` for the query kernel."""
        table = self._labelled
        if table is None:  # racing readers may both group: identical tables
            table = self._labelled = LabelTable.group(self._label.items())
        return self.roots, self._isucc.__getitem__, table.__getitem__, self.extent, self._closures

    def inodes(self) -> Iterator[int]:
        """Iterate over the level's tokens."""
        return iter(self._groups)

    def label_of(self, inode: int) -> str:
        """The label shared by the extent of *inode*."""
        self._require(inode)
        return self._label[inode]

    def isucc(self, inode: int) -> Iterator[int]:
        """Level-j index successors (image of the leaf iedges)."""
        self._require(inode)
        return iter(self._isucc[inode])

    def extent(self, inode: int) -> frozenset[int]:
        """Union of the leaf extents below *inode* (memoised)."""
        cached = self._extents.get(inode)
        if cached is None:
            members = self._groups[inode]
            if len(members) == 1:
                cached = self._leaf.extent(members[0])
            else:
                cached = frozenset().union(*(self._leaf.extent(t) for t in members))
            self._extents[inode] = cached
        return cached

    def group(self, inode: int) -> list[int]:
        """The leaf tokens grouped under *inode*."""
        self._require(inode)
        return self._groups[inode]

    @property
    def num_inodes(self) -> int:
        """Number of level-j tokens."""
        return len(self._groups)

    def _require(self, inode: int) -> None:
        if inode not in self._groups:
            raise StructuralIndexError(f"inode {inode} does not exist at A({self.level})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LadderLevel A({self.level}) inodes={self.num_inodes}>"


class LadderState:
    """Per-version ladder artifacts riding alongside one snapshot.

    ``anc[j]`` maps every leaf token to its level-j ancestor in the
    refinement tree *as of this version*; ``root_tokens[j]`` is the
    level's evaluation seed — the level-j ancestor of the leaf token
    holding the graph's root, i.e. ``anc[j]`` applied to
    ``FrozenIndex.roots`` (empty on a rootless graph; a change there
    invalidates every cached entry of the level, see
    :func:`invalidation_sets`); ``sizes[j]`` is the level's token count
    (what ``ladder_sizes()``, ``/health`` and the
    ``adaptive.ladder_size.<j>`` gauges report).  Level views are
    derived lazily per version and cached (readers may race the first
    derivation; building twice is benign, both results are identical).
    """

    __slots__ = ("version", "k", "levels", "index", "anc", "root_tokens", "sizes", "_views")

    def __init__(
        self,
        version: int,
        k: int,
        levels: tuple[int, ...],
        index: FrozenIndex,
        anc: dict[int, dict[int, int]],
        root_tokens: dict[int, frozenset[int]],
        sizes: dict[int, int],
    ):
        self.version = version
        self.k = k
        self.levels = levels
        self.index = index
        self.anc = anc
        self.root_tokens = root_tokens
        self.sizes = sizes
        self._views: dict[int, LadderLevel] = {}

    def level_view(self, level: int) -> "LadderLevel | FrozenIndex":
        """The evaluation surface for *level* (the leaf is the index itself)."""
        if level == self.k:
            return self.index
        view = self._views.get(level)
        if view is None:
            view = LadderLevel(level, self.index, self.anc[level])
            self._views[level] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LadderState v{self.version} levels={self.levels + (self.k,)} "
            f"sizes={self.sizes}>"
        )


def build_ladder_state(
    family: AkIndexFamily,
    leaf: FrozenIndex,
    version: int,
    levels: tuple[int, ...],
) -> LadderState:
    """Capture the ancestor maps for *levels* off the live refinement tree.

    Called by the writer at publish time, after *leaf* — the
    :class:`FrozenIndex` of *version* — exists, while the family still
    reflects exactly that version.  One parent-chain walk per leaf
    token; the chain is recorded at every requested ladder level.
    """
    k = family.k
    wanted = sorted(levels, reverse=True)
    anc: dict[int, dict[int, int]] = {j: {} for j in levels}
    for token in leaf.inodes():
        current = token
        cursor = iter(wanted)
        want = next(cursor, None)
        for level in range(k - 1, -1, -1):
            if want is None:
                break
            current = family.levels[level + 1].parent[current]
            if want == level:
                anc[level][token] = current
                want = next(cursor, None)
    root_tokens = {k: frozenset(leaf.roots)}
    sizes = {k: leaf.num_inodes}
    for j in levels:
        mapping = anc[j]
        root_tokens[j] = frozenset(mapping[t] for t in leaf.roots)
        sizes[j] = len(set(mapping.values()))
    return LadderState(version, k, tuple(sorted(levels)), leaf, anc, root_tokens, sizes)


def invalidation_sets(
    prev: LadderState,
    new: LadderState,
    touched_tokens: set[int],
) -> dict[int, Optional[set[int]]]:
    """Per level, the tokens whose derived surface may differ prev → new.

    ``None`` for a level means "flush everything cached there" (the
    level is newly published, or its ROOT token set changed — the one
    dependency the per-entry footprints cannot see, because an entry
    never recorded a root that did not exist when it was evaluated).

    For the leaf level the answer is *touched_tokens* itself (the evolve
    superset contract).  For a coarser level j the changed set is the
    image of the touched leaf tokens under **both** versions' ancestor
    maps — arrivals touch the new ancestor, departures the old — plus
    both ancestors of every leaf token whose mapping changed between the
    versions, which is what catches silent re-parenting.
    """
    out: dict[int, Optional[set[int]]] = {}
    if new.root_tokens[new.k] != prev.root_tokens.get(prev.k):
        out[new.k] = None
    else:
        out[new.k] = set(touched_tokens)
    for j in new.levels:
        prev_anc = prev.anc.get(j)
        if prev_anc is None or new.root_tokens[j] != prev.root_tokens.get(j):
            out[j] = None
            continue
        new_anc = new.anc[j]
        changed: set[int] = set()
        for t in touched_tokens:
            ancestor = new_anc.get(t)
            if ancestor is not None:
                changed.add(ancestor)
            ancestor = prev_anc.get(t)
            if ancestor is not None:
                changed.add(ancestor)
        # re-parenting diff: O(#leaf tokens), cheap relative to publish
        for t, ancestor in new_anc.items():
            before = prev_anc.get(t)
            if before != ancestor:
                changed.add(ancestor)
                if before is not None:
                    changed.add(before)
        for t, before in prev_anc.items():
            if t not in new_anc:
                changed.add(before)
        out[j] = changed
    return out

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

A level is therefore one more :class:`~repro.index.frozen.FrozenIndex`,
made by :meth:`~repro.index.frozen.FrozenIndex.coarsen` on the first
query to it at a version (which pays the O(#leaf tokens + #leaf iedges)
projection; extents are unioned only for tokens a query accepts, and a
descendant step's closure is walked once per level and version, into
the level's own memo), and :func:`invalidation_sets` turns a commit's
touched leaf tokens plus the ancestor-map diff into per-level sets of
changed level tokens — the currency the result cache intersects
against.  The diff term matters:
propagation can re-parent a surviving leaf token at level j **without
any leaf move** (the signature-keeping path of
``AkSplitMergeMaintainer._refresh_level``), so touched leaf tokens alone
under-approximate coarse-level change.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ServiceError
from repro.index.akindex import AkIndexFamily
from repro.index.frozen import FrozenIndex


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
        self._views: dict[int, FrozenIndex] = {}

    def level_view(self, level: int) -> FrozenIndex:
        """The evaluation surface for *level* (the leaf is the index itself)."""
        if level == self.k:
            return self.index
        view = self._views.get(level)
        if view is None:
            view = self._views[level] = FrozenIndex.coarsen(self.index, self.anc[level])
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

"""The A(k)-index family (Kaushik et al. [9]), Definition 4 of the paper.

Section 6 of the paper maintains the whole family A(0), A(1), ..., A(k)
together, because updating the A(i)-index needs the A(i-1)-index as a
reference.  :class:`AkIndexFamily` stores exactly that: one partition per
level, linked level-to-level by the **refinement tree** (Figure 8): every
level-i inode knows its parent inode at level i-1 and its children at
level i+1 (a level-(i+1) inode's extent is always contained in its
parent's — each A(i+1) is a refinement of A(i), Lemma 2).

Representation note.  The paper's space-optimised layout stores dnode
extents only at level k and recovers coarser extents through the tree.
This implementation additionally memoises ``class_of`` maps and extents
per level, trading O(k·n) memory for simpler and clearly-correct
maintenance code; the paper's storage layout is accounted *analytically*
by :mod:`repro.metrics.storage` (Table 3 counts tree edges, inter-iedges
and level-k extents, which are representation-independent quantities).
The algorithmic claims — locality of updates, minimum index maintained —
do not depend on the physical layout.

Mutation goes through four primitives — :meth:`~AkIndexFamily.move`,
:meth:`~AkIndexFamily.open_class`, :meth:`~AkIndexFamily.close_class`,
:meth:`~AkIndexFamily.reparent` — each carrying the journal hook of
:mod:`repro.resilience.journal` (one ``_journal is not None`` test
outside a transaction) and an exact inverse in ``_undo_journal``, token
issue included, so a family rolls back and reports what a batch touched
the way a graph and a 1-index do.

:meth:`~AkIndexFamily.check_invariants` (also the checkpoint loader's
check) and :meth:`~AkIndexFamily.signature_violations` are the oracles
the guard's one pass, :func:`repro.index.stability.audit_classes`, is
differenced against; the pass asks the latter, over its scope, only for
the exact pair of a Definition 4 test that failed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import InvalidIndexError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of


@dataclass
class AkLevel:
    """One level of the family: a partition plus refinement-tree links."""

    #: dnode -> inode token at this level
    class_of: dict[int, int] = field(default_factory=dict)
    #: inode token -> extent (set of dnodes)
    extents: dict[int, set[int]] = field(default_factory=dict)
    #: inode token -> parent token at the previous level (empty at level 0)
    parent: dict[int, int] = field(default_factory=dict)
    #: inode token -> child tokens at the next level (empty at level k)
    children: dict[int, set[int]] = field(default_factory=dict)
    #: next fresh token
    next_token: int = 0

    def fresh_token(self) -> int:
        token = self.next_token
        self.next_token += 1
        return token


class AkIndexFamily:
    """The minimum A(0)..A(k) indexes of a data graph, maintained together.

    Build with :meth:`build`; mutate only through a maintainer from
    :mod:`repro.maintenance`.  The level-k partition is "the" A(k)-index;
    :meth:`level_index` materialises any level as a standalone
    :class:`StructuralIndex` (with iedges) for query evaluation.
    """

    #: the structure protocol (:mod:`repro.index.structure`)
    kind = "ak"

    def __init__(self, graph: DataGraph, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.graph = graph
        self.k = k
        self.levels: list[AkLevel] = [AkLevel() for _ in range(k + 1)]
        #: label -> the level-0 token last opened for it (level 0 is by
        #: label).  An entry may outlive its class; it never names another
        #: label's, because undoing an opening — the only way a token is
        #: issued twice — restores the entry it displaced
        self.label_tokens: dict[str, int] = {}
        self._journal = None
        self._generation = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, graph: DataGraph, k: int) -> "AkIndexFamily":
        """Construct the minimum family via k signature-refinement rounds
        (each after the first re-signs only the children of the dnodes
        that changed class; every level is renumbered in O(n))."""
        return cls._from_class_maps(graph, ak_class_maps(graph, k))

    @classmethod
    def _from_class_maps(cls, graph: DataGraph, maps: list[dict[int, int]]) -> "AkIndexFamily":
        """The family whose level *i* is ``maps[i]`` (A(0) first), trusted."""
        k = len(maps) - 1
        family = cls(graph, k)
        for i, class_map in enumerate(maps):
            level = family.levels[i]
            for dnode, token in class_map.items():
                level.class_of[dnode] = token
                level.extents.setdefault(token, set()).add(dnode)
            level.next_token = max(level.extents, default=-1) + 1
        for i in range(1, k + 1):
            level = family.levels[i]
            coarser = family.levels[i - 1]
            for token, extent in level.extents.items():
                representative = next(iter(extent))
                parent = coarser.class_of[representative]
                level.parent[token] = parent
                coarser.children.setdefault(parent, set()).add(token)
        # Ensure every token has a (possibly empty) children entry.
        for i in range(k):
            level = family.levels[i]
            for token in level.extents:
                level.children.setdefault(token, set())
        family.index_labels()
        return family

    def index_labels(self) -> None:
        """Derive :attr:`label_tokens` from level 0 (its classes filled wholesale)."""
        label = self.graph.label
        self.label_tokens = {
            label(next(iter(extent))): token
            for token, extent in self.levels[0].extents.items()
        }

    @property
    def generation(self) -> int:
        """Mutation counter, bumped by every primitive below and by
        :meth:`_adopt_from` (an undo only follows a bump)."""
        return self._generation

    def _adopt_from(self, fresh: "AkIndexFamily") -> None:
        """Swap every level for *fresh*'s (a rebuild keeps this object)."""
        self.levels = fresh.levels
        self.label_tokens = fresh.label_tokens
        self._generation += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def class_at(self, level: int, dnode: int) -> int:
        """The A(*level*) inode token containing *dnode*."""
        self._require_level(level)
        try:
            return self.levels[level].class_of[dnode]
        except KeyError:
            raise StructuralIndexError(
                f"dnode {dnode} is not covered at level {level}"
            ) from None

    def extent_at(self, level: int, token: int) -> set[int]:
        """The extent of inode *token* at *level* (live set; do not mutate)."""
        self._require_level(level)
        try:
            return self.levels[level].extents[token]
        except KeyError:
            raise StructuralIndexError(f"no inode {token} at level {level}") from None

    def num_inodes(self, level: int) -> int:
        """Number of inodes of the A(*level*)-index."""
        self._require_level(level)
        return len(self.levels[level].extents)

    def sizes(self) -> list[int]:
        """``[|A(0)|, |A(1)|, ..., |A(k)|]``."""
        return [self.num_inodes(i) for i in range(self.k + 1)]

    def approx_bytes(self) -> int:
        """Approximate resident bytes of the family's storage.

        O(#classes) per level — dict entries are estimated at a flat
        56/64 bytes rather than walked, so this is cheap enough for the
        per-publish ``repro_index_bytes`` gauge.
        """
        import sys

        total = 0
        for level in self.levels:
            total += sys.getsizeof(level.class_of) + 56 * len(level.class_of)
            total += sys.getsizeof(level.extents)
            for extent in level.extents.values():
                total += sys.getsizeof(extent) + 64
            total += sys.getsizeof(level.parent) + 56 * len(level.parent)
            total += sys.getsizeof(level.children)
            for kids in level.children.values():
                total += sys.getsizeof(kids) + 64
        return total

    def leaf(self) -> "LeafView":
        """The read surface a published version freezes: the leaf level."""
        return LeafView(self)

    def blocks(self) -> list[frozenset[int]]:
        """The served (level-k) partition as a list of frozen extents."""
        return [frozenset(extent) for extent in self.levels[self.k].extents.values()]

    def tokens_at(self, level: int) -> Iterator[int]:
        """Iterate over the inode tokens of one level."""
        self._require_level(level)
        return iter(self.levels[level].extents)

    def parent_of(self, level: int, token: int) -> int:
        """Refinement-tree parent (level-1 token) of a level-``level`` inode."""
        if level == 0:
            raise StructuralIndexError("level-0 inodes have no tree parent")
        self._require_level(level)
        return self.levels[level].parent[token]

    def children_of(self, level: int, token: int) -> frozenset[int]:
        """Refinement-tree children (level+1 tokens) of an inode."""
        if level == self.k:
            raise StructuralIndexError(f"level-{level} is the leaf level")
        self._require_level(level)
        return frozenset(self.levels[level].children.get(token, ()))

    def label_of(self, level: int, token: int) -> str:
        """The label shared by an inode's extent."""
        extent = self.extent_at(level, token)
        return self.graph.label(next(iter(extent)))

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def level_index(self, level: Optional[int] = None) -> StructuralIndex:
        """Materialise one level (default: k) as a :class:`StructuralIndex`.

        The result carries extents *and* iedges and is what query
        evaluation consumes.  It is a snapshot — further maintenance of the
        family does not update it.
        """
        if level is None:
            level = self.k
        self._require_level(level)
        blocks = [list(extent) for extent in self.levels[level].extents.values()]
        return StructuralIndex.from_partition(self.graph, blocks)

    def count_inter_iedges(self) -> int:
        """Number of inter-iedges: iedges from level-i to level-(i+1) inodes.

        Section 6 stores, for each A(i)-index inode, iedges to its inode
        successors *in the A(i+1)-index*; this counts them for the storage
        model of Table 3 (O(k·m) scan).
        """
        total = 0
        for i in range(self.k):
            pairs: set[tuple[int, int]] = set()
            coarse = self.levels[i].class_of
            fine = self.levels[i + 1].class_of
            for source, target in self.graph.edges():
                pairs.add((coarse[source], fine[target]))
            total += len(pairs)
        return total

    def count_intra_iedges(self, level: int) -> int:
        """Number of iedges inside the A(*level*)-index graph."""
        self._require_level(level)
        class_of = self.levels[level].class_of
        return len({(class_of[s], class_of[t]) for s, t in self.graph.edges()})

    # ------------------------------------------------------------------
    # Mutation primitives (journaled; see repro.resilience.journal)
    # ------------------------------------------------------------------

    def move(self, level_no: int, dnode: int, token: Optional[int]) -> Optional[int]:
        """Put *dnode* in class *token* at one level; returns the class it left.

        ``None`` on either side means "not covered": a new dnode is
        placed from ``None``, a deleted one removed to ``None``.
        """
        level = self.levels[level_no]
        old = level.class_of.get(dnode)
        if old is not None:
            level.extents[old].discard(dnode)
        if token is None:
            del level.class_of[dnode]
        else:
            level.class_of[dnode] = token
            level.extents[token].add(dnode)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "member_moved", (level_no, dnode, old, token))
        return old

    def open_class(self, level_no: int, under) -> int:
        """Open an empty class under a fresh token; returns the token.

        *under* is what the class refines: its tree parent at the level
        below or, at level 0, its label.
        """
        level = self.levels[level_no]
        token = level.fresh_token()
        level.extents[token] = set()
        if level_no < self.k:
            level.children[token] = set()
        displaced = None
        if level_no:
            level.parent[token] = under
            self.levels[level_no - 1].children[under].add(token)
        else:
            displaced = self.label_tokens.get(under)
            self.label_tokens[under] = token
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "class_opened", (level_no, token, under, displaced))
        return token

    def close_class(self, level_no: int, token: int) -> None:
        """Remove the emptied class *token* and its refinement-tree links."""
        level = self.levels[level_no]
        del level.extents[token]
        parent = level.parent.pop(token) if level_no else None
        if parent is not None:
            # (a parent closed first took its child set with it)
            siblings = self.levels[level_no - 1].children.get(parent)
            if siblings is not None:
                siblings.discard(token)
        children = level.children.pop(token, None)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "class_closed", (level_no, token, parent, children))

    def reparent(self, level_no: int, token: int, parent: int) -> None:
        """Hang class *token* under another tree parent at the level below."""
        level = self.levels[level_no]
        kids_of = self.levels[level_no - 1].children
        old = level.parent[token]
        siblings = kids_of.get(old)
        if siblings is not None:
            siblings.discard(token)
        level.parent[token] = parent
        kids_of[parent].add(token)
        self._generation += 1
        if self._journal is not None:
            self._journal.record(self, "class_reparented", (level_no, token, old, parent))

    def _undo_journal(self, op: str, payload: tuple) -> None:
        """Apply the inverse of one journaled mutation.

        Called by :meth:`repro.resilience.MutationJournal.rollback` with
        records in reverse order, so every map is as the record left it.
        """
        level_no = payload[0]
        level = self.levels[level_no]
        kids_of = self.levels[level_no - 1].children if level_no else {}
        if op == "member_moved":
            _, dnode, old, new = payload
            if new is not None:
                level.extents[new].discard(dnode)
            if old is None:
                del level.class_of[dnode]
            else:
                level.class_of[dnode] = old
                level.extents[old].add(dnode)
        elif op == "class_opened":
            _, token, under, displaced = payload
            del level.extents[token]
            level.children.pop(token, None)
            if level_no:
                del level.parent[token]
                kids_of[under].discard(token)
            elif displaced is None:
                del self.label_tokens[under]
            else:
                self.label_tokens[under] = displaced
            level.next_token = token
        elif op == "class_closed":
            _, token, parent, children = payload
            level.extents[token] = set()
            if children is not None:
                level.children[token] = children
            if parent is not None:
                level.parent[token] = parent
                if parent in kids_of:
                    kids_of[parent].add(token)
        elif op == "class_reparented":
            _, token, old, parent = payload
            kids_of[parent].discard(token)
            level.parent[token] = old
            if old in kids_of:
                kids_of[old].add(token)
        else:  # pragma: no cover - guards against journal format drift
            raise ValueError(f"unknown family journal op {op!r}")

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` unless all levels and tree links are
        consistent — explicitly, so the check also holds under ``python -O``
        (it is the checkpoint loader's).

        At every level each dnode must be a member of the class its map
        entry names, inside that class's tree parent (Lemma 2; level 0 is
        by label), and each class non-empty and linked both ways to its
        tree parent and children; then :meth:`check_totals`.  O(k · n).
        """
        graph = self.graph
        live = list(graph.nodes())
        for i, level in enumerate(self.levels):
            coarser = self.levels[i - 1] if i else None
            for w in live:
                token = level.class_of.get(w)
                extent = level.extents.get(token, ())
                if w not in extent:
                    raise AssertionError(f"class map broken at level {i} for dnode {w}")
                if coarser is None:
                    if graph.label(w) != graph.label(next(iter(extent))):
                        raise AssertionError(f"inode {token}@0 mixes labels at dnode {w}")
                elif coarser.class_of.get(w) != level.parent.get(token):
                    raise AssertionError(f"inode {token}@{i} spans tree parents at dnode {w}")
        for token in self.levels[self.k].extents:
            self._check_class(self.k, token)
        self.check_totals()

    def _check_class(self, i: int, token: int) -> None:
        """The links of class *token* at level *i*: if dead, none are left;
        if live, it is non-empty, listed under the tree parent its first
        member's class names, and each listed child names it as parent."""
        level = self.levels[i]
        extent = level.extents.get(token)
        if extent is None:
            if token in level.parent or token in level.children:
                raise AssertionError(f"dead inode {token}@{i} leaked a tree link")
            return
        if not extent:
            raise AssertionError(f"empty inode {token} at level {i}")
        if i:
            coarser = self.levels[i - 1]
            parent = level.parent.get(token)
            if parent != coarser.class_of.get(next(iter(extent))) or token not in (
                coarser.children.get(parent, ())
            ):
                raise AssertionError(f"tree parent wrong for {token}@{i}")
        finer = self.levels[i + 1].parent if i < self.k else {}
        for child in level.children.get(token, ()):
            if finer.get(child) != token:
                raise AssertionError(f"stale child {child} under {token}@{i}")

    def check_totals(self) -> None:
        """What no whole leaf class states: every level covers the graph
        exactly once under the keys its tree links use, and the classes
        above the leaf level are sound.  O(#classes + #tree links)."""
        for i, level in enumerate(self.levels):
            covered = sum(map(len, level.extents.values()))
            if not len(level.class_of) == covered == self.graph.num_nodes:
                raise AssertionError(f"level {i} does not cover the graph exactly once")
            if i and level.parent.keys() != level.extents.keys():
                raise AssertionError(f"parent keys drift @{i}")
            if i < self.k:
                for token in level.extents:
                    self._check_class(i, token)

    def signature_violations(
        self, dnodes: Optional[Iterable[int]] = None
    ) -> list[tuple[int, int, Optional[int]]]:
        """``(level, token, other)`` wherever Definition 4 fails.

        A dnode's class is fixed by its signature, read off graph
        adjacency: its label at level 0, above that its class one level
        down with the set of its parents' classes there.  A class is
        reported with ``other=None`` when an examined member signs
        differently from its representative, and with the *other* class
        when two sign the same: the family is the minimum iff nothing is
        reported (Lemma 6).

        Unscoped, every dnode is examined.  With *dnodes* (those the
        guard's pass read, when one of its tests failed) only they are,
        each against a member of its class outside them when there is
        one, and each such class against its tree siblings: the exact
        ``(level, token, other)`` the pass reports.
        """
        graph = self.graph
        scoped = dnodes is not None
        nodes = [w for w in dnodes if graph.has_node(w)] if scoped else list(graph.nodes())
        violations: list[tuple[int, int, Optional[int]]] = []
        for i, level in enumerate(self.levels):
            if i == 0:
                sign = graph.label
            else:
                below = self.levels[i - 1].class_of.get

                def sign(w):  # (only called within this iteration)
                    return below(w), frozenset(map(below, graph.iter_pred(w)))

            members_of: dict[Optional[int], list[int]] = {}
            for w in nodes:
                members_of.setdefault(level.class_of.get(w), []).append(w)
            signed: dict[int, object] = {}
            for token, members in members_of.items():
                extent = level.extents.get(token)
                if not extent:
                    violations.append((i, token, None))
                    continue
                examined = set(members)
                outside = (w for w in extent if w not in examined)
                signed[token] = base = sign(next(outside, members[0]))
                if any(sign(w) != base for w in members):
                    violations.append((i, token, None))
            siblings: Iterable[int] = level.extents if scoped else ()
            if scoped and i:  # only the classes under the same tree parents
                children = self.levels[i - 1].children
                parents = {signature[0] for signature in signed.values()}
                siblings = [t for parent in parents for t in children.get(parent, ())]
            for other in siblings:
                if other not in signed:
                    extent = level.extents.get(other)
                    if extent:
                        signed[other] = sign(next(iter(extent)))
                    else:
                        violations.append((i, other, None))
            owner: dict[object, int] = {}
            for token, signature in signed.items():
                clash = owner.setdefault(signature, token)
                if clash != token:
                    violations.append((i, token, clash))
        return violations

    def is_minimum(self) -> bool:
        """Whether every level equals the freshly-constructed minimum.

        Theorem 2 says the split/merge maintainer preserves this; the
        tests lean on it as the master oracle.
        """
        fresh = ak_class_maps(self.graph, self.k)
        for i in range(self.k + 1):
            want = {frozenset(b) for b in blocks_of(fresh[i])}
            have = {frozenset(e) for e in self.levels[i].extents.values()}
            if want != have:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AkIndexFamily k={self.k} sizes={self.sizes()}>"

    def _require_level(self, level: int) -> None:
        if not 0 <= level <= self.k:
            raise InvalidIndexError(f"level {level} out of range 0..{self.k}")


class LeafView:
    """The live leaf level of a family, read like a :class:`StructuralIndex`.

    The surface :class:`repro.index.frozen.FrozenIndex` freezes —
    ``inodes`` / ``has_inode`` / ``extent`` / ``label_of`` / ``isucc`` /
    ``inode_of`` — keyed by **leaf tokens**: unaffected classes keep
    their token across maintenance, so successive versions can share
    entries, which the freshly assigned ids of :meth:`AkIndexFamily.level_index`
    would defeat.  The family stores no iedges; a class's are derived
    from its members' out-edges, O(extent + out-degree).
    """

    __slots__ = ("_graph", "_extents", "_class_of")

    def __init__(self, family: AkIndexFamily):
        leaf = family.levels[family.k]
        self._graph = family.graph
        self._extents = leaf.extents
        self._class_of = leaf.class_of

    def inodes(self) -> Iterator[int]:
        return iter(self._extents)

    def has_inode(self, token: int) -> bool:
        return token in self._extents

    def extent(self, token: int) -> set[int]:
        return self._extents[token]

    def label_of(self, token: int) -> str:
        return self._graph.label(next(iter(self._extents[token])))

    def isucc(self, token: int) -> set[int]:
        class_of, succ = self._class_of, self._graph.iter_succ
        return {class_of[c] for w in self._extents[token] for c in succ(w)}

    def inode_of(self, dnode: int) -> int:
        return self._class_of[dnode]

    def derived_entries(self, dnodes: Iterable[int]) -> Iterator[int]:
        """Tokens whose iedges follow *dnodes*' adjacency with no journal
        record naming them: the class of each one still alive and the
        classes of its current parents (a deleted dnode's old class was
        journaled when it left)."""
        class_of, pred = self._class_of, self._graph.iter_pred
        for w in dnodes:
            token = class_of.get(w)
            if token is not None:
                yield token
                for p in pred(w):
                    yield class_of[p]

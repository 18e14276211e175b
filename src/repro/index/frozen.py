"""Read-only index versions: the one surface every evaluation reads.

A :class:`FrozenIndex` is one partition's tables, closed: ``inode ->
extent``, ``inode -> iedges``, the ``label -> inodes``
:class:`LabelTable` and the evaluation seed (``roots``, the inode that
holds the graph's root).  :func:`repro.query.evaluate_on_index` reads
nothing else, and every index it evaluates is one of these:

* a **published version** (:mod:`repro.service.snapshot`) is
  :meth:`FrozenIndex.capture` of the writer's leaf, then
  :meth:`FrozenIndex.evolve` per commit, which re-captures only the
  touched inodes and re-forms only the label sets an inode joined or
  left;
* a **coarser ladder level** A(j) (:mod:`repro.adaptive.ladder`) is
  :meth:`FrozenIndex.coarsen` of a version's leaf: its tokens are the
  leaf's grouped by their level-j ancestor, its iedges the image of the
  leaf's, and its extents unions formed on a token's first read;
* a **live** :class:`~repro.index.base.StructuralIndex` answers from
  :meth:`~repro.index.base.StructuralIndex.frozen`, the capture of its
  current ``generation``, taken on the first read and dropped by the
  next mutation.

Being closed, a version answers a loop state's closure the same way
every time: each one carries the query kernel's **closure memo**, empty
when it is made (``evolve`` and ``coarsen`` start their own), where the
kernel keeps the closure of each layer entering a loop state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.exceptions import StructuralIndexError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.graph.datagraph import DataGraph
    from repro.graph.frozen import FrozenGraph
    from repro.index.akindex import LeafView
    from repro.index.base import StructuralIndex


class LabelTable(dict):
    """``label -> frozenset of inodes`` of one index version.

    The query kernel's label test (:func:`repro.query.evaluate_on_index`):
    a layer keeps the children carrying a step's label with one
    intersection against ``table[label]``.  An absent label reads as the
    empty set, so ``__getitem__`` is the whole lookup.
    """

    __slots__ = ()

    @classmethod
    def group(cls, labels: Iterable[tuple[int, str]]) -> "LabelTable":
        """Group ``(inode, label)`` pairs by label."""
        groups: dict[str, list[int]] = {}
        for inode, label in labels:
            groups.setdefault(label, []).append(inode)
        return cls((label, frozenset(members)) for label, members in groups.items())

    def __missing__(self, label: str) -> frozenset[int]:
        return frozenset()


class _Unions(dict):
    """A coarsened level's extent table: a token's extent is the union of
    its group's leaf extents, formed on the token's first read and kept
    (racing readers store equal sets)."""

    __slots__ = ("_groups", "_leaf")

    def __init__(self, groups: dict[int, list[int]], leaf: dict[int, frozenset[int]]):
        super().__init__()
        self._groups = groups
        self._leaf = leaf

    def __missing__(self, token: int) -> frozenset[int]:
        members = self._groups[token]
        if len(members) == 1:
            extent = self._leaf[members[0]]
        else:
            extent = frozenset().union(*map(self._leaf.__getitem__, members))
        self[token] = extent
        return extent


class FrozenIndex:
    """A read-only extent/iedge copy of one index partition.

    Implements the surface :func:`repro.query.evaluate_on_index` and
    :func:`repro.query.evaluate_on_ak` consume (``frozen`` /
    ``evaluation_tables`` / ``.graph``) plus the checked public reads
    (``inodes`` / ``label_of`` / ``isucc`` / ``extent``).  The iedge
    table holds every inode, so the public reads key on it; the extent
    table of a coarsened level fills as it is read.  ``graph`` is the
    data graph of the same version — a published version's
    :class:`~repro.graph.frozen.FrozenGraph`, so A(k) validation walks the
    matching data, never the writer's live copy.
    """

    __slots__ = ("graph", "roots", "_extent", "_isucc", "_labelled", "_closures")

    def __init__(
        self,
        graph: "FrozenGraph | DataGraph",
        root: Optional[int],
        extent: dict[int, frozenset[int]],
        isucc: dict[int, tuple[int, ...]],
        labelled: LabelTable,
    ):
        self.graph = graph
        #: the evaluation seed: the inode holding ``graph.root`` (``()`` if rootless)
        self.roots: tuple[int, ...] = () if root is None else (root,)
        self._extent = extent
        self._isucc = isucc
        #: ``label -> inodes`` of this version, the only place labels are kept:
        #: an inode's own label is its members' (:meth:`label_of`)
        self._labelled = labelled
        #: the query kernel's loop-state closures of this version, filled
        #: by its first evaluations and never carried to another version
        self._closures: dict = {}

    @classmethod
    def capture(
        cls, index: "StructuralIndex | LeafView", graph: "FrozenGraph | DataGraph"
    ) -> "FrozenIndex":
        """Freeze an index's partition and iedges against *graph*."""
        extent = {i: frozenset(index.extent(i)) for i in index.inodes()}
        isucc = {i: tuple(index.isucc(i)) for i in index.inodes()}
        labelled = LabelTable.group((i, index.label_of(i)) for i in index.inodes())
        root = index.inode_of(graph.root) if graph.has_root else None
        return cls(graph, root, extent, isucc, labelled)

    @classmethod
    def evolve(
        cls,
        prev: "FrozenIndex",
        index: "StructuralIndex | LeafView",
        graph: "FrozenGraph",
        touched: Iterable[int],
    ) -> "FrozenIndex":
        """The next version by structural sharing: re-capture *touched* only.

        Untouched inodes keep the previous version's extent frozenset and
        iedge tuple; touched inodes are re-frozen from the live index, and
        touched inodes that no longer exist are dropped.  Correct iff
        *touched* is a superset of the inodes whose extent or iedges
        changed since *prev*.  An inode keeps its label while it lives, so
        the label table changes only where a touched id was created or
        destroyed: those labels' sets are re-formed, every other set is
        shared, and a commit that did neither publishes *prev*'s table.
        """
        before = prev._extent
        extent = before.copy()
        isucc = prev._isucc.copy()
        moved: dict[str, set[int]] = {}  # label -> the ids that joined or left it
        for i in touched:
            if index.has_inode(i):
                if i not in before:
                    moved.setdefault(index.label_of(i), set()).add(i)
                extent[i] = frozenset(index.extent(i))
                isucc[i] = tuple(index.isucc(i))
            elif i in before:
                moved.setdefault(prev.label_of(i), set()).add(i)
                del extent[i], isucc[i]
        labelled = prev._labelled
        if moved:
            labelled = LabelTable(labelled)
            for label, ids in moved.items():
                # leavers are members and joiners are not, so one copy of
                # the old set with the few ids toggled
                members = frozenset(ids) ^ labelled[label]
                if members:
                    labelled[label] = members
                else:
                    del labelled[label]
        root = index.inode_of(graph.root) if graph.has_root else None
        return cls(graph, root, extent, isucc, labelled)

    @classmethod
    def coarsen(cls, leaf: "FrozenIndex", anc: dict[int, int]) -> "FrozenIndex":
        """The coarser level that groups *leaf*'s tokens by their ancestor.

        *anc* maps every leaf token to its ancestor token in the
        refinement tree.  An ancestor's extent is the union of its group's
        leaf extents — formed on its first read, so a query pays only for
        the tokens it accepts — its iedges the image of its group's leaf
        iedges under *anc*, its label any member's, and the seed the
        ancestor of the leaf's.  Same version, same data graph.
        """
        groups: dict[int, list[int]] = {}
        for token, ancestor in anc.items():
            groups.setdefault(ancestor, []).append(token)
        children_of = leaf._isucc
        isucc = {
            ancestor: tuple({anc[child] for token in members for child in children_of[token]})
            for ancestor, members in groups.items()
        }
        labelled = LabelTable.group(
            (ancestor, leaf.label_of(members[0])) for ancestor, members in groups.items()
        )
        root = anc[leaf.roots[0]] if leaf.roots else None
        return cls(leaf.graph, root, _Unions(groups, leaf._extent), isucc, labelled)

    def same_entry(self, other: "FrozenIndex", token: int) -> bool:
        """Whether *token*'s captured extent/label/iedges agree with *other*.

        Identity-fast (evolve shares untouched entries) with
        order-insensitive iedge comparison (re-capturing an unchanged
        token may reorder its tuple).  Lets the adaptive plane refine a
        batch's conservative touched-token superset down to the tokens
        whose serialized form actually differs — the difference between
        near-total and footprint-precise cache invalidation.
        """
        here, there = token in self._isucc, token in other._isucc
        if not (here and there):
            return here == there
        mine, theirs = self._extent[token], other._extent[token]
        if mine is not theirs and mine != theirs:
            return False
        if self.label_of(token) != other.label_of(token):
            return False
        mine, theirs = self._isucc[token], other._isucc[token]
        return mine is theirs or set(mine) == set(theirs)

    # -- the evaluation surface ----------------------------------------

    def frozen(self) -> "FrozenIndex":
        """The version a query reads: this one."""
        return self

    def evaluation_tables(self) -> tuple:
        """``(roots, children_of, labelled, extent_of, closures)`` for the query kernel.

        The raw ``__getitem__`` of this version's own tables: every iedge
        target of a closed version is a key of its iedge and extent
        tables, so the kernel needs no per-edge existence check, and the
        label table answers an absent label with the empty set.  The
        version's closure memo goes last: readers racing to fill it store
        identical values.
        """
        return (
            self.roots,
            self._isucc.__getitem__,
            self._labelled.__getitem__,
            self._extent.__getitem__,
            self._closures,
        )

    def inodes(self) -> Iterator[int]:
        """Iterate over the captured inode ids."""
        return iter(self._isucc)

    def label_of(self, inode: int) -> str:
        """The label shared by the extent of *inode*."""
        self._require(inode)
        return self.graph.label(next(iter(self._extent[inode])))

    def extent(self, inode: int) -> frozenset[int]:
        """The captured extent of *inode*."""
        self._require(inode)
        return self._extent[inode]

    def isucc(self, inode: int) -> Iterator[int]:
        """Captured index successors of *inode*."""
        self._require(inode)
        return iter(self._isucc[inode])

    @property
    def num_inodes(self) -> int:
        """Number of captured inodes."""
        return len(self._isucc)

    def _require(self, inode: int) -> None:
        if inode not in self._isucc:
            raise StructuralIndexError(f"inode {inode} does not exist")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FrozenIndex inodes={self.num_inodes}>"

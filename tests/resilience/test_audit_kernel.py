"""The guard's one pass against the oracles it replaced.

Every check the guard makes is :func:`repro.index.stability.audit_extents`
(a 1-index) or :func:`repro.index.stability.audit_classes` (a family): an
audit slice over whole leaf extents, a batch's touched scope read member
by member, or everything.  The reference is the oracles run in turn over
the same ids (``tests/resilience/check_reference.py``).  Here, for either
kernel,

* every row of the corruption matrices for its structure (planted where
  ``CYCLE_MATRIX`` plants them), and a missed merge, is judged slice for
  slice by the guard (the kernel) and by the oracles in sequence over the
  slice's whole leaf extents: same exception type, same definition, same
  pair, same ``audit_range`` (seeded by ``CHAOS_SEED``);
* every row planted inside the batch's touched region is judged by the
  guard's scoped check and by the oracles over the same scope, at every
  depth: same exception type, definition and pair;
* on the clean streams neither raises;
* the kernel reads each member's own succ and pred segment once, plus one
  probe per adjacency entry, and calls no oracle on a clean slice or a
  clean scope;
* the cut is the one ``1 + in-degree + out-degree`` over the leaf extents
  gives, and ``/health`` shows the same figures.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

from repro.exceptions import InvariantViolationError, StructuralIndexError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily, LeafView
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.index import stability
from repro.index.stability import audit_classes, audit_extents
from repro.resilience import GuardConfig, InvariantGuard, TouchedSet
from repro.resilience import invariants
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.xmark import XMarkConfig
from tests.resilience import check_reference as reference
from tests.resilience.conftest import CHAOS_SEED, edge_call
from tests.resilience.test_local_check import (
    AK_K,
    CYCLE_MATRIX,
    MATRIX,
    SERVED_SLICE,
    STREAMS,
    NoMerge,
    batched,
    outside,
    prepared,
    without_audit,
)

LEVELS = ("basic", "valid", "minimal")

#: every 1-index row of both matrices, and a batch that skipped Figure 3's
#: merge phase (``None``: the state is planted by the maintainer)
ROWS = list(
    dict.fromkeys(
        [corrupt for family, corrupt in MATRIX if family == "one"]
        + [corrupt for family, corrupt, _ in CYCLE_MATRIX if family == "one"]
    )
) + [None]
#: every family row of both matrices; the missed merge is among them
#: (``unmerge_ak_class``: two leaf classes that sign alike)
AK_ROWS = list(
    dict.fromkeys(
        [corrupt for family, corrupt in MATRIX if family == "ak"]
        + [corrupt for family, corrupt, _ in CYCLE_MATRIX if family == "ak"]
    )
)
#: rows a depth oracle sees in a slice before the totals do: above
#: ``basic`` a cycle names Definition 4 where the unscoped check, which
#: states every structural fact first, names none
SEEN_FIRST_BY_DEPTH = {corrupt for family, corrupt, level in CYCLE_MATRIX if level == "basic"}


def leaf_members(structure, token: int):
    """The members of a leaf inode or class, ``None`` once it is gone."""
    if structure.kind == "one":
        return set(structure._extent_arr[token]) if structure.has_inode(token) else None
    return structure.levels[structure.k].extents.get(token)


def reference_cut(graph, structure, cycle, start: int) -> tuple[int, int]:
    """Where a slice from ``cycle[start]`` ends, and its visits: whole
    leaf extents, ``1 + in-degree + out-degree`` per live member, until
    the visits reach the constant."""
    end, visits = start, 0
    while end < len(cycle) and visits < invariants.AUDIT_SLICE_VISITS:
        for w in leaf_members(structure, cycle[end]) or ():
            if graph.has_node(w):
                visits += 1 + graph.in_degree(w) + graph.out_degree(w)
        end += 1
    return end, visits


def oracle_verdict(level: str, graph, structure, ids, totals: bool):
    """The oracles in sequence over the whole leaf extents of *ids*, as the
    slice ran them before the one pass; the exception, or ``None``."""
    dnodes: set[int] = set()
    for token in ids:
        dnodes.update(leaf_members(structure, token) or ())
    try:
        try:
            reference.graph_facts(graph, dnodes)
            if structure.kind == "one":
                reference.index_facts(structure, dnodes, ids)
                classed, size = structure._inode_of.get, structure.extent_size
            else:
                reference.family_facts(structure, dnodes, [(structure.k, token) for token in ids])
                classed = structure.levels[structure.k].class_of.get
                size = lambda token: len(structure.levels[structure.k].extents[token])  # noqa: E731
            # each extent examined slot for slot: none lists a stranger
            own = Counter(classed(w) for w in dnodes if graph.has_node(w))
            for token in ids:
                if leaf_members(structure, token):
                    assert own[token] == size(token), (
                        f"extent of inode {token} holds a dnode that is not its own"
                    )
            if level != "basic":
                depth = reference.depth_violations(structure, level == "minimal", dnodes, ids)
                for violation in depth:
                    raise InvariantViolationError(*violation)
            if totals:
                graph.check_totals()
                structure.check_totals()
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(f"structural: {exc}") from exc
    except InvariantViolationError as exc:
        return exc
    return None


def assert_same_verdict(kernel, oracles) -> None:
    assert type(kernel) is type(oracles), (kernel, oracles)
    if kernel is not None:
        assert kernel.definition == oracles.definition, (kernel, oracles)
        assert kernel.pair == oracles.pair, (kernel, oracles)


def both_ways(level: str, graph, structure):
    """One audit cycle through the guard, each slice also judged by the
    oracles over the same ids; the kernel's exception (the first slice that
    raises ends the cycle) or ``None``, and the slices it took."""
    guard = InvariantGuard(level=level)
    slices = 0
    while True:
        start = guard._cycle_done
        cycle = guard._cycle if start else sorted(structure.leaf().inodes())
        end, visits = reference_cut(graph, structure, cycle, start)
        ids = cycle[start:end]
        expected = oracle_verdict(level, graph, structure, ids, end == len(cycle))
        cursor = guard.audit_cursor
        slices += 1
        try:
            guard.check(graph, structure, TouchedSet())
        except InvariantViolationError as exc:
            assert_same_verdict(exc, expected)
            assert exc.audit_range == (cursor, ids[-1])
            return exc, slices
        assert_same_verdict(None, expected)
        assert guard.last_audit_visited == visits
        if guard.audits:
            assert end == len(cycle) and guard.audit_cursor == 0
            return None, slices
        assert guard.audit_cursor == cycle[end]


def one_cycle_finds_what_the_full_check_finds(
    level: str, graph, structure, definition: bool = True
) -> None:
    """... of the same type and, with *definition*, naming the same one —
    the unscoped oracles called in turn."""
    expected = reference.verdict(level, graph, structure)
    found, _ = both_ways(level, graph, structure)
    assert type(found) is type(expected), (found, expected)
    if found is not None and definition:
        assert found.definition == expected.definition


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize(
    "corrupt", ROWS, ids=[getattr(c, "__name__", "missed_merge") for c in ROWS]
)
def test_the_kernel_and_the_oracles_agree_slice_for_slice(corrupt, level):
    if corrupt is None:
        graph, maintainer, touched = batched(
            "one", lambda _, graph: NoMerge(OneIndex.build(graph)), pairs=32
        )
    else:
        graph, maintainer, touched = batched("one")
    index = maintainer.index
    if corrupt is not None:  # (a missed merge is there from the start)
        clean, slices = both_ways(level, graph, index)
        assert clean is None and slices >= 4
        corrupt(graph, maintainer, outside(graph, maintainer, touched))  # as CYCLE_MATRIX
    # ... and one cycle of them finds what the unscoped check finds
    one_cycle_finds_what_the_full_check_finds(level, graph, index)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("corrupt", AK_ROWS, ids=[c.__name__ for c in AK_ROWS])
def test_the_family_kernel_and_the_oracles_agree_slice_for_slice(corrupt, level):
    graph, maintainer, touched = batched("ak")
    family = maintainer.family
    assert family.k == AK_K
    clean, slices = both_ways(level, graph, family)
    assert clean is None and slices >= 4
    corrupt(graph, maintainer, outside(graph, maintainer, touched))  # as CYCLE_MATRIX
    one_cycle_finds_what_the_full_check_finds(
        level, graph, family, definition=level == "basic" or corrupt not in SEEN_FIRST_BY_DEPTH
    )


@pytest.mark.parametrize("level", ["valid", "minimal"])
@pytest.mark.parametrize("below", range(AK_K), ids=lambda i: f"at{i}")
def test_a_class_below_the_leaf_is_signed_by_the_oracles_representative(below, level):
    """A slice of one leaf class, which holds the first member of a class
    ``below`` the leaf level but not all of it: the slice's members agree,
    and only the member the oracle signs the class by from outside the
    slice is made to sign otherwise — a label of its own at level 0, one
    more parent above it."""
    graph, maintainer, _ = batched("ak")
    family = maintainer.family
    leaf, inner = family.levels[AK_K], family.levels[below]
    slice_token, representative = next(
        (token, rep)
        for members in inner.extents.values()
        for token in [leaf.class_of[next(iter(members))]]
        for rep in [next((w for w in members if w not in leaf.extents[token]), None)]
        if rep is not None and rep != graph.root
    )
    if below:
        coarser = family.levels[below - 1].class_of
        parents = {coarser[p] for p in graph.iter_pred(representative)}
        source = min(
            v for v in graph.nodes() if coarser[v] not in parents and v != representative
        )
        graph.add_edge(source, representative, EdgeKind.IDREF)
    else:
        graph.relabel_node(representative, "relabelled")
    ids = [slice_token]
    audit = audit_classes(family, ids, 0, 1 << 30, stable=True, minimal=level == "minimal")
    expected = oracle_verdict(level, graph, family, ids, totals=False)
    assert audit.broken is None and expected is not None and expected.definition == 4
    assert [violation[1:] for violation in audit.violations] == [(4, expected.pair)]


#: every row of both matrices with its structure, and a batch that skipped
#: Figure 3's merge phase (``None``)
SCOPED_ROWS = list(
    dict.fromkeys(MATRIX + [(family, corrupt) for family, corrupt, _ in CYCLE_MATRIX])
) + [("one", None)]


def scoped_both_ways(level: str, graph, structure, touched):
    """The guard's scoped check alone, and the oracles over the same scope:
    the same verdict; the guard's exception or ``None``."""
    expected = reference.verdict(level, graph, structure, *reference.scope(graph, touched))
    guard = InvariantGuard(level=level)
    try:
        guard.check(graph, structure, touched)
    except InvariantViolationError as exc:
        assert_same_verdict(exc, expected)
        return exc
    assert_same_verdict(None, expected)
    assert guard.checks_local == 1
    return None


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize(
    "family,corrupt",
    SCOPED_ROWS,
    ids=[f"{f}-{getattr(c, '__name__', 'missed_merge')}" for f, c in SCOPED_ROWS],
)
def test_the_scoped_check_and_the_oracles_agree_over_the_touched_scope(
    family, corrupt, level, monkeypatch
):
    """Each row planted inside the batch's touched region (where it finds
    a place there), judged by the guard's scoped check and by the oracles
    over the same scope: same exception type, definition and pair."""
    without_audit(monkeypatch)
    if corrupt is None:
        graph, maintainer, touched = batched(
            family, lambda _, graph: NoMerge(OneIndex.build(graph)), pairs=32
        )
    else:
        graph, maintainer, touched = batched(family)
    structure = maintainer.structure
    if corrupt is not None:
        assert scoped_both_ways(level, graph, structure, touched) is None
        corrupt(graph, maintainer, touched)
    scoped_both_ways(level, graph, structure, touched)


def judge_every_slice(family: str, stream: str, monkeypatch) -> None:
    """The streams of ``test_no_slice_raises_on_a_clean_stream``: before
    every slice the oracles judge the ids it is about to take."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", 900)
    monkeypatch.setattr(IndexService, "check", lambda self: None)
    judged = []
    real_slice = InvariantGuard._audit_slice

    def judged_slice(self, graph, structure):
        start = self._cycle_done
        cycle = self._cycle if start else sorted(structure.leaf().inodes())
        end, visits = reference_cut(graph, structure, cycle, start)
        ids = cycle[start:end]
        assert oracle_verdict(self.level, graph, structure, ids, end == len(cycle)) is None
        real_slice(self, graph, structure)
        assert self.last_audit_visited == visits
        judged.append(len(ids))

    monkeypatch.setattr(InvariantGuard, "_audit_slice", judged_slice)
    _, structure, guard, _ = STREAMS[stream](family)
    assert structure.kind == family
    assert guard.audits >= 1 and len(judged) > guard.audits


@pytest.mark.parametrize("stream", STREAMS)
def test_neither_the_kernel_nor_the_oracles_raise_on_a_clean_stream(stream, monkeypatch):
    judge_every_slice("one", stream, monkeypatch)


@pytest.mark.parametrize("stream", STREAMS)
def test_neither_the_family_kernel_nor_the_oracles_raise_on_a_clean_stream(
    stream, monkeypatch
):
    judge_every_slice("ak", stream, monkeypatch)


# ----------------------------------------------------------------------
# Each member's adjacency read once
# ----------------------------------------------------------------------


class CountedPages(dict):
    """A paged map's page directory that counts lookups."""

    def __init__(self, pages, tally: Counter, name: str):
        super().__init__(pages)
        self.tally, self.name = tally, name

    def get(self, key, default=None):
        self.tally[self.name] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.tally[self.name] += 1
        return super().__getitem__(key)


class CountedSlab(array):
    """A slab's data array that counts segment reads and membership probes,
    and logs where each segment starts."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.tally[f"{self.name} segments"] += 1
            if key.stop > key.start:
                self.starts[key.start] += 1
        return super().__getitem__(key)

    def index(self, *args):
        self.tally[f"{self.name} probes"] += 1
        return super().index(*args)


class CountedOverlay(dict):
    def __contains__(self, key):
        self.tally[f"{self.name} probes"] += 1
        return super().__contains__(key)


def counted(graph, index, tally: Counter) -> dict[str, Counter]:
    """Route every table the kernel reads through a counter; returns, per
    slab, how often the segment starting at each offset was read."""
    maps = [(graph._slot_of, "slot")]
    if index.kind == "one":
        maps += [(index._inode_of, "inode"), (index._pos_of, "pos")]
    for owner, name in maps:
        owner._pages = CountedPages(owner._pages, tally, name)
    starts = {}
    for slabs, name in ((graph._succ_slabs, "succ"), (graph._pred_slabs, "pred")):
        data = CountedSlab("q", slabs._data)
        data.tally, data.name = tally, name
        data.starts = starts[name] = Counter()
        slabs._data = data
        for slot, overlay in list(slabs._overlay.items()):
            wrapped = CountedOverlay(overlay)
            wrapped.tally, wrapped.name = tally, name
            slabs._overlay[slot] = wrapped
    return starts


def never_called(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a clean slice called {name}")

    return refuse


def segment_owners(graph) -> dict[str, dict[int, int]]:
    """Per slab, the dnode whose non-empty segment starts at each offset."""
    slot_of = graph._slot_of
    return {
        name: {slabs._off[slot_of[w]]: w for w in graph.nodes() if slabs._len[slot_of[w]]}
        for slabs, name in ((graph._succ_slabs, "succ"), (graph._pred_slabs, "pred"))
    }


def segments_read(starts, owner) -> dict[str, Counter]:
    return {
        name: Counter({owner[name][offset]: times for offset, times in counts.items()})
        for name, counts in starts.items()
    }


def assert_a_scope_reads_each_member_once(graph, structure, touched, tally, starts, owner):
    """The kernel over a clean batch's touched scope: each live scoped
    member's own succ and pred segment read once, its visits counted."""
    dnodes, inodes, tokens = reference.scope(graph, touched)
    live = [w for w in dnodes if graph.has_node(w)]
    kernel, ids = audit_extents, sorted(inodes)
    if structure.kind == "ak":
        kernel, ids = audit_classes, sorted(tokens)
    tally.clear()
    for counts in starts.values():
        counts.clear()
    audit = kernel(structure, ids, 0, None, True, True, dnodes=dnodes)
    assert (audit.broken, audit.violations) == (None, ())
    assert audit.visits == sum(1 + graph.in_degree(w) + graph.out_degree(w) for w in live)
    read = segments_read(starts, owner)
    assert tally["succ segments"] == len(live)
    assert {w: read["succ"][w] for w in live if graph.out_degree(w)} == {
        w: 1 for w in live if graph.out_degree(w)
    }
    # (a representative outside the scope has its pred segment read too)
    assert {w: read["pred"][w] for w in live if graph.in_degree(w)} == {
        w: 1 for w in live if graph.in_degree(w)
    }


@pytest.mark.parametrize("config", [None, XMarkConfig()], ids=["chaos", "xmark1"])
def test_one_slice_reads_each_member_once_and_calls_no_oracle(config, monkeypatch):
    graph, maintainer, touched = batched("one") if config is None else batched("one", config=config)
    index = maintainer.index
    with monkeypatch.context() as patch:
        for name in ("extent", "dnode_iparents", "check_invariants"):
            patch.setattr(StructuralIndex, name, never_called(name))
        patch.setattr(DataGraph, "iter_pred", never_called("iter_pred"))
        patch.setattr(DataGraph, "check_invariants", never_called("check_invariants"))
        patch.setattr(stability, "unstable_pairs", never_called("unstable_pairs"))
        guard = InvariantGuard(level="minimal")
        guard.check(graph, index, touched)  # the scoped check, then a slice
        while not guard.audits:  # a whole cycle through the guard, no oracle asked
            guard._audit_slice(graph, index)

    cycle = sorted(index.inodes())
    start = len(cycle) // 3
    end, visits = reference_cut(graph, index, cycle, start)
    members = [w for inode in cycle[start:end] for w in index._extent_arr[inode]]
    in_entries = sum(graph.in_degree(w) for w in members)
    out_entries = sum(graph.out_degree(w) for w in members)
    owner = segment_owners(graph)
    tally: Counter = Counter()
    starts = counted(graph, index, tally)
    audit = audit_extents(index, cycle, start, invariants.AUDIT_SLICE_VISITS, True, False)
    assert (audit.end, audit.visits, audit.broken, audit.violations) == (end, visits, None, ())
    assert visits == len(members) + in_entries + out_entries
    assert tally == {
        # a member's own segments, once each
        "succ segments": len(members),
        "pred segments": len(members),
        # one probe of the other mirror per adjacency entry
        "succ probes": in_entries,
        "pred probes": out_entries,
        # the member's slot, then each neighbour's, and the root's
        "slot": visits + 1,
        # the member's inode and position, then each parent's inode
        "inode": len(members) + in_entries,
        "pos": len(members),
    }
    assert_a_scope_reads_each_member_once(graph, index, touched, tally, starts, owner)


@pytest.mark.parametrize("config", [None, XMarkConfig()], ids=["chaos", "xmark1"])
def test_a_family_slice_reads_each_member_once_and_calls_no_oracle(config, monkeypatch):
    graph, maintainer, touched = batched("ak") if config is None else batched("ak", config=config)
    family = maintainer.family
    with monkeypatch.context() as patch:
        for name in ("check_invariants", "signature_violations", "extent_at", "class_at"):
            patch.setattr(AkIndexFamily, name, never_called(name))
        patch.setattr(LeafView, "extent", never_called("extent"))
        patch.setattr(DataGraph, "iter_pred", never_called("iter_pred"))
        patch.setattr(DataGraph, "check_invariants", never_called("check_invariants"))
        guard = InvariantGuard(level="minimal")
        guard.check(graph, family, touched)  # the scoped check, then a slice
        while not guard.audits:  # a whole cycle through the guard, no oracle asked
            guard._audit_slice(graph, family)

    leaf = family.levels[family.k]
    cycle = sorted(leaf.extents)
    start = len(cycle) // 3
    end, visits = reference_cut(graph, family, cycle, start)
    members = [w for token in cycle[start:end] for w in leaf.extents[token]]
    in_entries = sum(graph.in_degree(w) for w in members)
    out_entries = sum(graph.out_degree(w) for w in members)
    assert visits == len(members) + in_entries + out_entries
    with_succ = {w: 1 for w in members if graph.out_degree(w)}
    with_pred = {w: 1 for w in members if graph.in_degree(w)}
    level_0 = {family.levels[0].class_of[w] for w in members}
    owner = segment_owners(graph)
    tally: Counter = Counter()
    starts = counted(graph, family, tally)
    for stable, minimal in ((False, False), (True, False), (True, True)):
        tally.clear()
        for counts in starts.values():
            counts.clear()
        audit = audit_classes(family, cycle, start, invariants.AUDIT_SLICE_VISITS, stable, minimal)
        assert (audit.end, audit.visits, audit.broken, audit.violations) == (end, visits, None, ())
        read = segments_read(starts, owner)
        # a member's own segments, once each; no other dnode's succ segment
        assert tally["succ segments"] == len(members) and read["succ"] == with_succ
        assert {w: read["pred"][w] for w in with_pred} == with_pred
        # ... one probe of the other mirror per adjacency entry
        assert (tally["succ probes"], tally["pred probes"]) == (in_entries, out_entries)
        if not stable:  # (a signature also reads its representative's parents)
            assert tally["pred segments"] == len(members)
            # the member's slot, then each neighbour's, the root's and the
            # first member's of each level-0 class the slice reaches
            assert tally["slot"] == visits + 1 + len(level_0)
    assert_a_scope_reads_each_member_once(graph, family, touched, tally, starts, owner)


# ----------------------------------------------------------------------
# The cut
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "budget,config", [(1024, None), (SERVED_SLICE, XMarkConfig())], ids=["tier1", "served"]
)
def test_the_slice_cut_is_the_degree_sum_over_whole_extents(budget, config, monkeypatch):
    assert_the_cut_is_the_reference_cut("one", budget, config, monkeypatch)


@pytest.mark.parametrize(
    "budget,config", [(1024, None), (SERVED_SLICE, XMarkConfig())], ids=["tier1", "served"]
)
def test_a_family_slice_cut_is_the_degree_sum_over_whole_leaf_classes(
    budget, config, monkeypatch
):
    assert_the_cut_is_the_reference_cut("ak", budget, config, monkeypatch)


def assert_the_cut_is_the_reference_cut(family: str, budget: int, config, monkeypatch) -> None:
    """A seeded 16-op IDREF stream: after every commit the cursor and the
    slice's visits are the reference cut's, and ``/health`` states the
    cycle's largest slice and its length in commits as the reference does."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", budget)
    graph, workload = prepared(17 + CHAOS_SEED) if config is None else prepared(17, config)
    guarded = GuardConfig(policy="raise")
    service = IndexService(
        graph,
        ServiceConfig(guard=guarded)
        if family == "one"
        else ServiceConfig(family=family, k=AK_K, guard=guarded),
    )
    index = service.structure
    assert index.kind == family
    steps = workload.steps(1 << 20, validate=False)
    cycle, start, largest, completed = [], 0, 0, 0
    trail, expected = [], []
    for _ in range(24 if config is None else 14):
        for _ in range(16):
            service.submit(Update(*edge_call(next(steps))))
        service.flush()
        if not start:
            cycle = sorted(index.leaf().inodes())
        end, visits = reference_cut(graph, index, cycle, start)
        largest = max(largest, visits)
        if end == len(cycle):
            completed, start, largest = largest, 0, 0
        else:
            start = end
        guard = service.guarded.invariants
        trail.append((guard.audit_cursor, guard.last_audit_visited))
        expected.append((cycle[start] if start else 0, visits))
        health = service.health()
        assert health["audit_slice_max_visited"] == completed
        assert health["commits_per_full_audit"] == -(
            -(graph.num_nodes + 2 * graph.num_edges) // budget
        )
    assert trail == expected
    assert completed > 0 and service.guarded.invariants.audits >= 1
    service.close()

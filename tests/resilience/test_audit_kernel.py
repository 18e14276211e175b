"""The 1-index audit slice's one pass against the oracles it replaces.

A 1-index slice is :func:`repro.index.stability.audit_extents`: one walk
over the slice's extents that states what :meth:`DataGraph.check_invariants`,
:meth:`StructuralIndex.check_invariants` over whole extents and
:func:`depth_violations` state of the same ids.  Here

* every 1-index row of the corruption matrices (planted where
  ``CYCLE_MATRIX`` plants them), and a missed merge, is judged slice for
  slice by the guard (the kernel) and by the three oracles run in
  sequence over the slice's whole extents: same exception type, same
  definition, same pair (seeded by ``CHAOS_SEED``);
* on the clean streams neither raises;
* the kernel reads each member's own succ and pred segment once, plus one
  probe per adjacency entry, and calls no oracle on a clean slice;
* the cut is the one ``1 + in-degree + out-degree`` over the extents
  gives, and ``/health`` shows the same figures.
"""

from __future__ import annotations

from array import array
from collections import Counter

import pytest

from repro.exceptions import InvariantViolationError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.index import stability
from repro.index.stability import audit_extents, depth_violations
from repro.resilience import GuardConfig, InvariantGuard, TouchedSet
from repro.resilience import invariants
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.xmark import XMarkConfig
from tests.resilience.conftest import CHAOS_SEED, edge_call
from tests.resilience.test_local_check import (
    CYCLE_MATRIX,
    MATRIX,
    SERVED_SLICE,
    STREAMS,
    NoMerge,
    batched,
    outside,
    prepared,
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


def reference_cut(graph, index, cycle, start: int) -> tuple[int, int]:
    """Where a slice from ``cycle[start]`` ends, and its visits: whole
    extents, ``1 + in-degree + out-degree`` per live member, until the
    visits reach the constant."""
    end, visits = start, 0
    while end < len(cycle) and visits < invariants.AUDIT_SLICE_VISITS:
        if index.has_inode(cycle[end]):
            for w in set(index._extent_arr[cycle[end]]):
                if graph.has_node(w):
                    visits += 1 + graph.in_degree(w) + graph.out_degree(w)
        end += 1
    return end, visits


def oracle_verdict(level: str, graph, index, ids, totals: bool):
    """The three oracles in sequence over the whole extents of *ids*, as the
    slice ran them before the one pass; the exception, or ``None``."""
    dnodes: set[int] = set()
    for inode in ids:
        if index.has_inode(inode):
            dnodes.update(index.extent(inode))
    try:
        try:
            graph.check_invariants(dnodes)
            index.check_invariants(dnodes=dnodes, inodes=ids)
            for inode in ids:  # each extent examined slot for slot: none lists a stranger
                if index.has_inode(inode):
                    own = sum(
                        1 for w in dnodes
                        if graph.has_node(w) and index._inode_of.get(w) == inode
                    )
                    assert own == index.extent_size(inode), (
                        f"extent of inode {inode} holds a dnode that is not its own"
                    )
            if level != "basic":
                for violation in depth_violations(index, level == "minimal", dnodes, ids):
                    raise InvariantViolationError(*violation)
            if totals:
                graph.check_totals()
                index.check_totals()
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(f"structural: {exc}") from exc
    except InvariantViolationError as exc:
        return exc
    return None


def assert_same_verdict(kernel, oracles) -> None:
    assert type(kernel) is type(oracles), (kernel, oracles)
    if kernel is not None:
        assert kernel.definition == oracles.definition, (kernel, oracles)
        if kernel.definition in (1, 5):
            assert kernel.pair == oracles.pair, (kernel, oracles)


def both_ways(level: str, graph, index):
    """One audit cycle through the guard, each slice also judged by the
    oracles over the same ids; the kernel's exception (the first slice that
    raises ends the cycle) or ``None``, and the slices it took."""
    guard = InvariantGuard(level=level)
    slices = 0
    while True:
        start = guard._cycle_done
        cycle = guard._cycle if start else sorted(index.inodes())
        end, visits = reference_cut(graph, index, cycle, start)
        ids = cycle[start:end]
        expected = oracle_verdict(level, graph, index, ids, end == len(cycle))
        cursor = guard.audit_cursor
        slices += 1
        try:
            guard.check(graph, index, TouchedSet())
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
    full = InvariantGuard(level=level)
    try:
        full.check(graph, index)
        expected = None
    except InvariantViolationError as exc:
        expected = exc
    found, _ = both_ways(level, graph, index)
    # ... and one cycle of them finds what the unscoped check finds
    assert type(found) is type(expected), (found, expected)
    if found is not None:
        assert found.definition == expected.definition


@pytest.mark.parametrize("stream", STREAMS)
def test_neither_the_kernel_nor_the_oracles_raise_on_a_clean_stream(stream, monkeypatch):
    """The streams of ``test_no_slice_raises_on_a_clean_stream`` (1-index):
    before every slice the oracles judge the ids it is about to take."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", 900)
    monkeypatch.setattr(IndexService, "check", lambda self: None)
    judged = []
    real_slice = InvariantGuard._audit_slice

    def judged_slice(self, graph, structure):
        start = self._cycle_done
        cycle = self._cycle if start else sorted(structure.inodes())
        end, visits = reference_cut(graph, structure, cycle, start)
        ids = cycle[start:end]
        assert oracle_verdict(self.level, graph, structure, ids, end == len(cycle)) is None
        real_slice(self, graph, structure)
        assert self.last_audit_visited == visits
        judged.append(len(ids))

    monkeypatch.setattr(InvariantGuard, "_audit_slice", judged_slice)
    _, _, guard, _ = STREAMS[stream]("one")
    assert guard.audits >= 1 and len(judged) > guard.audits


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
    """A slab's data array that counts segment reads and membership probes."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.tally[f"{self.name} segments"] += 1
        return super().__getitem__(key)

    def index(self, *args):
        self.tally[f"{self.name} probes"] += 1
        return super().index(*args)


class CountedOverlay(dict):
    def __contains__(self, key):
        self.tally[f"{self.name} probes"] += 1
        return super().__contains__(key)


def counted(graph, index, tally: Counter) -> None:
    """Route every table the kernel reads through a counter."""
    maps = ((graph._slot_of, "slot"), (index._inode_of, "inode"), (index._pos_of, "pos"))
    for owner, name in maps:
        owner._pages = CountedPages(owner._pages, tally, name)
    for slabs, name in ((graph._succ_slabs, "succ"), (graph._pred_slabs, "pred")):
        data = CountedSlab("q", slabs._data)
        data.tally, data.name = tally, name
        slabs._data = data
        for slot, overlay in list(slabs._overlay.items()):
            wrapped = CountedOverlay(overlay)
            wrapped.tally, wrapped.name = tally, name
            slabs._overlay[slot] = wrapped


def never_called(name: str):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a clean 1-index slice called {name}")

    return refuse


@pytest.mark.parametrize("config", [None, XMarkConfig()], ids=["chaos", "xmark1"])
def test_one_slice_reads_each_member_once_and_calls_no_oracle(config, monkeypatch):
    graph, maintainer, _ = batched("one") if config is None else batched("one", config=config)
    index = maintainer.index
    with monkeypatch.context() as patch:
        for name in ("extent", "dnode_iparents", "check_invariants"):
            patch.setattr(StructuralIndex, name, never_called(name))
        patch.setattr(DataGraph, "iter_pred", never_called("iter_pred"))
        patch.setattr(stability, "unstable_pairs", never_called("unstable_pairs"))
        patch.setattr(invariants, "_visits", never_called("_visits"))
        patch.setattr(invariants, "depth_violations", never_called("depth_violations"))
        guard = InvariantGuard(level="minimal")
        while not guard.audits:  # a whole cycle through the guard, no oracle asked
            guard._audit_slice(graph, index)

    cycle = sorted(index.inodes())
    start = len(cycle) // 3
    end, visits = reference_cut(graph, index, cycle, start)
    members = [w for inode in cycle[start:end] for w in index._extent_arr[inode]]
    in_entries = sum(graph.in_degree(w) for w in members)
    out_entries = sum(graph.out_degree(w) for w in members)
    tally: Counter = Counter()
    counted(graph, index, tally)
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


# ----------------------------------------------------------------------
# The cut
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "budget,config", [(1024, None), (SERVED_SLICE, XMarkConfig())], ids=["tier1", "served"]
)
def test_the_slice_cut_is_the_degree_sum_over_whole_extents(budget, config, monkeypatch):
    """A seeded 16-op IDREF stream: after every commit the cursor and the
    slice's visits are the reference cut's, and ``/health`` states the
    cycle's largest slice and its length in commits as the reference does."""
    monkeypatch.setattr(invariants, "AUDIT_SLICE_VISITS", budget)
    graph, workload = prepared(17 + CHAOS_SEED) if config is None else prepared(17, config)
    service = IndexService(graph, ServiceConfig(guard=GuardConfig(policy="raise")))
    index = service.structure
    steps = workload.steps(1 << 20, validate=False)
    cycle, start, largest, completed = [], 0, 0, 0
    trail, expected = [], []
    for _ in range(24 if config is None else 14):
        for _ in range(16):
            service.submit(Update(*edge_call(next(steps))))
        service.flush()
        if not start:
            cycle = sorted(index.inodes())
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

"""Chaos acceptance tests.

Two claims from the issue are proven here:

1. **Byte-identical rollback** — for *every* public mutation method of
   both maintainer families, a fault injected at *every* journal-record
   position (capped to a deterministic spread for very long journals)
   leaves the graph and the index serialising to exactly the bytes they
   had before the call.
2. **Graceful degradation** — under periodic injected faults, the
   ``degrade`` policy completes a 200-pair mixed workload and ends with a
   valid, minimal index of exactly the size a from-scratch rebuild
   produces.

``CHAOS_SEED`` (env) shifts workload seeds and fault positions so the CI
matrix explores different trajectories.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InjectedFaultError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_from_dict
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.index.stability import is_minimal_1index, is_valid_1index
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.resilience import (
    FaultInjector,
    GuardConfig,
    GuardedMaintainer,
    TouchedSet,
    Transaction,
)
from repro.workload.updates import MixedUpdateWorkload, extract_subgraphs, remove_subgraph_raw
from repro.workload.xmark import generate_xmark
from tests.resilience.conftest import (
    CHAOS_SEED,
    CHAOS_XMARK,
    CHAOS_XMARK_ACYCLIC,
    edge_call,
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)

METHODS = (
    "insert_edge",
    "delete_edge",
    "insert_node",
    "delete_node",
    "add_subgraph",
    "delete_subgraph",
)

#: at most this many fault positions are swept per method (deterministic
#: spread over the full journal when it is longer)
MAX_FAULT_POINTS = 24

AK_K = 2


def _pick_idref_edge(graph: DataGraph, salt: int) -> tuple[int, int]:
    # an edge from a label no other parent of its target carries: adding
    # or removing it changes the target's class in both families, so the
    # operation is never the trivial case that journals the graph only
    edges = sorted(
        (source, target)
        for source, target in graph.edges_of_kind(EdgeKind.IDREF)
        if all(
            graph.label(p) != graph.label(source)
            for p in graph.iter_pred(target)
            if p != source
        )
    )
    assert edges, "chaos dataset must have IDREF edges"
    return edges[(CHAOS_SEED + salt) % len(edges)]


def _pick_busy_node(graph: DataGraph, salt: int) -> int:
    # a node with parents and children, so delete_node journals plenty
    busy = sorted(
        o
        for o in graph.nodes()
        if o != graph.root and graph.in_degree(o) > 0 and any(True for _ in graph.iter_succ(o))
    )
    return busy[(CHAOS_SEED + salt) % len(busy)]


def make_setup(kind: str, method: str, chaos_graph_dict: dict):
    """Build a fresh graph + index + a thunk applying *method* once.

    Deterministic: the same (kind, method, CHAOS_SEED) always yields the
    same starting state and the same operation, so every fault position
    replays the identical journal prefix.
    """
    graph = graph_from_dict(chaos_graph_dict)
    salt = METHODS.index(method)
    args: tuple
    if method == "insert_edge":
        source, target = _pick_idref_edge(graph, salt)
        graph.remove_edge(source, target)  # re-inserted by the operation
        args = (source, target, EdgeKind.IDREF)
    elif method == "delete_edge":
        args = _pick_idref_edge(graph, salt)
    elif method == "insert_node":
        parents = sorted(graph.nodes_with_label("person"))
        args = (parents[(CHAOS_SEED + salt) % len(parents)], "person")
    elif method == "delete_node":
        args = (_pick_busy_node(graph, salt),)
    elif method in ("add_subgraph", "delete_subgraph"):
        items = extract_subgraphs(graph, "open_auction", 3, seed=CHAOS_SEED + 17)
        item = items[(CHAOS_SEED + salt) % len(items)]
        if method == "add_subgraph":
            remove_subgraph_raw(graph, item)  # re-added by the operation
            args = (item.subgraph, item.root, item.cross_edges)
        else:
            args = (item.root,)
    else:  # pragma: no cover - typo guard
        raise AssertionError(method)

    if kind == "one":
        index = OneIndex.build(graph)
        maintainer = SplitMergeMaintainer(index)
        structure = index
        fingerprints = lambda: (graph_fingerprint(graph), index_fingerprint(index))
    else:
        family = AkIndexFamily.build(graph, AK_K)
        maintainer = AkSplitMergeMaintainer(family)
        structure = family
        fingerprints = lambda: (graph_fingerprint(graph), family_fingerprint(family))

    thunk = lambda: getattr(maintainer, method)(*args)
    return graph, structure, thunk, fingerprints


def _journal_length(kind: str, method: str, chaos_graph_dict: dict) -> int:
    """How many records one application of *method* journals."""
    graph, structure, thunk, fingerprints = make_setup(kind, method, chaos_graph_dict)
    before = fingerprints()
    txn = Transaction(graph, structure).begin()
    thunk()
    length = len(txn.journal)
    # the index's or family's own records are in the sweep: a fault
    # position can cut a split/merge cascade or a level refresh
    assert length > sum(target is graph for target, _, _ in txn.journal.records)
    txn.rollback()
    assert fingerprints() == before  # the no-fault rollback is exact too
    return length


def _fault_positions(length: int) -> list[int]:
    if length <= MAX_FAULT_POINTS:
        return list(range(1, length + 1))
    rng = random.Random(CHAOS_SEED)
    middle = rng.sample(range(2, length), MAX_FAULT_POINTS - 2)
    return sorted({1, length, *middle})


@pytest.mark.parametrize("kind", ("one", "ak"))
@pytest.mark.parametrize("method", METHODS)
def test_rollback_is_byte_identical_at_every_fault_point(
    kind, method, chaos_graph_dict
):
    length = _journal_length(kind, method, chaos_graph_dict)
    assert length > 0, f"{kind}.{method} journaled nothing"
    for position in _fault_positions(length):
        graph, structure, thunk, fingerprints = make_setup(
            kind, method, chaos_graph_dict
        )
        before = fingerprints()
        injector = FaultInjector(at_record=position)
        txn = Transaction(graph, structure, on_record=injector).begin()
        with pytest.raises(InjectedFaultError):
            thunk()
        txn.rollback()
        assert injector.fired == 1
        assert fingerprints() == before, (
            f"{kind}.{method}: fault at record {position}/{length} "
            f"did not roll back to the pre-call state"
        )


@settings(max_examples=10, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    kind=st.sampled_from(("one", "ak")),
    fault_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_rollback_property_random_fault_points(
    method, kind, fault_fraction, chaos_graph_dict
):
    """Any fault position in [1, journal length] rolls back exactly."""
    length = _journal_length(kind, method, chaos_graph_dict)
    position = 1 + round(fault_fraction * (length - 1))
    graph, structure, thunk, fingerprints = make_setup(kind, method, chaos_graph_dict)
    before = fingerprints()
    txn = Transaction(
        graph, structure, on_record=FaultInjector(at_record=position)
    ).begin()
    with pytest.raises(InjectedFaultError):
        thunk()
    txn.rollback()
    assert fingerprints() == before


def tracked(guard: GuardedMaintainer) -> TouchedSet:
    """Scope the guard's post-checks the way a service does (clear it per commit)."""
    touched = TouchedSet()
    guard.track_touched(touched)
    return touched


class TestGracefulDegradation:
    def test_degrade_completes_200_pair_workload(self):
        # acceptance: acyclic XMark (minimal == minimum there, so the
        # size comparison against a from-scratch rebuild is exact)
        graph = generate_xmark(CHAOS_XMARK_ACYCLIC).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=71 + CHAOS_SEED)
        index = OneIndex.build(graph)
        guard = GuardedMaintainer(
            SplitMergeMaintainer(index),
            GuardConfig(policy="degrade", check_level="valid"),
            FaultInjector(at_record=53 + CHAOS_SEED, rearm=True),
        )
        touched = tracked(guard)
        applied = 0
        for step in workload.steps(200, validate=True):
            guard.apply_batch([edge_call(step)])
            touched.clear()
            applied += 1
        assert applied == 400
        assert guard.stats.faults > 0, "the injector never fired"
        assert guard.stats.degradations > 0
        assert guard.stats.commits + guard.stats.raw_fallbacks >= applied
        assert is_valid_1index(index)
        assert is_minimal_1index(index)
        rebuilt = OneIndex.build(graph)
        assert index.num_inodes == rebuilt.num_inodes

    def test_degrade_keeps_ak_family_at_the_minimum(self):
        graph = generate_xmark(CHAOS_XMARK).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=23 + CHAOS_SEED)
        family = AkIndexFamily.build(graph, AK_K)
        guard = GuardedMaintainer(
            AkSplitMergeMaintainer(family),
            GuardConfig(policy="degrade", check_level="minimal"),
            FaultInjector(at_record=31 + CHAOS_SEED, rearm=True),
        )
        touched = tracked(guard)
        applied = 0
        for step in workload.steps(60, validate=True):
            guard.apply_batch([edge_call(step)])
            touched.clear()
            applied += 1
        assert applied == 120
        assert guard.stats.faults > 0
        family.check_invariants()
        assert family.is_minimum()
        fresh = AkIndexFamily.build(graph, AK_K)
        assert family.num_inodes(AK_K) == fresh.num_inodes(AK_K)

    def test_retry_policy_survives_transient_faults(self):
        # a one-shot injector re-armed every 40 records by hand: each
        # fault is transient, so under ``raise`` resubmitting the batch
        # the guard handed back keeps the workload going
        graph = generate_xmark(CHAOS_XMARK).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=5 + CHAOS_SEED)
        index = OneIndex.build(graph)
        injector = FaultInjector(at_record=40)
        guard = GuardedMaintainer(
            SplitMergeMaintainer(index), GuardConfig(policy="raise"), injector
        )
        touched = tracked(guard)
        resubmitted = 0
        for count, step in enumerate(workload.steps(50, validate=True)):
            if count % 10 == 0:
                injector.reset()
            try:
                guard.apply_batch([edge_call(step)])
            except InjectedFaultError:
                resubmitted += 1
                guard.apply_batch([edge_call(step)])
            touched.clear()
        assert resubmitted == guard.stats.rollbacks == injector.fired > 0
        assert guard.stats.commits == guard.stats.checks == 100
        assert guard.stats.degradations == 0
        assert is_valid_1index(index)

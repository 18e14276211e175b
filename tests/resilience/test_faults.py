"""Unit tests: the deterministic fault injector's trigger modes."""

from __future__ import annotations

import pytest

from repro.exceptions import InjectedFaultError
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.resilience import (
    PHASE_KINDS,
    FaultInjector,
    GuardConfig,
    GuardedMaintainer,
    Transaction,
)
from tests.resilience.conftest import (
    family_fingerprint,
    graph_fingerprint,
    index_fingerprint,
)


def feed(injector: FaultInjector, ops: list[str]) -> list[int]:
    """Drive *injector* with a stream of ops; return 1-based firing points."""
    fired = []
    for position, op in enumerate(ops, 1):
        try:
            injector(op, position)
        except InjectedFaultError:
            fired.append(position)
    return fired


class TestAtRecord:
    def test_one_shot_fires_exactly_once(self):
        injector = FaultInjector(at_record=3)
        assert feed(injector, ["edge_added"] * 10) == [3]
        assert injector.fired == 1
        assert injector.seen == 10

    def test_rearm_is_periodic(self):
        injector = FaultInjector(at_record=3, rearm=True)
        assert feed(injector, ["edge_added"] * 10) == [3, 6, 9]
        assert injector.fired == 3

    def test_count_runs_across_transactions(self, tiny_tree):
        # one injector, two transactions: the global count keeps running,
        # which is how a chaos run faults deep inside a long workload
        injector = FaultInjector(at_record=2)
        with Transaction(tiny_tree, on_record=injector):
            tiny_tree.add_node("Z1")
        assert injector.seen == 1 and injector.fired == 0
        with pytest.raises(InjectedFaultError):
            txn = Transaction(tiny_tree, on_record=injector).begin()
            try:
                tiny_tree.add_node("Z2")
            finally:
                txn.rollback()
        assert injector.fired == 1

    def test_error_carries_trigger_and_position(self):
        injector = FaultInjector(at_record=2)
        with pytest.raises(InjectedFaultError) as excinfo:
            feed_ops = ["edge_added", "edge_removed"]
            for position, op in enumerate(feed_ops, 1):
                injector(op, position)
        assert excinfo.value.record_number == 2
        assert "record 2" in excinfo.value.trigger

    def test_reset_rearms_and_restarts(self):
        injector = FaultInjector(at_record=2)
        assert feed(injector, ["x"] * 4) == [2]
        injector.reset()
        assert feed(injector, ["x"] * 4) == [2]
        assert injector.fired == 2


class TestAtPhase:
    def test_split_phase_ops_trigger(self):
        for op in sorted(PHASE_KINDS["split"]):
            injector = FaultInjector(at_phase="split")
            assert feed(injector, ["edge_added", op, op]) == [2]  # one-shot

    def test_merge_phase_ops_trigger(self):
        for op in sorted(PHASE_KINDS["merge"]):
            injector = FaultInjector(at_phase="merge")
            assert feed(injector, ["dnode_moved", op]) == [2]

    def test_unrelated_ops_never_trigger(self):
        injector = FaultInjector(at_phase="merge")
        assert feed(injector, ["edge_added", "node_added", "dnode_moved"]) == []
        assert injector.fired == 0

    @pytest.mark.parametrize(
        "kind,phase,op",
        [
            ("one", "split", "inode_created"),
            ("one", "merge", "merge_folded"),
            ("ak", "split", "member_moved"),
            ("ak", "merge", "class_closed"),
        ],
    )
    def test_a_phase_fires_inside_the_maintenance_of_either_family(
        self, figure2_builder, kind, phase, op
    ):
        graph = figure2_builder.build()
        if kind == "one":
            index = OneIndex.build(graph)
            maintainer = SplitMergeMaintainer(index)
            fingerprints = lambda: (graph_fingerprint(graph), index_fingerprint(index))
        else:
            family = AkIndexFamily.build(graph, 2)
            maintainer = AkSplitMergeMaintainer(family)
            fingerprints = lambda: (graph_fingerprint(graph), family_fingerprint(family))
        injector = FaultInjector(at_phase=phase)
        guard = GuardedMaintainer(
            maintainer, GuardConfig(policy="raise", check_level=""), injector
        )
        before = fingerprints()
        d, b3, b4 = (figure2_builder.oid(n) for n in (2, 3, 4))
        with pytest.raises(InjectedFaultError, match=rf"phase {phase} \({op}\)"):
            # 4 joins 5's class; then 3 follows and theirs is left empty
            guard.apply_batch([("insert_edge", (d, b4)), ("insert_edge", (d, b3))])
        assert injector.seen > 1  # past the graph's own record of the edge
        assert fingerprints() == before


class TestRate:
    def test_deterministic_for_fixed_seed(self):
        ops = ["edge_added"] * 200
        a = feed(FaultInjector(rate=0.1, seed=42, rearm=True), ops)
        b = feed(FaultInjector(rate=0.1, seed=42, rearm=True), ops)
        assert a == b and len(a) > 0

    def test_seed_changes_the_stream(self):
        ops = ["edge_added"] * 200
        a = feed(FaultInjector(rate=0.1, seed=1, rearm=True), ops)
        b = feed(FaultInjector(rate=0.1, seed=2, rearm=True), ops)
        assert a != b

    def test_rate_one_fires_every_record(self):
        injector = FaultInjector(rate=1.0, rearm=True)
        assert feed(injector, ["x"] * 5) == [1, 2, 3, 4, 5]

    def test_rate_zero_never_fires(self):
        injector = FaultInjector(rate=0.0)
        assert feed(injector, ["x"] * 50) == []


class TestValidation:
    def test_at_record_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultInjector(at_record=0)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(at_phase="compaction")

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)

"""Tests for the SLO watchdog: rules, burn-rate windows, transitions."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    InMemorySink,
    LivePlane,
    Observer,
    SloRule,
    SloWatchdog,
    WindowConfig,
    default_adaptive_rules,
    default_service_rules,
    install,
    load_rules,
)
from repro.obs.slo import CRITICAL, OK, WARN


def make_clock(start: float = 0.0):
    state = {"now": start}

    def clock() -> float:
        return state["now"]

    def advance(seconds: float) -> None:
        state["now"] += seconds

    clock.advance = advance
    return clock


CONFIG = WindowConfig(width_seconds=60.0, frames=12, retention_factor=5)

COMMIT_RULE = SloRule(
    name="commit-p95",
    metric="commit_seconds",
    stat="p95",
    op=">",
    threshold=0.05,
)


class TestSloRule:
    def test_breached_is_the_bad_condition(self):
        assert COMMIT_RULE.breached(0.5)
        assert not COMMIT_RULE.breached(0.01)
        assert not COMMIT_RULE.breached(None)  # no data = no breach

    def test_all_comparison_ops(self):
        assert SloRule("r", "m", threshold=5, op="<").breached(4)
        assert SloRule("r", "m", threshold=5, op="<=").breached(5)
        assert SloRule("r", "m", threshold=5, op=">=").breached(5)
        assert not SloRule("r", "m", threshold=5, op=">").breached(5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op": "=="},
            {"slow_factor": 0.5},
            {"window_seconds": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SloRule(name="r", metric="m", threshold=1.0, **kwargs)

    def test_from_dict_round_trip(self):
        rule = SloRule.from_dict(COMMIT_RULE.to_dict())
        assert rule == COMMIT_RULE

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SloRule.from_dict({"name": "r", "metric": "m", "threshold": 1, "oops": 2})
        with pytest.raises(ValueError, match="missing keys"):
            SloRule.from_dict({"name": "r"})


class TestWatchdog:
    def _plane(self, clock):
        return LivePlane(config=CONFIG, clock=clock)

    def test_no_data_is_ok(self):
        plane = self._plane(make_clock())
        watchdog = SloWatchdog(plane, [COMMIT_RULE])
        (status,) = watchdog.evaluate()
        assert status.status == OK
        assert status.fast_value is None

    def test_fresh_breach_is_warn_sustained_is_critical(self):
        clock = make_clock(1000.0)
        plane = self._plane(clock)
        watchdog = SloWatchdog(plane, [COMMIT_RULE])
        # 5 minutes of healthy commits fill the slow window ...
        for _ in range(60):
            plane.observe("commit_seconds", 0.01)
            clock.advance(5.0)
        (status,) = watchdog.evaluate()
        assert status.status == OK
        # ... then latency spikes: two slow commits are ~17% of the fast
        # (60 s) window — past its p95 — but only ~3% of the slow
        # (300 s) window, whose p95 is still diluted by healthy history
        for _ in range(2):
            plane.observe("commit_seconds", 0.5)
            clock.advance(5.0)
        (status,) = watchdog.evaluate()
        assert status.status == WARN
        assert status.fast_value > 0.05
        # spike persists until the slow window p95 crosses too
        for _ in range(60):
            plane.observe("commit_seconds", 0.5)
            clock.advance(5.0)
        (status,) = watchdog.evaluate()
        assert status.status == CRITICAL
        assert status.slow_value > 0.05

    def test_transitions_emit_events_once_per_edge(self):
        sink = InMemorySink()
        obs = Observer(sink)
        previous = install(obs)
        try:
            clock = make_clock(1000.0)
            plane = self._plane(clock)
            watchdog = SloWatchdog(plane, [COMMIT_RULE])
            for _ in range(12):
                plane.observe("commit_seconds", 0.5)
                clock.advance(5.0)
            watchdog.evaluate()  # breaches (fast+slow both bad: critical)
            watchdog.evaluate()  # steady state: no second event
            clock.advance(400.0)  # everything ages out
            watchdog.evaluate()  # recovers
        finally:
            install(previous)
        breaches = sink.events("slo.breach")
        recoveries = sink.events("slo.recovered")
        assert len(breaches) == 1
        assert breaches[0]["attrs"]["rule"] == "commit-p95"
        assert breaches[0]["attrs"]["status"] == CRITICAL
        assert len(recoveries) == 1
        assert watchdog.breaches == 1
        assert watchdog.recoveries == 1
        assert obs.metrics.counter("slo.breaches").value == 1

    def test_the_cache_hit_rate_rule_pages_only_a_sustained_dip(self):
        # a gauge's last value ignores the window, so fast == slow and one
        # dip would page; its windowed max tells a dip from an outage
        clock = make_clock(1000.0)
        plane = self._plane(clock)
        (rule,) = [r for r in default_adaptive_rules() if r.name == "adaptive-cache-hit-rate"]
        watchdog = SloWatchdog(plane, [rule])
        for _ in range(48):  # 240 s at a healthy rate ...
            plane.set_gauge("adaptive.cache_hit_rate", 0.6)
            clock.advance(5.0)
        for _ in range(12):  # ... then 60 s under the floor
            plane.set_gauge("adaptive.cache_hit_rate", 0.01)
            clock.advance(5.0)
        (status,) = watchdog.evaluate()
        assert (status.status, status.fast_value, status.slow_value) == (WARN, 0.01, 0.6)
        for _ in range(48):  # under the floor for the whole slow window
            plane.set_gauge("adaptive.cache_hit_rate", 0.01)
            clock.advance(5.0)
        (status,) = watchdog.evaluate()
        assert (status.status, status.fast_value, status.slow_value) == (CRITICAL, 0.01, 0.01)

    def test_gauge_and_rate_rules(self):
        clock = make_clock(0.0)
        plane = self._plane(clock)
        shed = SloRule("shed", "service.shed", stat="rate", op=">", threshold=1.0)
        depth = SloRule("depth", "queue_depth", stat="value", op=">", threshold=100)
        watchdog = SloWatchdog(plane, [shed, depth])
        plane.add("service.shed", 120)  # 2/s over the 60 s window
        plane.set_gauge("queue_depth", 500)
        statuses = {s.rule.name: s for s in watchdog.evaluate()}
        assert statuses["shed"].status != OK
        assert statuses["depth"].status == CRITICAL  # gauge: fast == slow value

    def test_overall_and_health_fragment(self):
        clock = make_clock(0.0)
        plane = self._plane(clock)
        watchdog = SloWatchdog(plane, [COMMIT_RULE])
        plane.observe("commit_seconds", 1.0)
        fragment = watchdog.health()
        assert fragment["slo"] == CRITICAL
        (rule_doc,) = fragment["rules"]
        assert rule_doc["rule"] == "commit-p95"
        assert rule_doc["burn_rate"] > 1.0
        json.dumps(fragment)  # must be JSON-able


class TestRuleLoading:
    def test_load_rules_list_and_wrapped_forms(self, tmp_path):
        doc = [COMMIT_RULE.to_dict()]
        plain = tmp_path / "rules.json"
        plain.write_text(json.dumps(doc))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"rules": doc}))
        assert load_rules(str(plain)) == [COMMIT_RULE]
        assert load_rules(str(wrapped)) == [COMMIT_RULE]

    def test_load_rules_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "rules"}')
        with pytest.raises(ValueError):
            load_rules(str(path))

    def test_default_service_rules_cover_the_serving_signals(self):
        rules = {rule.metric for rule in default_service_rules()}
        assert "service.batch_commit_seconds" in rules
        assert "service.queries_per_version" in rules
        assert "service.shed" in rules
        assert "store.fsync_seconds" in rules

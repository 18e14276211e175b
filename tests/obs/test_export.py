"""Tests for /metrics + /health serving, JSONL reporting, LiveTelemetry."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    FlightRecorder,
    LivePlane,
    LiveTelemetry,
    MetricsServer,
    Observer,
    SloRule,
    SloWatchdog,
    health_document,
    install,
    render_prometheus,
)

BAD_COMMITS = SloRule(
    name="commit-p95", metric="commit_seconds", stat="p95", op=">", threshold=0.05
)


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition-format parser: sample line → float value."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestRenderPrometheus:
    def test_registry_metrics_render(self):
        obs = Observer()
        obs.add("service.batches", 4)
        obs.set("service.queue_depth", 3)
        obs.set_max("service.queue_depth", 9)
        for value in (0.01, 0.02, 0.04):
            obs.observe("service.commit_seconds", value)
        samples = parse_prometheus(render_prometheus(registry=obs.metrics))
        assert samples["repro_service_batches"] == 4
        assert samples["repro_service_queue_depth"] == 9  # set_max raised it
        assert samples["repro_service_queue_depth_max"] == 9
        assert samples["repro_service_commit_seconds_count"] == 3
        assert samples["repro_service_commit_seconds_sum"] == pytest.approx(0.07)
        assert samples['repro_service_commit_seconds{quantile="0.95"}'] == pytest.approx(
            0.04
        )

    def test_plane_metrics_render_with_window_labels(self):
        plane = LivePlane(clock=lambda: 100.0)
        plane.observe("commit_seconds", 0.5)
        plane.add("batches", 2)
        plane.set_gauge("depth", 7)
        samples = parse_prometheus(render_prometheus(plane=plane))
        assert samples['repro_live_commit_seconds{window="60s",stat="count"}'] == 1
        assert samples['repro_live_batches{window="60s",stat="lifetime"}'] == 2
        assert samples['repro_live_depth{window="60s",stat="value"}'] == 7

    def test_names_are_sanitised(self):
        obs = Observer()
        obs.add("one.splits-total", 1)
        samples = parse_prometheus(render_prometheus(registry=obs.metrics))
        assert "repro_one_splits_total" in samples


class TestHealthDocument:
    def test_minimal_document_is_ok(self):
        assert health_document()["status"] == "ok"

    def test_slo_breach_degrades_the_status(self):
        plane = LivePlane(clock=lambda: 100.0)
        plane.observe("commit_seconds", 1.0)
        watchdog = SloWatchdog(plane, [BAD_COMMITS])
        doc = health_document(plane=plane, watchdog=watchdog)
        assert doc["status"] == "critical"  # gauge-free breach hits both windows
        assert doc["slo"] == "critical"
        assert doc["rules"][0]["rule"] == "commit-p95"
        json.dumps(doc)

    def test_service_and_flight_fragments(self):
        class FakeService:
            def health(self):
                return {"version": 7, "queue_depth": 0}

        recorder = FlightRecorder()
        recorder.emit({"type": "event", "name": "x"})
        doc = health_document(service=FakeService(), recorder=recorder)
        assert doc["service"]["version"] == 7
        assert doc["flight"]["recorded"] == 1


class TestMetricsServer:
    def test_serves_metrics_health_and_flight(self):
        obs = Observer()
        obs.add("service.batches", 2)
        plane = LivePlane()
        recorder = FlightRecorder()
        recorder.emit({"type": "event", "name": "boot"})
        server = MetricsServer(
            registry=obs.metrics, plane=plane, recorder=recorder
        ).start()
        try:
            assert server.port != 0
            body = urllib.request.urlopen(f"{server.url}/metrics").read().decode()
            assert parse_prometheus(body)["repro_service_batches"] == 2
            health = json.load(urllib.request.urlopen(f"{server.url}/health"))
            assert health["status"] == "ok"
            flight = json.load(urllib.request.urlopen(f"{server.url}/flight"))
            assert flight["records"][0]["name"] == "boot"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/nope")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_health_returns_503_on_breach(self):
        plane = LivePlane()
        plane.observe("commit_seconds", 1.0)
        watchdog = SloWatchdog(plane, [BAD_COMMITS])
        server = MetricsServer(plane=plane, watchdog=watchdog).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{server.url}/health")
            assert err.value.code == 503
            assert json.load(err.value)["status"] == "critical"
        finally:
            server.stop()

    def test_start_stop_are_idempotent(self):
        server = MetricsServer()
        server.start()
        port = server.port
        server.start()
        assert server.port == port
        server.stop()
        server.stop()


class TestLiveTelemetry:
    def test_bundle_attaches_and_detaches(self, tmp_path):
        obs = Observer()
        previous = install(obs)
        try:
            telemetry = LiveTelemetry(
                rules=[BAD_COMMITS], dump_dir=str(tmp_path), serve=True
            )
            telemetry.start()
            try:
                assert obs.live is telemetry.plane
                assert telemetry.recorder in obs.sinks
                obs.observe("commit_seconds", 1.0)
                body = urllib.request.urlopen(f"{telemetry.url}/metrics").read()
                assert b"repro_live_commit_seconds" in body
                health = telemetry.health()
                assert health["status"] == "critical"
            finally:
                telemetry.stop()
            assert obs.live is None
            assert telemetry.recorder not in obs.sinks
        finally:
            install(previous)

    def test_slo_breach_trips_the_flight_recorder(self, tmp_path):
        obs = Observer()
        previous = install(obs)
        try:
            telemetry = LiveTelemetry(
                rules=[BAD_COMMITS], dump_dir=str(tmp_path), serve=False
            )
            telemetry.start()
            try:
                obs.observe("commit_seconds", 1.0)
                telemetry.watchdog.evaluate()
            finally:
                telemetry.stop()
            assert len(telemetry.recorder.dumps) == 1
            assert "slo-breach" in telemetry.recorder.dumps[0]
        finally:
            install(previous)

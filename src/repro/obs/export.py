"""Exporting the telemetry plane: ``/metrics`` and ``/health``.

Two consumers, one substrate:

* :func:`render_prometheus` turns the cumulative
  :class:`~repro.obs.metrics.MetricsRegistry` and the windowed
  :class:`~repro.obs.live.LivePlane` into Prometheus text exposition
  (counters, gauges, histogram summaries with quantile labels, and
  ``repro_live_*`` windowed statistics);
* :class:`MetricsServer` serves that text on ``/metrics`` and a JSON
  health document on ``/health`` from a stdlib
  :class:`~http.server.ThreadingHTTPServer` — no dependencies, safe to
  run inside tests on an ephemeral port.

:class:`LiveTelemetry` bundles the whole plane — windows, watchdog,
flight recorder, server — behind one ``start()``/``stop()``
pair; ``IndexService.start_telemetry`` is a thin wrapper over it.

Everything here is read-side only: the exporter thread takes the
plane's per-call lock and the registry's GIL-atomic reads, never a
writer-path lock.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.flight import FlightRecorder
from repro.obs.live import LivePlane, WindowConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import CRITICAL, OK, SloRule, SloWatchdog

__all__ = [
    "render_prometheus",
    "health_document",
    "MetricsServer",
    "LiveTelemetry",
]

_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def _prom_name(name: str, prefix: str = "repro") -> str:
    """``service.batch_commit_seconds`` → ``repro_service_batch_commit_seconds``."""
    cleaned = "".join(c if (c.isalnum() or c == "_") else "_" for c in name)
    return f"{prefix}_{cleaned}"


def _fmt(value: float) -> str:
    """Prometheus sample value: repr keeps full float precision."""
    return repr(float(value))


def render_prometheus(
    registry: Optional[MetricsRegistry] = None,
    plane: Optional[LivePlane] = None,
    prefix: str = "repro",
    now: Optional[float] = None,
) -> str:
    """The registry and/or plane in Prometheus text exposition format.

    Cumulative metrics keep their lifetime semantics (counters and
    histogram summaries over the whole process); plane instruments are
    emitted under ``<prefix>_live_*`` with ``window``/``stat`` labels,
    which is what dashboards alert on.  The compiled-path LRU's
    process-wide hit/miss statistics are always included as
    ``<prefix>_path_cache_*`` gauges — the read path's cheapest cache
    deserves the same visibility as the serving-layer ones.
    """
    from repro.query.automaton import path_cache_info  # late: avoid cycle

    lines: list[str] = []
    info = path_cache_info()
    for field_name, value in (
        ("hits", info.hits),
        ("misses", info.misses),
        ("size", info.currsize),
        ("maxsize", info.maxsize or 0),
    ):
        metric = _prom_name(f"path_cache_{field_name}", prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    if registry is not None:
        for name, counter in sorted(registry.counters.items()):
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(registry.gauges.items()):
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(gauge.value)}")
            lines.append(f"# TYPE {metric}_max gauge")
            lines.append(f"{metric}_max {_fmt(gauge.max_value)}")
        for name, histogram in sorted(registry.histograms.items()):
            metric = _prom_name(name, prefix)
            lines.append(f"# TYPE {metric} summary")
            for quantile, stat in _QUANTILES:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} '
                    f"{_fmt(histogram.percentile(quantile * 100))}"
                )
            lines.append(f"{metric}_sum {_fmt(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
    if plane is not None:
        snapshot = plane.snapshot(now)
        window = f"{snapshot['window_seconds']:g}s"
        live_prefix = f"{prefix}_live"
        for name, stats in snapshot["histograms"].items():
            metric = _prom_name(name, live_prefix)
            lines.append(f"# TYPE {metric} gauge")
            for stat in ("count", "rate", "mean", "min", "max", "p50", "p95", "p99"):
                lines.append(
                    f'{metric}{{window="{window}",stat="{stat}"}} '
                    f"{_fmt(stats[stat])}"
                )
        for name, stats in snapshot["counters"].items():
            metric = _prom_name(name, live_prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(
                f'{metric}{{window="{window}",stat="count"}} '
                f"{stats['window_count']}"
            )
            lines.append(
                f'{metric}{{window="{window}",stat="rate"}} {_fmt(stats["rate"])}'
            )
            lines.append(
                f'{metric}{{window="{window}",stat="lifetime"}} {stats["lifetime"]}'
            )
        for name, stats in snapshot["gauges"].items():
            metric = _prom_name(name, live_prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(
                f'{metric}{{window="{window}",stat="value"}} {_fmt(stats["value"])}'
            )
            lines.append(
                f'{metric}{{window="{window}",stat="window_max"}} '
                f"{_fmt(stats['window_max'])}"
            )
    return "\n".join(lines) + "\n"


def health_document(
    service: Optional[object] = None,
    plane: Optional[LivePlane] = None,
    watchdog: Optional[SloWatchdog] = None,
    recorder: Optional[FlightRecorder] = None,
    now: Optional[float] = None,
) -> dict:
    """The JSON ``/health`` body.

    ``status`` is the operator-facing verdict: ``ok`` when every SLO
    holds, ``degraded`` when a fast window breaches (watchdog ``warn``),
    ``critical`` when a breach is sustained across the slow window.
    """
    doc: dict = {"status": OK}
    if service is not None and hasattr(service, "health"):
        doc["service"] = service.health()
    if watchdog is not None:
        fragment = watchdog.health(now)
        doc["slo"] = fragment["slo"]
        doc["rules"] = fragment["rules"]
        if fragment["slo"] == CRITICAL:
            doc["status"] = "critical"
        elif fragment["slo"] != OK:
            doc["status"] = "degraded"
    if plane is not None:
        snapshot = plane.snapshot(now)
        doc["uptime_seconds"] = snapshot["uptime_seconds"]
        doc["window_seconds"] = snapshot["window_seconds"]
    if recorder is not None:
        doc["flight"] = {
            "recorded": recorder.emitted,
            "dumps": list(recorder.dumps),
            "last_dump": recorder.last_dump,
            "suppressed": recorder.suppressed,
        }
    return doc


class MetricsServer:
    """A background HTTP endpoint over the telemetry plane.

    Routes:

    * ``GET /metrics`` — Prometheus text (registry + plane);
    * ``GET /health`` — the JSON health document; HTTP 200 while
      ``status`` is ``ok``, 503 once an SLO rule degrades the service;
    * ``GET /flight`` — the flight recorder's current ring as JSON.

    ``port=0`` (the default) binds an ephemeral port; read
    :attr:`port`/:attr:`url` after :meth:`start`.  The server thread and
    every handler thread are daemons — they can never hold a process
    open.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        plane: Optional[LivePlane] = None,
        service: Optional[object] = None,
        watchdog: Optional[SloWatchdog] = None,
        recorder: Optional[FlightRecorder] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.plane = plane
        self.service = service
        self.watchdog = watchdog
        self.recorder = recorder
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    if self.path.split("?", 1)[0] == "/metrics":
                        body = render_prometheus(
                            server.registry, server.plane
                        ).encode("utf-8")
                        self._reply(200, "text/plain; version=0.0.4", body)
                    elif self.path.split("?", 1)[0] == "/health":
                        doc = health_document(
                            service=server.service,
                            plane=server.plane,
                            watchdog=server.watchdog,
                            recorder=server.recorder,
                        )
                        code = 200 if doc["status"] == OK else 503
                        self._reply(
                            code,
                            "application/json",
                            json.dumps(doc, default=str).encode("utf-8"),
                        )
                    elif self.path.split("?", 1)[0] == "/flight":
                        records = (
                            server.recorder.records()
                            if server.recorder is not None
                            else []
                        )
                        self._reply(
                            200,
                            "application/json",
                            json.dumps(
                                {"records": records}, default=str
                            ).encode("utf-8"),
                        )
                    else:
                        self._reply(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # pragma: no cover - client went away
                    pass

            def _reply(self, code: int, content_type: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass  # keep scrapes out of stderr

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None


class LiveTelemetry:
    """The whole live plane as one start/stop bundle.

    Wires together, around an :class:`~repro.obs.Observer`:

    * a :class:`LivePlane` attached to the observer (windowed metrics);
    * a :class:`FlightRecorder` added as a sink (when *dump_dir* given);
    * an :class:`SloWatchdog` over *rules*;
    * a :class:`MetricsServer` (when *serve* — the default).

    ``IndexService.start_telemetry`` constructs one of these against the
    process-wide current observer; standalone use::

        from repro.obs import Observer, install
        from repro.obs.export import LiveTelemetry

        obs = install(Observer())
        telemetry = LiveTelemetry(service=svc, rules=default_service_rules())
        telemetry.start()
        ... # curl http://127.0.0.1:<telemetry.port>/health
        telemetry.stop()
    """

    def __init__(
        self,
        service: Optional[object] = None,
        observer: Optional[object] = None,
        plane: Optional[LivePlane] = None,
        window: Optional[WindowConfig] = None,
        rules: Optional[list[SloRule]] = None,
        dump_dir: Optional[str] = None,
        serve: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._observer = observer
        self.plane = plane if plane is not None else LivePlane(config=window)
        self.watchdog = SloWatchdog(self.plane, rules or [])
        self.recorder = (
            FlightRecorder(dump_dir=dump_dir) if dump_dir is not None else None
        )
        self.server: Optional[MetricsServer] = None
        if serve:
            self.server = MetricsServer(
                plane=self.plane,
                service=service,
                watchdog=self.watchdog,
                recorder=self.recorder,
                host=host,
                port=port,
            )
        self._previous_plane = None
        self._started = False

    @property
    def observer(self):
        if self._observer is not None:
            return self._observer
        from repro.obs import current as current_obs  # late: avoid cycle

        return current_obs()

    @property
    def port(self) -> Optional[int]:
        return self.server.port if self.server is not None else None

    @property
    def url(self) -> Optional[str]:
        return self.server.url if self.server is not None else None

    def start(self) -> "LiveTelemetry":
        if self._started:
            return self
        observer = self.observer
        self._previous_plane = observer.attach_live(self.plane)
        if self.recorder is not None:
            observer.add_sink(self.recorder)
        if self.server is not None:
            self.server.registry = observer.metrics
            self.server.start()
        self._started = True
        return self

    def health(self) -> dict:
        """The health document this bundle's ``/health`` would serve."""
        return health_document(
            service=self.service,
            plane=self.plane,
            watchdog=self.watchdog,
            recorder=self.recorder,
        )

    def stop(self) -> None:
        if not self._started:
            return
        if self.server is not None:
            self.server.stop()
        observer = self.observer
        if observer.live is self.plane:
            observer.attach_live(self._previous_plane)
        if self.recorder is not None:
            observer.remove_sink(self.recorder)
        self._started = False

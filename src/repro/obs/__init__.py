"""``repro.obs`` — structured tracing and metrics for index maintenance.

The paper's evaluation is a story about *where time and quality go*
during incremental maintenance — split vs. merge work, reconstruction
triggers, worklist depths.  This package is the substrate that makes
those breakdowns observable without changing what the algorithms
compute:

* a **tracer** of nestable spans with monotonic timestamps and
  attributes (:mod:`repro.obs.tracer`);
* a **metrics registry** of named counters/gauges/histograms — all
  fixed-memory (:mod:`repro.obs.metrics`);
* pluggable **sinks** — in-memory, JSONL file, human-readable summary
  (:mod:`repro.obs.sinks`);
* the **live telemetry plane** — time-windowed sliding aggregation of
  the same metric stream (:mod:`repro.obs.live`), Prometheus ``/metrics``
  and JSON ``/health`` endpoints (:mod:`repro.obs.export`), a bounded
  **flight recorder** with automatic post-mortem dumps
  (:mod:`repro.obs.flight`), and an **SLO watchdog** with burn-rate
  alerting (:mod:`repro.obs.slo`);
* the :class:`Observer` facade that bundles them and the process-wide
  *current observer* the instrumented hot paths consult.

Observability is **off by default**: :func:`current` returns a disabled
observer whose ``span()`` hands back a shared no-op context manager and
whose counter helpers return immediately, so the maintenance algorithms
pay (almost) nothing when nobody is watching.  Turn it on around a
region with::

    from repro.obs import InMemorySink, observed

    with observed(InMemorySink()) as obs:
        maintainer.insert_edge(u, v)
    print(obs.sinks[0].spans("one.split_phase"))

or for a whole benchmark run from the CLI::

    python -m repro.experiments --scale smoke --trace out.jsonl fig9

For always-on production serving there is a **metrics-only** mode
(``Observer(enabled=True, tracing=False)``): counters, histograms and
the live plane stay hot while span bookkeeping is skipped entirely —
the configuration the ≤1.3x overhead gate in
``benchmarks/bench_obs_overhead.py`` holds to.

Span/counter naming convention: ``one.*`` for 1-index maintenance,
``ak.*`` for the A(k) family, ``construct.*`` for index construction,
``run.*`` for the experiment runner's per-run registry, ``service.*``
for the serving layer, ``store.*`` for durability, ``slo.*`` for the
watchdog.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    NullSink,
    SummarySink,
    TraceSink,
    read_jsonl,
    summarize,
)
from repro.obs.tracer import NULL_SPAN, NullTracer, Span, Tracer

__all__ = [
    "Observer",
    "DISABLED",
    "current",
    "install",
    "observed",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "percentile",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_SPAN",
    "TraceSink",
    "InMemorySink",
    "JsonlSink",
    "SummarySink",
    "NullSink",
    "read_jsonl",
    "summarize",
    "LivePlane",
    "WindowConfig",
    "FlightRecorder",
    "SloRule",
    "SloWatchdog",
    "load_rules",
    "default_service_rules",
    "default_adaptive_rules",
    "MetricsServer",
    "LiveTelemetry",
    "render_prometheus",
    "health_document",
]


class Observer:
    """Tracer + metrics registry + sinks (+ optional live plane), as one
    handle.

    Instrumented code talks to an observer, never to tracer or registry
    directly, so a single ``enabled`` flag makes the whole layer a
    no-op.  The convenience mutators (:meth:`add`, :meth:`observe`,
    :meth:`set`, :meth:`set_max`) are themselves gated on ``enabled`` —
    call them unconditionally from hot paths.

    ``tracing=False`` keeps metrics live but makes every span/event a
    no-op — the always-on production configuration, where per-operation
    span allocation is the dominant observability cost.

    An attached :class:`~repro.obs.live.LivePlane` (see
    :meth:`attach_live`) receives every counter increment, gauge write
    and histogram observation in addition to the registry, feeding the
    sliding windows the exporter and SLO watchdog read.
    """

    __slots__ = ("sinks", "metrics", "tracer", "enabled", "tracing", "live")

    def __init__(
        self,
        *sinks: TraceSink,
        metrics: Optional[MetricsRegistry] = None,
        enabled: bool = True,
        tracing: bool = True,
    ):
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.enabled = enabled
        self.tracing = tracing and enabled
        self.tracer = Tracer(self.sinks) if self.tracing else NullTracer()
        self.live = None  # type: Optional["LivePlane"]

    # -- live plane ----------------------------------------------------

    def attach_live(self, plane: Optional["LivePlane"]) -> Optional["LivePlane"]:
        """Install (or with ``None`` remove) a live telemetry plane.

        Returns the previously attached plane.  While attached, every
        metric mutation is mirrored into the plane's sliding windows.
        """
        previous = self.live
        self.live = plane
        return previous

    # -- sinks ---------------------------------------------------------

    def add_sink(self, sink: TraceSink) -> None:
        """Attach *sink* at runtime (e.g. a flight recorder).

        The tracer keeps its own sink list, so both are extended; spans
        and events only flow while ``tracing`` is on.
        """
        self.sinks.append(sink)
        if self.tracing:
            self.tracer.sinks.append(sink)

    def remove_sink(self, sink: TraceSink) -> None:
        """Detach a runtime-attached sink (missing sinks are ignored)."""
        if sink in self.sinks:
            self.sinks.remove(sink)
        if self.tracing and sink in self.tracer.sinks:
            self.tracer.sinks.remove(sink)

    # -- tracing -------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """A nestable timed section (no-op context manager if disabled)."""
        if not self.tracing:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: object) -> None:
        """An instant trace record (dropped if disabled)."""
        if self.tracing:
            self.tracer.event(name, **attrs)

    def trace_context(self) -> Optional[int]:
        """This thread's innermost open span id — the handle to ship
        across a thread boundary and reparent under with
        :meth:`~repro.obs.tracer.Span.set_parent` (``None`` when no span
        is open or tracing is off)."""
        if not self.tracing:
            return None
        return self.tracer.current_span_id()

    # -- metrics -------------------------------------------------------

    def add(self, counter: str, n: int = 1) -> None:
        """Increment a named counter (no-op if disabled or n == 0)."""
        if self.enabled and n:
            self.metrics.counter(counter).value += n
            if self.live is not None:
                self.live.add(counter, n)

    def observe(self, histogram: str, value: float) -> None:
        """Record a histogram observation (no-op if disabled)."""
        if self.enabled:
            self.metrics.histogram(histogram).observe(value)
            if self.live is not None:
                self.live.observe(histogram, value)

    def set(self, gauge: str, value: float) -> None:
        """Set a gauge's current value (no-op if disabled).

        The plain-write counterpart of :meth:`set_max` — both are now
        first-class on the facade, mirroring :class:`Gauge`'s own
        ``set``/``set_max`` pair::

            >>> from repro.obs import Observer
            >>> obs = Observer()
            >>> obs.set("service.queue_depth", 3)      # last value wins …
            >>> obs.set("service.queue_depth", 1)
            >>> obs.metrics.gauge("service.queue_depth").value
            1
            >>> obs.set_max("service.queue_peak", 7)   # … high-water only rises
            >>> obs.set_max("service.queue_peak", 4)
            >>> obs.metrics.gauge("service.queue_peak").value
            7
        """
        if self.enabled:
            self.metrics.gauge(gauge).set(value)
            if self.live is not None:
                self.live.set_gauge(gauge, value)

    def set_max(self, gauge: str, value: float) -> None:
        """Raise a gauge's high-water mark (no-op if disabled)."""
        if self.enabled:
            self.metrics.gauge(gauge).set_max(value)
            if self.live is not None:
                self.live.set_max_gauge(gauge, value)

    # -- lifecycle -----------------------------------------------------

    def emit_metrics(
        self, registry: Optional[MetricsRegistry] = None, name: str = "metrics"
    ) -> None:
        """Write a metrics-snapshot record to the sinks.

        Snapshots *registry* (default: this observer's own) so per-run
        registries can be dropped into the same trace stream.
        """
        if not self.enabled:
            return
        record = {"type": "metrics", "name": name}
        record.update((registry or self.metrics).snapshot())
        self.tracer.emit(record)

    def close(self) -> None:
        """Close every sink (idempotent for the provided sinks)."""
        for sink in self.sinks:
            sink.close()


#: The default, disabled observer — what :func:`current` returns until
#: something is installed.  Shared and stateless-by-convention.
DISABLED = Observer(enabled=False)

_current: Observer = DISABLED


def current() -> Observer:
    """The process-wide observer the instrumented hot paths consult."""
    return _current


def install(observer: Optional[Observer]) -> Observer:
    """Make *observer* current (``None`` restores the disabled default).

    Returns the previously-current observer so callers can restore it.
    """
    global _current
    previous = _current
    _current = observer if observer is not None else DISABLED
    return previous


@contextmanager
def observed(
    *sinks: TraceSink,
    metrics: Optional[MetricsRegistry] = None,
    live: Optional["LivePlane"] = None,
) -> Iterator[Observer]:
    """Enable observability within a ``with`` block.

    Installs a fresh enabled :class:`Observer` over *sinks* (with *live*
    attached when given), and on exit emits a final snapshot of its
    metrics registry, closes the sinks and restores the
    previously-current observer::

        with observed(JsonlSink("out.jsonl")) as obs:
            run_mixed_updates(...)
    """
    observer = Observer(*sinks, metrics=metrics)
    if live is not None:
        observer.attach_live(live)
    previous = install(observer)
    try:
        yield observer
    finally:
        observer.emit_metrics()
        observer.close()
        install(previous)


# The live-plane modules import the facade machinery above, so they load
# last; re-exported here to make ``repro.obs`` the one-stop import.
from repro.obs.live import LivePlane, WindowConfig  # noqa: E402
from repro.obs.flight import FlightRecorder  # noqa: E402
from repro.obs.slo import (  # noqa: E402
    SloRule,
    SloWatchdog,
    default_adaptive_rules,
    default_service_rules,
    load_rules,
)
from repro.obs.export import (  # noqa: E402
    LiveTelemetry,
    MetricsServer,
    health_document,
    render_prometheus,
)

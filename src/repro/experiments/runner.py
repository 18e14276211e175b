"""The shared engine behind every maintenance experiment.

All of Figures 9–11/13 and Tables 1–2 run the same loop: replay a mixed
insert/delete workload through a maintainer, optionally firing the 5 %
reconstruction policy, while sampling index quality and accumulating
per-update wall-clock time.  :func:`run_mixed_updates` is that loop;
the per-figure modules configure and interpret it.

Observability: the loop tallies its work into a per-run
:class:`repro.obs.MetricsRegistry` (counters ``run.updates``,
``run.splits``, ``run.merges``, …; histograms ``run.update_seconds``,
``run.reconstruction_seconds``) and the returned
:class:`MixedRunResult` is a snapshot view over that registry rather
than a hand-maintained tally.  When the current observer
(:func:`repro.obs.current`) is enabled, the run additionally emits a
``run`` span, one ``run.update`` event per operation and a final
metrics-snapshot record, so a JSONL trace of any experiment can be
cross-checked against the result object (their split/merge counts are
equal by construction).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.maintenance.base import UpdateStats
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.metrics.quality import quality_from_sizes
from repro.obs import Histogram, MetricsRegistry, Observer, current
from repro.workload.updates import MixedUpdateWorkload


class _EdgeMaintainer(Protocol):
    graph: DataGraph

    def insert_edge(self, source: int, target: int) -> UpdateStats: ...

    def delete_edge(self, source: int, target: int) -> UpdateStats: ...

    def index_size(self) -> int: ...


@dataclass
class SeriesPoint:
    """One quality sample along an update sequence."""

    update: int
    index_size: int
    minimum_size: int

    @property
    def quality(self) -> float:
        """The Section 3 quality metric at this point."""
        return quality_from_sizes(self.index_size, self.minimum_size)


@dataclass
class MixedRunResult:
    """Everything one maintainer run produces.

    The scalar fields are synced from the run's metrics registry
    (:attr:`metrics`) when the runner finishes — see
    :meth:`sync_from_metrics`; they remain plain fields so results can
    be constructed directly in tests and serialised trivially.
    """

    name: str
    points: list[SeriesPoint] = field(default_factory=list)
    updates: int = 0
    trivial_updates: int = 0
    total_splits: int = 0
    total_merges: int = 0
    peak_inodes: int = 0
    update_seconds: float = 0.0
    reconstructions: int = 0
    reconstruction_seconds: float = 0.0
    reconstruction_intervals: list[int] = field(default_factory=list)
    final_size: int = 0
    final_minimum: int = 0
    #: the per-run registry the scalar fields and the tail times are views
    #: of (None when the result was built by hand)
    metrics: Optional[MetricsRegistry] = None

    def sync_from_metrics(self, registry: MetricsRegistry) -> None:
        """Refresh the scalar tallies from a ``run.*`` metrics registry."""
        self.metrics = registry
        self.updates = registry.counter("run.updates").value
        self.trivial_updates = registry.counter("run.trivial").value
        self.total_splits = registry.counter("run.splits").value
        self.total_merges = registry.counter("run.merges").value
        self.peak_inodes = int(registry.gauge("run.peak_inodes").max_value)
        self.update_seconds = registry.histogram("run.update_seconds").total
        self.reconstructions = registry.counter("run.reconstructions").value
        self.reconstruction_seconds = registry.histogram(
            "run.reconstruction_seconds"
        ).total

    @property
    def mean_update_ms(self) -> float:
        """Mean per-update time, excluding reconstructions (Figure 11's
        'split/merge' and 'propagate' bars)."""
        if self.updates == 0:
            return 0.0
        return self.update_seconds / self.updates * 1000

    @property
    def _update_histogram(self) -> Histogram:
        """The run's ``run.update_seconds`` histogram (an empty one for a
        result built by hand)."""
        if self.metrics is None:
            return Histogram("run.update_seconds")
        return self.metrics.histogram("run.update_seconds")

    @property
    def p50_update_ms(self) -> float:
        """Median per-update time."""
        return self._update_histogram.p50 * 1000

    @property
    def p95_update_ms(self) -> float:
        """95th-percentile per-update time."""
        return self._update_histogram.p95 * 1000

    @property
    def max_update_ms(self) -> float:
        """Worst single update time, over every update of the run."""
        return self._update_histogram.max * 1000

    @property
    def mean_update_with_recon_ms(self) -> float:
        """Mean per-update time with amortised reconstruction cost
        (Figure 11's 'propagate + reconstruction' bars)."""
        if self.updates == 0:
            return 0.0
        return (self.update_seconds + self.reconstruction_seconds) / self.updates * 1000

    @property
    def max_quality(self) -> float:
        """Worst sampled quality over the run."""
        if not self.points:
            return 0.0
        return max(point.quality for point in self.points)

    @property
    def final_quality(self) -> float:
        """Quality at the end of the run."""
        if self.final_minimum == 0:
            return 0.0
        return quality_from_sizes(self.final_size, self.final_minimum)


def run_mixed_updates(
    name: str,
    maintainer: _EdgeMaintainer,
    workload: MixedUpdateWorkload,
    num_pairs: int,
    sample_every: int,
    minimum_size_fn: Callable[[DataGraph], int],
    policy: Optional[ReconstructionPolicy] = None,
    reconstruct: Optional[Callable[[], None]] = None,
    obs: Optional[Observer] = None,
) -> MixedRunResult:
    """Replay ``2 * num_pairs`` operations through *maintainer*.

    *minimum_size_fn* computes the current minimum-index size for quality
    sampling (it runs outside the timed sections).  When *policy* and
    *reconstruct* are given, the policy is consulted after every update
    and reconstructions are timed separately — the paper's protocol for
    the baselines (and, on cyclic data, for split/merge too).

    *obs* is the observer to trace through (default: the process-wide
    :func:`repro.obs.current`); tracing work happens outside the timed
    sections, so enabling it does not skew the reported update times.
    """
    registry = MetricsRegistry()
    result = MixedRunResult(name=name)
    # Hoisted registry slots: the loop's per-update cost must stay at a
    # handful of attribute bumps, observability on or off.  A lap is
    # observed only after its call returns, so a raising update leaves
    # no sample behind.
    lap_hist = registry.histogram("run.update_seconds")
    recon_hist = registry.histogram("run.reconstruction_seconds")
    recon_counter = registry.counter("run.reconstructions")
    if obs is None:
        obs = current()
    if policy is not None:
        policy.start(maintainer.index_size())

    with obs.span("run", run=name, num_pairs=num_pairs) as run_span:
        # validate=True: the runner applies every operation as it is
        # yielded, so a desynchronised stream fails at the workload
        # boundary with the offending step index.
        steps = workload.steps(num_pairs, validate=True)
        for op_number, (op, source, target) in enumerate(steps, 1):
            started = time.perf_counter()
            if op == "insert":
                # workload edges come from the IDREF pool
                stats = maintainer.insert_edge(source, target, EdgeKind.IDREF)
            else:
                stats = maintainer.delete_edge(source, target)
            update_seconds = time.perf_counter() - started
            lap_hist.observe(update_seconds)
            stats.record_to(registry, "run")
            if obs.enabled:
                obs.event(
                    "run.update",
                    op=op,
                    source=source,
                    target=target,
                    splits=stats.splits,
                    merges=stats.merges,
                    moves=stats.moves,
                    trivial=stats.trivial,
                    seconds=update_seconds,
                )

            if policy is not None and reconstruct is not None:
                if policy.should_reconstruct(maintainer.index_size()):
                    started = time.perf_counter()
                    reconstruct()
                    recon_seconds = time.perf_counter() - started
                    recon_hist.observe(recon_seconds)
                    recon_counter.inc()
                    if obs.enabled:
                        obs.event(
                            "run.reconstruction",
                            update=op_number,
                            index_size=maintainer.index_size(),
                            seconds=recon_seconds,
                        )
                    policy.reconstructed(maintainer.index_size())

            if op_number % sample_every == 0:
                result.points.append(
                    SeriesPoint(
                        update=op_number,
                        index_size=maintainer.index_size(),
                        minimum_size=minimum_size_fn(maintainer.graph),
                    )
                )

        result.sync_from_metrics(registry)
        if policy is not None:
            result.reconstruction_intervals = list(policy.intervals)
        result.final_size = maintainer.index_size()
        result.final_minimum = minimum_size_fn(maintainer.graph)
        run_span.set(
            updates=result.updates,
            splits=result.total_splits,
            merges=result.total_merges,
            reconstructions=result.reconstructions,
            final_size=result.final_size,
            final_minimum=result.final_minimum,
        )
    obs.emit_metrics(registry, name=name)
    return result

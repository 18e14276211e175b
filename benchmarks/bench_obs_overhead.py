"""Overhead of the observability layer (repro.obs).

The instrumentation points in the maintenance hot paths consult the
current observer on every update; the design goal is that with the
default (disabled) observer this costs a dict-free attribute check and
nothing else, and that the **always-on production configuration** —
metrics + live telemetry plane, tracing off — stays within a tight
multiplier of bare.  This benchmark measures the same update workload
four ways: observability disabled, metrics-only with a live plane
attached, enabled with a swallowing ``NullSink``, and enabled with a
``JsonlSink``.

Run directly for the CI gate::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke

which asserts:

* metrics + live plane ≤ ``MAX_LIVE_OVERHEAD``× the disabled run (min of
  three runs, so scheduler noise cannot pass a true regression or fail a
  true pass);
* tracing into a ``NullSink`` < 10× and into a ``JsonlSink`` < 20× the
  disabled run (one run each: loose order-of-magnitude bounds);
* zero sample-memory growth: cumulative histogram and sliding windows
  report the same ``approx_bytes`` after the full observation stream as
  at its 10% checkpoint.
"""

from __future__ import annotations

import argparse
import io
import sys
import time

from repro.index.oneindex import OneIndex
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import JsonlSink, LivePlane, NullSink, Observer, install, observed
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

CONFIG = XMarkConfig(
    num_items=60, num_persons=80, num_open_auctions=50,
    num_closed_auctions=30, num_categories=10,
)
NUM_PAIRS = 40

#: the CI gate: metrics + live plane vs. bare, min-of-N runs
MAX_LIVE_OVERHEAD = 1.3
GATE_REPEATS = 3


def _apply_workload() -> float:
    """Build index + run the mixed workload; return update seconds."""
    graph = generate_xmark(CONFIG).graph
    workload = MixedUpdateWorkload.prepare(graph, seed=11)
    maintainer = SplitMergeMaintainer(OneIndex.build(graph))
    operations = list(workload.steps(NUM_PAIRS))
    started = time.perf_counter()
    for op, source, target in operations:
        if op == "insert":
            maintainer.insert_edge(source, target)
        else:
            maintainer.delete_edge(source, target)
    return time.perf_counter() - started


def _apply_workload_metrics_only() -> float:
    """The workload under the always-on config: metrics + live plane."""
    observer = Observer(tracing=False)
    observer.attach_live(LivePlane())
    previous = install(observer)
    try:
        return _apply_workload()
    finally:
        install(previous)


def _gate_tracing() -> list[str]:
    """One disabled run against one traced run per sink; fail a trace
    that costs an order of magnitude.

    The bounds are generous so that one run each cannot flake on CI
    jitter: even full tracing must stay the same order of magnitude
    as the bare run, and a regression that makes the *disabled* path
    allocate or format per update would push these ratios far past them.
    """
    disabled = _apply_workload()
    with observed(NullSink()):
        null_sink = _apply_workload()
    with observed(JsonlSink(io.StringIO())):
        jsonl = _apply_workload()
    failures = []
    for mode, seconds, limit in (
        ("NullSink", null_sink, 10),
        ("JsonlSink", jsonl, 20),
    ):
        ratio = seconds / disabled
        print(
            f"obs tracing into {mode}: {seconds * 1000:.1f} ms "
            f"({ratio:.2f}x disabled, limit {limit}x)"
        )
        if ratio >= limit:
            failures.append(
                f"tracing into {mode} costs {ratio:.2f}x disabled, limit {limit}x"
            )
    return failures


def _gate_overhead(repeats: int) -> tuple[float, float, float]:
    """Min-of-*repeats* timings: (bare, metrics+live, ratio)."""
    _apply_workload()  # warm caches/allocator before either side is timed
    bare = min(_apply_workload() for _ in range(repeats))
    live = min(_apply_workload_metrics_only() for _ in range(repeats))
    return bare, live, live / bare


def _gate_memory(observations: int) -> list[str]:
    """Drive one histogram name hard; fail on any sample-memory growth.

    Values cycle a fixed spread, so every bucket/reservoir slot the
    stream will ever need exists well before the 10% checkpoint — any
    byte counted after it is a leak, not warm-up.
    """
    observer = Observer(tracing=False)
    plane = LivePlane(clock=lambda: 0.0)  # one frame: isolates sample memory
    observer.attach_live(plane)
    values = [1e-6 * (1.17 ** i) for i in range(200)]  # ~28 octaves
    checkpoint = observations // 10
    checkpoint_bytes = None
    for i in range(observations):
        observer.observe("gate.latency_seconds", values[i % len(values)])
        if i + 1 == checkpoint:
            checkpoint_bytes = (
                observer.metrics.histogram("gate.latency_seconds").approx_bytes()
                + plane.approx_bytes()
            )
    final_bytes = (
        observer.metrics.histogram("gate.latency_seconds").approx_bytes()
        + plane.approx_bytes()
    )
    print(
        f"obs memory: {checkpoint_bytes} bytes at {checkpoint:,} observations, "
        f"{final_bytes} bytes at {observations:,}"
    )
    failures = []
    if checkpoint_bytes is None or final_bytes > checkpoint_bytes:
        failures.append(
            f"sample memory grew from {checkpoint_bytes} to {final_bytes} bytes "
            f"between {checkpoint:,} and {observations:,} observations"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    """CI entry point: the overhead bounds and the zero-growth gate."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller memory stream (100k observations instead of 1M)",
    )
    args = parser.parse_args(argv)

    bare, live, ratio = _gate_overhead(GATE_REPEATS)
    print(
        f"obs overhead: bare {bare * 1000:.1f} ms, metrics+live "
        f"{live * 1000:.1f} ms ({ratio:.3f}x, limit {MAX_LIVE_OVERHEAD}x, "
        f"min of {GATE_REPEATS})"
    )
    failures = []
    if ratio > MAX_LIVE_OVERHEAD:
        failures.append(
            f"metrics+live overhead {ratio:.3f}x exceeds {MAX_LIVE_OVERHEAD}x"
        )
    failures += _gate_tracing()
    failures += _gate_memory(100_000 if args.smoke else 1_000_000)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

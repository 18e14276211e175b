"""Named counters, gauges and histograms — the metrics half of ``repro.obs``.

The registry is the single place maintenance code reports *what happened*
(splits, merges, probes, moves) and *how big things got* (peak inodes,
worklist depth).  Everything is plain Python, single-threaded like the
rest of the library, and deliberately boring: a metric is a named slot
with an ``inc``/``set``/``observe`` method, and :meth:`MetricsRegistry.snapshot`
turns the whole registry into a JSON-able dict for the trace sinks.

Histograms are **fixed-memory**: under the closed-loop serving driver a
process observes commit and query latencies forever, so retaining every
raw sample would make observability itself an unbounded leak on the hot
path.  A :class:`Histogram` therefore keeps

* exact ``count`` / ``total`` / ``min`` / ``max``;
* **log-spaced bucket counts** (:data:`BUCKETS_PER_OCTAVE` buckets per
  power of two, index clamped to ±:data:`BUCKET_INDEX_LIMIT`) — an
  HDR-style digest with O(1) observe and a bounded relative quantile
  error of ``2**(1/BUCKETS_PER_OCTAVE) - 1`` (~9%);
* a **bounded reservoir** of raw samples (uniform Algorithm-R once the
  cap is hit) so small runs still get *exact* percentiles and
  ``.values`` keeps working for report code.

While ``count <= reservoir capacity`` the reservoir holds every sample
and percentiles are exact — byte-for-byte what the unbounded histogram
returned — so :meth:`Histogram.summary`/``p50``/``p95`` are backward
compatible; beyond the cap, quantiles come from the bucket digest.
:func:`percentile` is the nearest-rank definition every exact
percentile in the library uses.
"""

from __future__ import annotations

import math
import random
import sys
import zlib
from typing import Optional, Sequence

#: log-bucket resolution: buckets per power of two.  8 gives a worst-case
#: relative quantile error of 2**(1/8) - 1 ≈ 9%, and keeps real latency
#: ranges (ns..minutes ≈ 40 octaves) at ~320 live bucket entries.
BUCKETS_PER_OCTAVE = 8

#: hard clamp on the bucket index: values outside [2**-64, 2**64] share
#: the edge buckets, so a histogram can never hold more than
#: ``2 * 64 * BUCKETS_PER_OCTAVE + 1`` bucket entries.
BUCKET_INDEX_LIMIT = 64 * BUCKETS_PER_OCTAVE

#: raw samples retained for exact small-n percentiles (and ``.values``)
DEFAULT_RESERVOIR = 1024


def bucket_index(value: float) -> int:
    """The log-bucket index of a positive *value* (clamped to the limit)."""
    index = math.floor(math.log2(value) * BUCKETS_PER_OCTAVE)
    if index > BUCKET_INDEX_LIMIT:
        return BUCKET_INDEX_LIMIT
    if index < -BUCKET_INDEX_LIMIT:
        return -BUCKET_INDEX_LIMIT
    return index


def bucket_representative(index: int) -> float:
    """The value reported for observations that landed in bucket *index*
    (the geometric midpoint of its bounds)."""
    return 2.0 ** ((index + 0.5) / BUCKETS_PER_OCTAVE)


def quantile_from_buckets(
    buckets: dict[int, int],
    nonpositive: int,
    count: int,
    min_value: float,
    max_value: float,
    p: float,
) -> float:
    """Nearest-rank quantile of a log-bucket digest (shared by the
    cumulative :class:`Histogram` and the sliding windows).

    *buckets* maps bucket index → count of positive observations,
    *nonpositive* counts observations ``<= 0`` (which sort below every
    bucket), *count* is their sum, and *min_value*/*max_value* are the
    exactly-tracked extremes used to clamp the bucket representative.
    """
    if count == 0:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if p == 0.0:
        return min_value
    rank = math.ceil(p / 100.0 * count)
    if rank <= nonpositive:
        return min(min_value, 0.0)
    cumulative = nonpositive
    for index in sorted(buckets):
        cumulative += buckets[index]
        if cumulative >= rank:
            return min(max(bucket_representative(index), min_value), max_value)
    return max_value  # pragma: no cover - rank <= count always lands


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *values* (``p`` in [0, 100]).

    Returns 0.0 for an empty sequence, the minimum for ``p=0`` and the
    maximum for ``p=100``; values need not be sorted.
    """
    if not values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if p == 0.0:
        return ordered[0]
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (default 1) to the counter."""
        self.value += n

    add = inc  # alias: ``add(n)`` reads better for bulk increments

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value metric with a high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value (and track the maximum seen)."""
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def set_max(self, value: float) -> None:
        """Raise the gauge to *value* if it is a new high-water mark."""
        if value > self.value:
            self.value = value
        if value > self.max_value:
            self.max_value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value}, max={self.max_value})"


class Histogram:
    """A fixed-memory distribution with exact-then-bounded percentiles.

    See the module docstring for the memory model.  ``values`` is the
    bounded reservoir — the full sample list while ``count`` is within
    the reservoir capacity, a uniform sample of the stream beyond it.
    """

    __slots__ = (
        "name",
        "values",
        "_capacity",
        "_count",
        "_total",
        "_min",
        "_max",
        "_nonpositive",
        "_buckets",
        "_rng",
    )

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR):
        if reservoir < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.name = name
        self.values: list[float] = []
        self._capacity = reservoir
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        #: observations <= 0 (timer-resolution zeros, empty-batch sizes)
        self._nonpositive = 0
        self._buckets: dict[int, int] = {}
        # deterministic per-name stream so runs stay reproducible
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Record one observation — O(1) time, bounded memory."""
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value > 0.0:
            index = bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        else:
            self._nonpositive += 1
        if len(self.values) < self._capacity:
            self.values.append(value)
        else:
            # Algorithm R: keep a uniform sample of the whole stream
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self.values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def exact(self) -> bool:
        """Whether the reservoir still holds every observation."""
        return self._count <= self._capacity

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile: exact while the reservoir holds the
        whole stream, log-bucket estimate (±~9% relative) beyond it."""
        if self._count == 0:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.exact:
            return percentile(self.values, p)
        return quantile_from_buckets(
            self._buckets, self._nonpositive, self._count, self.min, self.max, p
        )

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def approx_bytes(self) -> int:
        """Approximate heap footprint of this histogram's sample storage.

        Counts the reservoir list (plus its floats) and the bucket dict
        (plus its ints) — the only containers that grow with
        observations, and both hard-capped.  The memory-regression tests
        assert this stays flat from the first capacity-full observation
        to the millionth.
        """
        size = sys.getsizeof(self.values)
        size += sum(sys.getsizeof(v) for v in self.values)
        size += sys.getsizeof(self._buckets)
        size += sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in self._buckets.items()
        )
        return size

    def summary(self) -> dict:
        """JSON-able digest of the distribution (stable legacy keys)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Create-on-demand store of named counters, gauges and histograms.

    Asking for a metric twice returns the same object, so hot paths can
    hoist ``registry.counter("run.splits")`` out of their loops and pay
    one attribute access per increment.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def snapshot(self) -> dict:
        """The whole registry as a JSON-able dict (sorted names)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {"value": g.value, "max": g.max_value}
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (names included)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

"""Small timing helpers for the experiment harness.

The paper reports wall-clock milliseconds (Figure 11, Table 2); the
harness times each update with ``perf_counter`` — monotonic and the
highest resolution the platform offers — into its run's metrics
registry and reports means with :func:`mean_ms` and tails with
:func:`p50_ms`/:func:`p95_ms`/:func:`max_ms`.
"""

from __future__ import annotations

from repro.obs.metrics import percentile


def mean_ms(seconds: list[float]) -> float:
    """Mean of a list of second-durations, in milliseconds."""
    if not seconds:
        return 0.0
    return sum(seconds) / len(seconds) * 1000


def p50_ms(seconds: list[float]) -> float:
    """Median of a list of second-durations, in milliseconds."""
    return percentile(seconds, 50) * 1000


def p95_ms(seconds: list[float]) -> float:
    """95th percentile of a list of second-durations, in milliseconds."""
    return percentile(seconds, 95) * 1000


def max_ms(seconds: list[float]) -> float:
    """Maximum of a list of second-durations, in milliseconds (0.0 if empty)."""
    if not seconds:
        return 0.0
    return max(seconds) * 1000

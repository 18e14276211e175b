"""A calibration kernel: how fast is this CPU running *right now*?

The sandbox this benchmark grew up on shares its cores.  A fixed
pure-Python loop, repeated over a quiet minute, takes anywhere between
0.8× and 1.6× its usual time, in swings that last seconds to minutes and
that ``time.process_time`` does not see either — so two runs of identical
inputs differ by ±20 % in *every* timing at once, far beyond the bound a
regression is judged by.

The remedy is the oldest one: measure the machine beside the program.
:func:`probe` times a small fixed kernel (dict/set/list work, the same
instruction mix as the code under test); the harness probes between
requests, never inside a timed region.  A phase's timings are then
reported at the reference speed::

    reported = measured × KERNEL_REF_S / median(kernel seconds in the phase)

``KERNEL_REF_S`` is what the kernel takes on this sandbox at its usual
speed, so on an undisturbed box the factor is ≈ 1 and the numbers are
plain wall-clock; the factor itself is printed with every result (and is
the per-layer metric ``bench.cpu_speed_ratio``), so raw wall-clock is
always one division away.  Over 12-second windows of ``edge-churn`` the
commit median moved by ±20 % raw and ±4.5 % normalised.
"""

from __future__ import annotations

import statistics
import time

#: seconds the kernel takes on the reference box at its usual speed
KERNEL_REF_S = 1.0e-3
_SIZE = 5000


def kernel() -> float:
    """Seconds one pass of the fixed workload takes."""
    start = time.perf_counter()
    table = {}
    seen = set()
    for i in range(_SIZE):
        table[i] = (i * 7) % 13
        seen.add(i % 97)
    total = 0
    for i in range(_SIZE):
        total += table[i]
        if i % 97 in seen:
            total += 1
    sorted(table.values())
    return time.perf_counter() - start


def probe() -> float:
    """The median of three kernel passes (≈ 3 ms)."""
    return statistics.median(kernel() for _ in range(3))


def slowdown(probes: list[float]) -> float:
    """How much slower than the reference the CPU ran over *probes* (1 = par)."""
    return statistics.median(probes) / KERNEL_REF_S

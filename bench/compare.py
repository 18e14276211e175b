#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload).  Each side's value is the
median over its repeats of that pair; the verdict applies the metric's
bound from ``bench/spec.py`` (the same numbers ``BENCHMARK.json``
carries) to the ratio B ÷ A:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — B's median is better than A's by more than the bound;
* ``same``       — within the bound;
* ``unresolved`` — the run-to-run spread of either side (distance
  between its quartiles over its median; needs ≥ 4 repeats) exceeds the
  bound, and the two sides' runs overlap, so the bound cannot be applied.

``failed_ops_share`` is exact: any increase is ``worse``.  Every ratio
is printed with its base (A's median).  Exit code 1 when any row is
``worse``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import spec  # noqa: E402


def _samples(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) → one value per untraced repeat."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, entry in run.get("end_to_end", {}).items():
            table.setdefault((run["workload"], name), []).append(entry["value"])
    return table


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 4 runs)."""
    if len(values) < 4:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def compare(a_runs: list[dict], b_runs: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows for every pair both sides report, plus exact-counter mismatches."""
    a_table, b_table = _samples(a_runs), _samples(b_runs)
    rows = []
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            key = (workload, metric.name)
            if key not in a_table or key not in b_table:
                continue
            a_values, b_values = a_table[key], b_table[key]
            base, other = statistics.median(a_values), statistics.median(b_values)
            ratio = other / base if base else float("nan")
            delta = other - base if metric.better == "lower" else base - other
            if base:
                worse_by = delta / abs(base)
            else:
                worse_by = 0.0 if delta == 0 else math.copysign(math.inf, delta)
            spread = max(_spread(a_values), _spread(b_values))
            separated = (
                max(b_values) < min(a_values) or min(b_values) > max(a_values)
            )
            if metric.bound and spread > metric.bound and not separated:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "worse"
            elif -worse_by > metric.bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "base": base, "other": other, "ratio": ratio, "bound": metric.bound,
                "spread": spread, "runs": (len(a_values), len(b_values)),
                "verdict": verdict,
            })
    return rows, exact_mismatches(a_runs, b_runs)


def exact_mismatches(a_runs: list[dict], b_runs: list[dict]) -> list[str]:
    """Counters that must repeat exactly between fixed-count traced runs."""

    def exact_of(runs: list[dict]) -> dict[str, dict]:
        return {
            run["workload"]: run["exact"]
            for run in runs
            if run.get("exact") and "cycles" in run["mode"]
        }

    a_exact, b_exact = exact_of(a_runs), exact_of(b_runs)
    problems = []
    for workload in sorted(set(a_exact) & set(b_exact)):
        for name in spec.EXACT_COUNTERS:
            left, right = a_exact[workload].get(name), b_exact[workload].get(name)
            if left != right:
                problems.append(f"{workload} {name}: {left} != {right}")
    return problems


def render(rows: list[dict], a_label: str = "A", b_label: str = "B") -> str:
    lines = [
        f"{'workload':22s} {'metric':24s} {a_label + ' (base)':>14s} {b_label:>14s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:24s} {row['base']:>14.6g} "
            f"{row['other']:>14.6g} {row['ratio']:>7.3f} {row['bound']:>6.2f} "
            f"{row['spread']:>7.3f}  {row['verdict']} [{row['unit']}, "
            f"n={row['runs'][0]}/{row['runs'][1]}]"
        )
    return "\n".join(lines)


def render_single(runs: list[dict]) -> str:
    """The end-to-end table of one set: metric rows × workload columns."""
    table = _samples(runs)
    names = list(spec.WORKLOADS)
    lines = [f"{'metric':24s} {'unit':6s} " + " ".join(f"{n[:20]:>20s}" for n in names)]
    for metric in spec.END_TO_END:
        cells = []
        for workload in names:
            values = table.get((workload, metric.name))
            cells.append(f"{statistics.median(values):>20.6g}" if values else f"{'-':>20s}")
        lines.append(f"{metric.name:24s} {metric.unit:6s} " + " ".join(cells))
    shares = []
    for workload in names:
        found = [
            run["per_layer"]["resilience.check_share"]["value"]
            for run in runs
            if run["workload"] == workload and run.get("per_layer")
        ]
        shares.append(f"{statistics.median(found):>20.6g}" if found else f"{'-':>20s}")
    lines.append(f"{'resilience.check_share':24s} {'ratio':6s} " + " ".join(shares))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fp:
            documents.append(json.load(fp)["runs"])
    rows, mismatches = compare(*documents)
    print(render(rows, os.path.basename(argv[0]), os.path.basename(argv[1])))
    for mismatch in mismatches:
        print(f"exact counter differs: {mismatch}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

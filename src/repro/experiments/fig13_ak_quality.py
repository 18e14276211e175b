"""Figure 13: A(k)-index quality of the *simple* algorithm (no recon).

The simple baseline only ever splits, so without reconstructions the
A(k)-index "blows up rapidly, especially for small k's" — small k means
coarse inodes, and every nearby update shatters them further from the
minimum.  Split/merge holds 0 % by Theorem 2, so the paper plots only the
simple algorithm; we do the same (and assert split/merge's zero in the
test-suite rather than plotting a flat line).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_table
from repro.experiments.runner import MixedRunResult, run_mixed_updates
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.index.stability import minimum_ak_size
from repro.maintenance.ak_simple import SimpleAkMaintainer
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

WORKLOAD_SEED = 43


@dataclass
class Fig13Result:
    """One quality series per k."""

    dataset: str
    runs: dict[int, MixedRunResult]


def run(scale: ExperimentScale) -> Fig13Result:
    """Run the Figure 13 experiment: simple algorithm, k in scale.ks."""
    runs: dict[int, MixedRunResult] = {}
    for k in scale.ks:
        graph = generate_xmark(scale.xmark_at(1.0)).graph
        workload = MixedUpdateWorkload.prepare(graph, seed=WORKLOAD_SEED)
        index = StructuralIndex.from_partition(
            graph, blocks_of(ak_class_maps(graph, k)[k])
        )
        maintainer = SimpleAkMaintainer(index, k)
        runs[k] = run_mixed_updates(
            name=f"simple A({k})",
            maintainer=maintainer,
            workload=workload,
            num_pairs=scale.pairs_ak,
            sample_every=scale.sample_every,
            minimum_size_fn=lambda g, k=k: minimum_ak_size(g, k),
        )
    return Fig13Result(dataset="XMark(1)", runs=runs)


def report(result: Fig13Result) -> str:
    """Render one quality column per k."""
    ks = sorted(result.runs)
    length = min(len(result.runs[k].points) for k in ks) if ks else 0
    rows = []
    for i in range(length):
        update = result.runs[ks[0]].points[i].update
        rows.append(
            [update]
            + [f"{result.runs[k].points[i].quality * 100:.2f}%" for k in ks]
        )
    table = format_table(
        ["updates"] + [f"A({k})" for k in ks],
        rows,
    )
    final = format_table(
        ["k", "final quality", "splits"],
        [
            (
                k,
                f"{result.runs[k].final_quality * 100:.2f}%",
                result.runs[k].total_splits,
            )
            for k in ks
        ],
    )
    return "\n".join(
        [
            f"Figure 13 — A(k) quality of the simple algorithm ({result.dataset}, "
            "no reconstructions)",
            table,
            "",
            final,
        ]
    )


def main(scale: ExperimentScale) -> str:
    """Run and render (the harness entry point)."""
    return report(run(scale))

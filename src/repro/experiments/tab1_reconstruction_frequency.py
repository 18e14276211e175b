"""Table 1: how often the simple A(k) algorithm must reconstruct.

With the 5 % trigger, the paper reports the average number of updates
between two consecutive reconstructions over 2000 updates:

    dataset   A(2)   A(3)   A(4)    A(5)
    XMark     18.6   25.8   46.6    85.2
    IMDB      32.2   69     126.4   142.2

Small k reconstructs most often (coarse inodes shatter fastest), and the
interval grows with k — the shape the reproduction checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_mixed_updates
from repro.graph.datagraph import DataGraph
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.index.stability import minimum_ak_size
from repro.maintenance.ak_simple import SimpleAkMaintainer
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.workload.imdb import generate_imdb
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

WORKLOAD_SEED = 43


@dataclass
class Tab1Result:
    """Mean updates between reconstructions, per dataset and k."""

    intervals: dict[str, dict[int, float]]
    reconstructions: dict[str, dict[int, int]]
    total_updates: int


def _graph_for(dataset: str, scale: ExperimentScale) -> DataGraph:
    if dataset == "XMark":
        return generate_xmark(scale.xmark_at(1.0)).graph
    if dataset == "IMDB":
        return generate_imdb(scale.imdb).graph
    raise ValueError(f"unknown dataset {dataset!r}")


def run(scale: ExperimentScale) -> Tab1Result:
    """Run the Table 1 experiment at the given scale."""
    intervals: dict[str, dict[int, float]] = {}
    recon_counts: dict[str, dict[int, int]] = {}
    for dataset in ("XMark", "IMDB"):
        intervals[dataset] = {}
        recon_counts[dataset] = {}
        for k in scale.ks:
            graph = _graph_for(dataset, scale)
            workload = MixedUpdateWorkload.prepare(graph, seed=WORKLOAD_SEED)
            index = StructuralIndex.from_partition(
                graph, blocks_of(ak_class_maps(graph, k)[k])
            )
            maintainer = SimpleAkMaintainer(index, k)
            policy = ReconstructionPolicy(threshold=scale.reconstruct_threshold)
            result = run_mixed_updates(
                name=f"{dataset}/simple A({k})",
                maintainer=maintainer,
                workload=workload,
                num_pairs=scale.pairs_ak,
                sample_every=10**9,  # Table 1 needs no quality samples
                minimum_size_fn=lambda g, k=k: minimum_ak_size(g, k),
                policy=policy,
                reconstruct=maintainer.reconstruct,
            )
            intervals[dataset][k] = policy.mean_interval
            recon_counts[dataset][k] = result.reconstructions
    return Tab1Result(
        intervals=intervals,
        reconstructions=recon_counts,
        total_updates=2 * scale.pairs_ak,
    )


def report(result: Tab1Result) -> str:
    """Render the table in the paper's layout."""
    ks = sorted(next(iter(result.intervals.values())))
    rows = []
    for dataset, per_k in result.intervals.items():
        rows.append(
            [dataset]
            + [
                "-" if per_k[k] == float("inf") else f"{per_k[k]:.1f}"
                for k in ks
            ]
        )
    table = format_table(["dataset"] + [f"A({k})" for k in ks], rows)
    return (
        f"Table 1 — average updates between reconstructions for the simple "
        f"algorithm ({result.total_updates} updates, 5% trigger)\n" + table
    )


def main(scale: ExperimentScale) -> str:
    """Run and render (the harness entry point)."""
    return report(run(scale))

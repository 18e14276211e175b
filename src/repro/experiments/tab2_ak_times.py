"""Table 2: average update times of the A(k) maintainers.

The paper's numbers (ms per update over 2000 updates, Java, 2.4 GHz):

    k                               2     3     4     5
    split/merge (XMark)            31    33    34    44
    simple+reconstruction (XMark)  42   203   566   675
    split/merge (IMDB)            112   115   127   153
    simple+reconstruction (IMDB)  176   305   342  1030

The shapes the reproduction checks: split/merge is nearly flat in k
(thanks to the refinement-tree organisation of Section 6), while
simple+reconstruction grows steeply — the by-definition k-bisimilarity
recomputation is exponential in k and the reconstructions pile on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_table
from repro.experiments.runner import MixedRunResult, run_mixed_updates
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.construction import ak_class_maps, blocks_of
from repro.index.stability import minimum_ak_size
from repro.maintenance.ak_simple import SimpleAkMaintainer
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.workload.imdb import generate_imdb
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

WORKLOAD_SEED = 43

ALGORITHMS = ("split/merge", "simple+reconstruction")


@dataclass
class Tab2Result:
    """Mean per-update milliseconds, per (algorithm, dataset, k)."""

    times_ms: dict[tuple[str, str, int], float]
    runs: dict[tuple[str, str, int], MixedRunResult]
    ks: tuple[int, ...]
    total_updates: int


def _graph_for(dataset: str, scale: ExperimentScale) -> DataGraph:
    if dataset == "XMark":
        return generate_xmark(scale.xmark_at(1.0)).graph
    if dataset == "IMDB":
        return generate_imdb(scale.imdb).graph
    raise ValueError(f"unknown dataset {dataset!r}")


def run(scale: ExperimentScale) -> Tab2Result:
    """Run the Table 2 experiment at the given scale."""
    times: dict[tuple[str, str, int], float] = {}
    runs: dict[tuple[str, str, int], MixedRunResult] = {}
    for dataset in ("XMark", "IMDB"):
        for k in scale.ks:
            for algorithm in ALGORITHMS:
                graph = _graph_for(dataset, scale)
                workload = MixedUpdateWorkload.prepare(graph, seed=WORKLOAD_SEED)
                policy = None
                reconstruct = None
                if algorithm == "split/merge":
                    maintainer = AkSplitMergeMaintainer(AkIndexFamily.build(graph, k))
                else:
                    index = StructuralIndex.from_partition(
                        graph, blocks_of(ak_class_maps(graph, k)[k])
                    )
                    maintainer = SimpleAkMaintainer(index, k)
                    policy = ReconstructionPolicy(threshold=scale.reconstruct_threshold)
                    reconstruct = maintainer.reconstruct
                result = run_mixed_updates(
                    name=f"{dataset}/{algorithm}/A({k})",
                    maintainer=maintainer,
                    workload=workload,
                    num_pairs=scale.pairs_ak,
                    sample_every=10**9,
                    minimum_size_fn=lambda g, k=k: minimum_ak_size(g, k),
                    policy=policy,
                    reconstruct=reconstruct,
                )
                key = (algorithm, dataset, k)
                runs[key] = result
                times[key] = (
                    result.mean_update_with_recon_ms
                    if algorithm == "simple+reconstruction"
                    else result.mean_update_ms
                )
    return Tab2Result(
        times_ms=times, runs=runs, ks=tuple(scale.ks), total_updates=2 * scale.pairs_ak
    )


def report(result: Tab2Result) -> str:
    """Render the table in the paper's layout."""
    rows = []
    for dataset in ("XMark", "IMDB"):
        for algorithm in ALGORITHMS:
            rows.append(
                [f"{algorithm} ({dataset})"]
                + [f"{result.times_ms[(algorithm, dataset, k)]:.1f}" for k in result.ks]
            )
    table = format_table(["k"] + [str(k) for k in result.ks], rows)
    return (
        f"Table 2 — average running times over {result.total_updates} updates "
        "(ms per update)\n" + table
    )


def main(scale: ExperimentScale) -> str:
    """Run and render (the harness entry point)."""
    return report(run(scale))

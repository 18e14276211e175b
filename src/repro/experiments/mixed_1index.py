"""Shared setup for the 1-index mixed-update experiments (Figs 9–11).

Both maintainers must see the *identical* update sequence, so each gets
its own copy of the dataset (same seeds → same oids) and its own
:class:`MixedUpdateWorkload` (same seed → same pool and same random
draws).  The paper's protocol: pool 20 % of the IDREF edges, alternate
insert/delete, 5 % reconstruction trigger for *both* algorithms (on
cyclic data split/merge only guarantees minimality, so it gets the same
safety net — which in practice never fires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.datagraph import DataGraph
from repro.index.oneindex import OneIndex
from repro.index.stability import minimum_1index_size
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.reconstruction import (
    ReconstructionPolicy,
    reconstruct_via_index_graph,
)
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import MixedRunResult, run_mixed_updates
from repro.workload.imdb import generate_imdb
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

#: workload seed shared by every 1-index experiment
WORKLOAD_SEED = 71

ALGORITHMS = ("split/merge", "propagate")


@dataclass
class DatasetComparison:
    """Results of both algorithms on one dataset."""

    dataset: str
    num_dnodes: int
    num_dedges: int
    initial_index_size: int
    results: dict[str, MixedRunResult]


def _make_maintainer(algorithm: str, index: OneIndex):
    if algorithm == "split/merge":
        return SplitMergeMaintainer(index)
    if algorithm == "propagate":
        return PropagateMaintainer(index)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_dataset_comparison(
    dataset: str,
    graph_factory: Callable[[], DataGraph],
    scale: ExperimentScale,
) -> DatasetComparison:
    """Run split/merge and propagate over the same mixed workload."""
    results: dict[str, MixedRunResult] = {}
    shape: tuple[int, int, int] | None = None
    for algorithm in ALGORITHMS:
        graph = graph_factory()
        workload = MixedUpdateWorkload.prepare(graph, seed=WORKLOAD_SEED)
        index = OneIndex.build(graph)
        maintainer = _make_maintainer(algorithm, index)
        policy = ReconstructionPolicy(threshold=scale.reconstruct_threshold)
        results[algorithm] = run_mixed_updates(
            name=f"{dataset}/{algorithm}",
            maintainer=maintainer,
            workload=workload,
            num_pairs=scale.pairs_1index,
            sample_every=scale.sample_every,
            minimum_size_fn=minimum_1index_size,
            policy=policy,
            reconstruct=lambda idx=index: reconstruct_via_index_graph(idx),
        )
        if shape is None:
            shape = (graph.num_nodes, graph.num_edges, index.num_inodes)
    assert shape is not None
    return DatasetComparison(
        dataset=dataset,
        num_dnodes=shape[0],
        num_dedges=shape[1],
        initial_index_size=shape[2],
        results=results,
    )


def imdb_factory(scale: ExperimentScale) -> Callable[[], DataGraph]:
    """A fresh IMDB graph per call (identical across calls)."""
    return lambda: generate_imdb(scale.imdb).graph


def xmark_factory(scale: ExperimentScale, cyclicity: float) -> Callable[[], DataGraph]:
    """A fresh XMark(c) graph per call (identical across calls)."""
    return lambda: generate_xmark(scale.xmark_at(cyclicity)).graph

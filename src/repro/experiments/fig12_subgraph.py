"""Figure 12: 1-index quality over a sequence of subgraph additions.

Protocol (Section 7.1): extract ~500 auction subtrees from XMark (no
IDREF traversal, ~50 dnodes each), delete them all, rebuild the index,
then re-add them one at a time with three alternatives:

1. ``add_1_index_subgraph`` (Figure 6) driven by split/merge — keeps
   quality "at 0 % almost all the time";
2. the same skeleton but with *propagate* inserting the edges — quality
   keeps growing and is sensitive to the data's structure;
3. full reconstruction after every addition — always minimum, but
   "more than 100 times slower".

The reproduction reports the quality series of (1) and (2) and the mean
per-addition times of all three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_quality_series, format_table
from repro.experiments.runner import SeriesPoint
from repro.graph.datagraph import DataGraph
from repro.index.oneindex import OneIndex
from repro.index.stability import minimum_1index_size
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.reconstruction import reconstruct_from_scratch
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.workload.updates import (
    ExtractedSubgraph,
    average_size,
    extract_subgraphs,
    remove_subgraph_raw,
)
from repro.workload.xmark import generate_xmark

#: label of the subtree roots the paper extracts ("auction" dnodes)
SUBTREE_LABEL = "open_auction"

ALTERNATIVES = ("split/merge", "propagate", "reconstruction")


@dataclass
class SubgraphRun:
    """One alternative's quality series and timing."""

    name: str
    points: list[SeriesPoint] = field(default_factory=list)
    additions: int = 0
    total_seconds: float = 0.0

    @property
    def mean_ms_per_subgraph(self) -> float:
        """Mean wall-clock per subgraph addition."""
        if self.additions == 0:
            return 0.0
        return self.total_seconds / self.additions * 1000

    @property
    def max_quality(self) -> float:
        """Worst sampled quality."""
        if not self.points:
            return 0.0
        return max(p.quality for p in self.points)


@dataclass
class Fig12Result:
    """All three alternatives plus the workload description."""

    num_subgraphs: int
    mean_subgraph_size: float
    runs: dict[str, SubgraphRun]


def _prepared_graph(scale: ExperimentScale) -> tuple[DataGraph, list[ExtractedSubgraph]]:
    """An XMark graph with the subtrees already cut out."""
    dataset = generate_xmark(scale.xmark_at(1.0))
    extracted = extract_subgraphs(
        dataset.graph, SUBTREE_LABEL, scale.num_subgraphs, seed=23
    )
    for item in extracted:
        remove_subgraph_raw(dataset.graph, item)
    return dataset.graph, extracted


def run(scale: ExperimentScale) -> Fig12Result:
    """Run the Figure 12 experiment at the given scale."""
    runs: dict[str, SubgraphRun] = {}
    sample_every = max(1, scale.num_subgraphs // 10)
    extracted_reference: list[ExtractedSubgraph] | None = None

    for alternative in ALTERNATIVES:
        graph, extracted = _prepared_graph(scale)
        if extracted_reference is None:
            extracted_reference = extracted
        index = OneIndex.build(graph)
        run_record = SubgraphRun(name=alternative)
        maintainer: SplitMergeMaintainer | PropagateMaintainer | None
        if alternative == "split/merge":
            maintainer = SplitMergeMaintainer(index)
        elif alternative == "propagate":
            maintainer = PropagateMaintainer(index)
        else:
            maintainer = None

        for number, item in enumerate(extracted, 1):
            started = time.perf_counter()
            if maintainer is not None:
                maintainer.add_subgraph(item.subgraph, item.root, item.cross_edges)
            else:
                mapping = graph.add_subgraph(item.subgraph)
                for a, b, kind in item.cross_edges:
                    graph.add_edge(mapping.get(a, a), mapping.get(b, b), kind)
                reconstruct_from_scratch(index)
            run_record.total_seconds += time.perf_counter() - started
            run_record.additions += 1
            if number % sample_every == 0:
                run_record.points.append(
                    SeriesPoint(
                        update=number,
                        index_size=index.num_inodes,
                        minimum_size=minimum_1index_size(graph),
                    )
                )
        runs[alternative] = run_record

    assert extracted_reference is not None
    return Fig12Result(
        num_subgraphs=len(extracted_reference),
        mean_subgraph_size=average_size(extracted_reference),
        runs=runs,
    )


def report(result: Fig12Result) -> str:
    """Render the quality series and the timing table."""
    series = {
        name: run_record.points
        for name, run_record in result.runs.items()
        if name != "reconstruction"  # always 0% by construction
    }
    timing = format_table(
        ["alternative", "ms/subgraph", "max quality"],
        [
            (name, f"{r.mean_ms_per_subgraph:.1f}", f"{r.max_quality * 100:.2f}%")
            for name, r in result.runs.items()
        ],
    )
    return "\n".join(
        [
            "Figure 12 — 1-index quality during subgraph additions (XMark)",
            f"{result.num_subgraphs} subgraphs, "
            f"average size {result.mean_subgraph_size:.1f} dnodes",
            "",
            format_quality_series("quality after N additions", series),
            "",
            timing,
        ]
    )


def main(scale: ExperimentScale) -> str:
    """Run and render (the harness entry point)."""
    return report(run(scale))

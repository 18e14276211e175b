"""Scenario: bulk-loading documents as subgraph additions (Section 5.2).

New auctions arrive as whole XML fragments, not as one edge at a time.
Figure 6's ``add_1_index_subgraph`` builds the fragment's own 1-index
first, grafts it into the live index, batches the incoming edges to the
fragment root and merges once — much cheaper than edge-by-edge insertion
and still provably minimal (Corollary 1).

This script extracts real auction subtrees from an XMark-like database,
deletes them, and re-loads them through three pipelines (split/merge,
edge-by-edge split/merge, full reconstruction), comparing cost and
quality.  It finishes by *deleting* a batch of subtrees through the
maintainer, the paper's DELETE-label trick made concrete.

Run with::

    python examples/bulk_loading_subgraphs.py
"""

from __future__ import annotations

import time

from repro import OneIndex
from repro.index.stability import is_minimal_1index, is_minimum_1index, minimum_1index_size
from repro.maintenance import SplitMergeMaintainer, reconstruct_from_scratch
from repro.metrics import quality_from_sizes
from repro.workload import (
    XMarkConfig,
    average_size,
    extract_subgraphs,
    generate_xmark,
    remove_subgraph_raw,
)

CONFIG = XMarkConfig(
    num_items=120,
    num_persons=160,
    num_open_auctions=100,
    num_closed_auctions=60,
    num_categories=25,
)
NUM_SUBGRAPHS = 40


def prepared():
    dataset = generate_xmark(CONFIG)
    extracted = extract_subgraphs(
        dataset.graph, "open_auction", NUM_SUBGRAPHS, seed=31
    )
    for item in extracted:
        remove_subgraph_raw(dataset.graph, item)
    return dataset.graph, extracted


def load_with(pipeline: str) -> tuple[float, float]:
    """Re-load all subtrees; return (seconds, final quality)."""
    graph, extracted = prepared()
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)
    started = time.perf_counter()
    for item in extracted:
        if pipeline == "figure-6":
            maintainer.add_subgraph(item.subgraph, item.root, item.cross_edges)
        elif pipeline == "edge-by-edge":
            # nodes arrive bare, then every edge (internal and cross) is a
            # separate insert_1_index_edge call
            sub = item.subgraph
            mapping = {w: graph.add_node(sub.label(w), sub.value(w)) for w in sub.nodes()}
            index.absorb_blocks([[oid] for oid in mapping.values()])
            for u, v in sub.edges():
                maintainer.insert_edge(mapping[u], mapping[v])
            for a, b, kind in item.cross_edges:
                maintainer.insert_edge(mapping.get(a, a), mapping.get(b, b), kind)
        else:  # full reconstruction per fragment
            mapping = graph.add_subgraph(item.subgraph)
            for a, b, kind in item.cross_edges:
                graph.add_edge(mapping.get(a, a), mapping.get(b, b), kind)
            reconstruct_from_scratch(index)
    elapsed = time.perf_counter() - started
    quality = quality_from_sizes(index.num_inodes, minimum_1index_size(graph))
    assert is_minimal_1index(index) or pipeline == "edge-by-edge"
    return elapsed, quality


def main() -> None:
    graph, extracted = prepared()
    print(
        f"{len(extracted)} auction subtrees extracted "
        f"(average size {average_size(extracted):.1f} dnodes)"
    )

    print(f"\n{'pipeline':<16} {'seconds':>8} {'final quality':>14}")
    for pipeline in ("figure-6", "edge-by-edge", "reconstruction"):
        elapsed, quality = load_with(pipeline)
        print(f"{pipeline:<16} {elapsed:>8.3f} {quality:>13.2%}")

    # Subgraph deletion through the maintainer (Section 5.2's last note).
    graph, extracted = prepared()
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)
    roots = []
    for item in extracted[:10]:
        mapping, _ = maintainer.add_subgraph(
            item.subgraph, item.root, item.cross_edges
        )
        roots.append(mapping[item.root])
    for root in roots:
        maintainer.delete_subgraph(root)
    print(
        f"\nafter loading and deleting 10 subtrees the index is minimal: "
        f"{is_minimal_1index(index)}, minimum: {is_minimum_1index(index)}"
    )


if __name__ == "__main__":
    main()

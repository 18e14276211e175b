"""Scenario: an auction site whose reference graph churns continuously.

This is the workload the paper's introduction motivates: people watch and
un-watch open auctions all day, and the structural index serving path
queries must stay both *correct* and *small* without ever being taken
offline for reconstruction.

The script replays a mixed insert/delete stream over a synthetic
XMark-like database with the paper's split/merge algorithm and with the
propagate baseline side by side, printing the index quality as it
evolves — a hands-on miniature of Figure 10.

Run with::

    python examples/auction_site_maintenance.py
"""

from __future__ import annotations

from repro import OneIndex
from repro.index.stability import minimum_1index_size
from repro.maintenance import (
    PropagateMaintainer,
    ReconstructionPolicy,
    SplitMergeMaintainer,
    reconstruct_via_index_graph,
)
from repro.metrics import quality_from_sizes
from repro.workload import MixedUpdateWorkload, XMarkConfig, generate_xmark

CONFIG = XMarkConfig(
    num_items=150,
    num_persons=200,
    num_open_auctions=120,
    num_closed_auctions=80,
    num_categories=30,
    cyclicity=1.0,
)
PAIRS = 150
SAMPLE_EVERY = 30


def run(algorithm: str) -> list[tuple[int, float, int]]:
    """Replay the stream; return (update#, quality, reconstructions)."""
    dataset = generate_xmark(CONFIG)
    graph = dataset.graph
    workload = MixedUpdateWorkload.prepare(graph, seed=11)
    index = OneIndex.build(graph)
    if algorithm == "split/merge":
        maintainer = SplitMergeMaintainer(index)
    else:
        maintainer = PropagateMaintainer(index)
    policy = ReconstructionPolicy()
    policy.start(index.num_inodes)

    samples = []
    for number, (op, u, v) in enumerate(workload.steps(PAIRS), 1):
        if op == "insert":
            maintainer.insert_edge(u, v)
        else:
            maintainer.delete_edge(u, v)
        if policy.should_reconstruct(index.num_inodes):
            reconstruct_via_index_graph(index)
            policy.reconstructed(index.num_inodes)
        if number % SAMPLE_EVERY == 0:
            quality = quality_from_sizes(index.num_inodes, minimum_1index_size(graph))
            samples.append((number, quality, policy.reconstructions))
    return samples


def main() -> None:
    dataset = generate_xmark(CONFIG)
    print(dataset.summary())
    print(f"replaying {2 * PAIRS} watch/unwatch updates "
          f"(5% reconstruction trigger)\n")

    runs = {name: run(name) for name in ("split/merge", "propagate")}
    print(f"{'updates':>8}  {'split/merge':>12}  {'propagate':>10}  {'recons(prop)':>12}")
    for i, (number, sm_quality, _) in enumerate(runs["split/merge"]):
        _, pr_quality, pr_recons = runs["propagate"][i]
        print(
            f"{number:>8}  {sm_quality:>11.2%}  {pr_quality:>9.2%}  {pr_recons:>12}"
        )
    print(
        "\nsplit/merge holds the index at the minimum while propagate "
        "drifts and periodically falls back to reconstruction — "
        "the behaviour of the paper's Figures 9-10."
    )


if __name__ == "__main__":
    main()

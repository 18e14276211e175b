"""Scenario: path queries over a cyclic, cross-referenced movie database.

IMDB-style data is where structural indexes earn their keep: the cast /
filmography references make the graph cyclic and irregular, so the
1-index barely compresses it — exactly the situation the A(k)-index was
invented for (Section 3).  This script:

1. generates the clustered IMDB-like dataset of Section 7;
2. compares the sizes of the data graph, the 1-index and A(k) for
   k = 1..4;
3. runs a batch of path queries through every summary, showing that the
   1-index is precise, that the raw A(k) answer can overshoot on queries
   longer than k, and that validation repairs it at a cost proportional
   to the candidate set.

Run with::

    python examples/movie_database_queries.py
"""

from __future__ import annotations

from repro import AkIndexFamily, OneIndex
from repro.query import evaluate_on_ak, evaluate_on_graph, evaluate_on_index
from repro.workload import IMDBConfig, generate_imdb

CONFIG = IMDBConfig(num_movies=250, num_persons=350, num_communities=12)

QUERIES = (
    "/imdb/movies/movie/title",
    "/imdb/people/person/name",
    "/imdb/movies/movie/actorref/person",
    "/imdb/movies/movie/actorref/person/name",
    "//movieref/movie/title",
    "//person/filmography/movieref/movie",
)


def main() -> None:
    dataset = generate_imdb(CONFIG)
    graph = dataset.graph
    print(dataset.summary())

    one_index = OneIndex.build(graph)
    families = {k: AkIndexFamily.build(graph, k) for k in (1, 2, 3, 4)}

    print("\nsummary sizes (nodes):")
    print(f"  data graph     {graph.num_nodes:>7}")
    print(f"  1-index        {one_index.num_inodes:>7}")
    for k, family in families.items():
        print(f"  A({k})-index    {family.num_inodes(k):>7}")

    k = 2
    ak_index = families[k].level_index()
    print(f"\nqueries (A(k) column uses k = {k}):")
    header = f"{'query':<46} {'truth':>6} {'1-idx':>6} {'A(k) raw':>9} {'validated':>10}"
    print(header)
    print("-" * len(header))
    for query in QUERIES:
        truth = evaluate_on_graph(graph, query).matches
        via_one = evaluate_on_index(one_index, query).matches
        raw = evaluate_on_ak(ak_index, k, query, validate=False).matches
        checked = evaluate_on_ak(ak_index, k, query)
        marker = "=" if raw == truth else f"+{len(raw) - len(truth)}"
        print(
            f"{query:<46} {len(truth):>6} {len(via_one):>6} "
            f"{len(raw):>7}{marker:>2} {len(checked.matches):>10}"
        )
        assert via_one == truth, "the 1-index must be precise"
        assert checked.matches == truth, "validated A(k) must be exact"

    print(
        "\nthe 1-index column always equals the truth; the raw A(k) column "
        "may overshoot on queries longer than k, and the Section 3 "
        "validation pass brings it back to exact."
    )


if __name__ == "__main__":
    main()

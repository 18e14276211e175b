"""Synthetic datasets, update workloads (the Section 7 protocol) and
seeded query workloads.

The closed-loop load drivers the serving suites run are test code and
live under ``tests/`` (``tests/workload/sessions.py``,
``tests/corpus/churn_workload.py``); ``bench/`` drives the served
benchmark.
"""

from repro.workload.documents import split_into_documents
from repro.workload.imdb import GENRES, IMDBConfig, IMDBDataset, generate_imdb
from repro.workload.random_graphs import (
    WorstCaseGadget,
    candidate_edges,
    random_cyclic,
    random_dag,
    random_tree,
    worst_case_gadget,
)
from repro.workload.queries import QueryWorkload
from repro.workload.updates import (
    ExtractedSubgraph,
    MixedUpdateWorkload,
    average_size,
    extract_subgraphs,
    remove_subgraph_raw,
)
from repro.workload.xmark import REGIONS, XMarkConfig, XMarkDataset, generate_xmark

__all__ = [
    "XMarkConfig",
    "XMarkDataset",
    "generate_xmark",
    "REGIONS",
    "IMDBConfig",
    "IMDBDataset",
    "generate_imdb",
    "GENRES",
    "random_tree",
    "random_dag",
    "random_cyclic",
    "candidate_edges",
    "WorstCaseGadget",
    "worst_case_gadget",
    "MixedUpdateWorkload",
    "QueryWorkload",
    "ExtractedSubgraph",
    "extract_subgraphs",
    "remove_subgraph_raw",
    "average_size",
    "split_into_documents",
]

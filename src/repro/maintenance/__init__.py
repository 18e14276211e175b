"""Incremental index maintenance: the paper's algorithms and baselines."""

from repro.index.akindex import AkIndexFamily
from repro.maintenance.ak_simple import SimpleAkMaintainer
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.base import MaintenanceTotals, Maintainer, UpdateStats
from repro.maintenance.operations import OPERATIONS, Operation
from repro.maintenance.propagate import PropagateMaintainer
from repro.maintenance.reconstruction import (
    DEFAULT_THRESHOLD,
    ReconstructionPolicy,
    quotient_graph,
    reconstruct_from_scratch,
    reconstruct_via_index_graph,
)
from repro.maintenance.split_merge import SplitMergeMaintainer


def maintainer_for(structure) -> "SplitMergeMaintainer | AkSplitMergeMaintainer":
    """The split/merge maintainer of *structure*'s kind (Figure 3 or Figure 7)."""
    if structure.kind == AkIndexFamily.kind:
        return AkSplitMergeMaintainer(structure)
    return SplitMergeMaintainer(structure)


__all__ = [
    "Maintainer",
    "maintainer_for",
    "UpdateStats",
    "MaintenanceTotals",
    "OPERATIONS",
    "Operation",
    "SplitMergeMaintainer",
    "PropagateMaintainer",
    "AkSplitMergeMaintainer",
    "SimpleAkMaintainer",
    "ReconstructionPolicy",
    "reconstruct_via_index_graph",
    "reconstruct_from_scratch",
    "quotient_graph",
    "DEFAULT_THRESHOLD",
]

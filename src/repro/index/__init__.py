"""Structural indexes: representation, construction, validity oracles."""

from repro.index.akindex import AkIndexFamily, AkLevel
from repro.index.base import StructuralIndex
from repro.index.construction import (
    SplitStats,
    ak_class_maps,
    bisimulation_partition,
    blocks_of,
    label_partition,
    partition_index,
    stabilize,
    stabilize_from_labels,
)
from repro.index.oneindex import OneIndex
from repro.index.serialize import (
    dump_index,
    family_from_dict,
    family_to_dict,
    index_from_dict,
    index_to_dict,
    load_index,
    structure_from_dict,
    structure_to_dict,
)
from repro.index.stability import (
    is_minimal_1index,
    is_minimum_1index,
    is_minimum_ak,
    is_refinement,
    is_self_stable,
    is_stable_wrt,
    is_valid_1index,
    mergeable_pairs,
    minimum_1index_size,
    minimum_ak_size,
    unstable_pairs,
)
from repro.index.structure import KINDS, Structure, build_structure

__all__ = [
    "Structure",
    "KINDS",
    "build_structure",
    "structure_to_dict",
    "structure_from_dict",
    "StructuralIndex",
    "OneIndex",
    "AkIndexFamily",
    "AkLevel",
    "SplitStats",
    "label_partition",
    "bisimulation_partition",
    "ak_class_maps",
    "blocks_of",
    "partition_index",
    "stabilize",
    "stabilize_from_labels",
    "is_stable_wrt",
    "is_self_stable",
    "is_valid_1index",
    "is_minimal_1index",
    "is_minimum_1index",
    "is_minimum_ak",
    "is_refinement",
    "mergeable_pairs",
    "unstable_pairs",
    "minimum_1index_size",
    "minimum_ak_size",
    "index_to_dict",
    "index_from_dict",
    "family_to_dict",
    "family_from_dict",
    "dump_index",
    "load_index",
]

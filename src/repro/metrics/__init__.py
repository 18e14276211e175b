"""Metrics: index quality (Section 3) and storage (Table 3)."""

from repro.metrics.quality import (
    ak_family_quality,
    ak_index_quality,
    minimum_1index_size_of,
    minimum_ak_size_of,
    one_index_quality,
    quality_from_sizes,
)
from repro.metrics.storage import UNIT_BYTES, StorageEstimate, estimate_storage

__all__ = [
    "quality_from_sizes",
    "one_index_quality",
    "ak_index_quality",
    "ak_family_quality",
    "minimum_1index_size_of",
    "minimum_ak_size_of",
    "StorageEstimate",
    "estimate_storage",
    "UNIT_BYTES",
]

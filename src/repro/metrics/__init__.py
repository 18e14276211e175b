"""Metrics: index quality (Section 3), storage (Table 3), timing."""

from repro.metrics.quality import (
    ak_family_quality,
    ak_index_quality,
    minimum_1index_size_of,
    minimum_ak_size_of,
    one_index_quality,
    quality_from_sizes,
)
from repro.metrics.storage import UNIT_BYTES, StorageEstimate, estimate_storage
from repro.metrics.timing import max_ms, mean_ms, p50_ms, p95_ms

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
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "max_ms",
]

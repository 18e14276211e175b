"""Adaptive serving: ladder routing, footprint caching, closed-loop control.

The subsystem between queries and :class:`repro.service.IndexService`
(DESIGN.md §12).  Four cooperating pieces:

* :mod:`repro.adaptive.ladder` — derive coarser A(j) evaluation
  surfaces from the published leaf snapshot per commit;
* :mod:`repro.adaptive.router` — classify each path expression and
  dispatch it to the smallest level that answers exactly;
* :mod:`repro.adaptive.result_cache` — versioned result cache
  invalidated by TouchedSet/footprint intersection, not by flushing;
* :mod:`repro.adaptive.controller` — the closed loop: the paper's flat
  5 % reconstruction trigger on a 1-index, plus ladder retuning to
  demand.

Entry point: ``IndexService(graph, config, adaptive=AdaptiveConfig())``,
which attaches an :class:`AdaptivePlane` to the service.
"""

from repro.adaptive.controller import AdaptiveController, LadderAdvice
from repro.adaptive.ladder import (
    LadderState,
    build_ladder_state,
    invalidation_sets,
    validate_ladder_levels,
)
from repro.adaptive.result_cache import (
    CacheEntry,
    CacheStats,
    DEFAULT_CAPACITY,
    ResultCache,
)
from repro.adaptive.router import QueryRouter, Route, SAFE
from repro.adaptive.service import (
    AdaptiveConfig,
    AdaptiveIndexService,
    AdaptivePlane,
    default_ladder,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveIndexService",
    "AdaptivePlane",
    "CacheEntry",
    "CacheStats",
    "DEFAULT_CAPACITY",
    "LadderAdvice",
    "LadderState",
    "QueryRouter",
    "ResultCache",
    "Route",
    "SAFE",
    "build_ladder_state",
    "default_ladder",
    "invalidation_sets",
    "validate_ladder_levels",
]

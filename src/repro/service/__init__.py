"""``repro.service`` — concurrent index serving with snapshot reads.

The first layer where everything below composes: a runnable service
that owns a :class:`~repro.graph.datagraph.DataGraph` plus a 1-index or
A(k) family, answers path queries from **immutable published snapshots**
(swap-on-commit, so readers never see a half-applied update), and
drains a bounded update queue in **batched, coalesced, transactionally
guarded** commits (:mod:`repro.resilience`), all metered through
:mod:`repro.obs`.

Quickstart::

    from repro.service import IndexService, ServiceConfig, Update

    service = IndexService(graph, ServiceConfig(family="one"))
    service.submit(Update.insert_edge(u, v))
    service.flush()                       # commit + publish version 1
    answer = service.query("//person/name")
    answer.matches, answer.version

Drive it under load with ``bench/run.py``;
``examples/serving_stack.py`` composes it with every part it can hold.
"""

from repro.service.queue import (
    BoundedQueue,
    CoalesceStats,
    Update,
    coalesce,
)
from repro.service.service import (
    ADMISSION_POLICIES,
    FAMILIES,
    BatchResult,
    IndexService,
    ServedQuery,
    ServiceConfig,
    ServiceStats,
)
from repro.graph.frozen import FrozenGraph
from repro.index.frozen import FrozenIndex
from repro.service.snapshot import IndexSnapshot

__all__ = [
    "IndexService",
    "ServiceConfig",
    "ServiceStats",
    "ServedQuery",
    "BatchResult",
    "FAMILIES",
    "ADMISSION_POLICIES",
    "Update",
    "BoundedQueue",
    "coalesce",
    "CoalesceStats",
    "IndexSnapshot",
    "FrozenGraph",
    "FrozenIndex",
]

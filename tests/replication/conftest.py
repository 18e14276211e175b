"""Shared helpers for the replication suite.

Convergence is asserted through snapshot fingerprints: a follower "is"
the primary iff ``snapshot.fingerprint()`` bytes match at the same
version and LSN.  ``REPL_SEED`` (env var, default 0) shifts the torture
workload, the fault schedule and the kill point so the CI matrix
explores different failure interleavings per run.
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.resilience.faults import FaultInjector
from repro.service import IndexService, ServiceConfig, Update
from repro.store import StoreConfig

from tests.store.conftest import tiny_graph

#: CI failover matrix seed — shifts workload, faults and the kill point
REPL_SEED = int(os.environ.get("REPL_SEED", "0"))

#: the suite's default store: every acknowledged commit is on the
#: platter, which is what makes "zero acknowledged-commit loss" testable
DURABLE = StoreConfig(fsync="always", checkpoint_every_records=0)


@pytest.fixture
def store_dir(tmp_path) -> str:
    """A fresh, empty store directory."""
    path = tmp_path / "store"
    path.mkdir()
    return str(path)


def service_config(family: str = "one", **overrides) -> ServiceConfig:
    defaults = dict(family=family, k=2, batch_max_ops=4, queue_capacity=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def make_primary(
    directory: str,
    family: str = "one",
    graph=None,
    store_config: Optional[StoreConfig] = None,
    **config_overrides,
) -> IndexService:
    """A durable service over *directory*, ready to commit."""
    return IndexService(
        tiny_graph() if graph is None else graph,
        service_config(family, **config_overrides),
        store_dir=directory,
        store_config=store_config if store_config is not None else DURABLE,
    )


def commit_inserts(service: IndexService, count: int, tag: str = "n") -> None:
    """*count* single-op commits: one WAL record (and version) each."""
    node = min(service.graph.nodes())
    base = service.version
    for i in range(count):
        service.submit_nowait(Update.insert_node(node, tag, base + i))
        service.flush()


def every_fetch_fault(kind: str) -> FaultInjector:
    """An injector that mangles every replication round-trip with *kind*."""
    return FaultInjector(at_replication=1, replication_fault=kind, rearm=True)

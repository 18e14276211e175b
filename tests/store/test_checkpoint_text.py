"""The checkpoint is written as text off the slab core; the dict writers
are the reference it must equal, byte for byte.

Four pins:

* **differential** — ``*_to_json(x) == canonical(*_to_dict(x))`` over
  Hypothesis graphs (values of every JSON type, escape-heavy and
  non-ASCII strings and labels, sparse oids, freed and recycled slots,
  rootless and empty graphs) and over a seeded XMark churn that splits
  and merges inodes, deletes subtrees, recycles their slots and compacts
  the successor slab before each comparison (``CRASH_SEED`` moves it);
* **whole file** — ``write_checkpoint``'s bytes are ``seal`` of the dict
  document on those states;
* **no per-dnode accessor** — the public accessors the dict writers walk
  are not called once during ``write_checkpoint``, at 1x and at 4x;
* **no orphan** — a ``.tmp`` left by a fault before the rename is gone
  after the next checkpoint, and recovery reads the same state.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import canonical, seal
from repro.exceptions import InjectedFaultError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_to_dict, graph_to_json
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.index.serialize import (
    family_to_dict,
    family_to_json,
    index_to_dict,
    index_to_json,
    structure_to_dict,
    structure_to_json,
)
from repro.maintenance import maintainer_for
from repro.resilience.faults import FaultInjector
from repro.service import IndexService, Update
from repro.store import StoreConfig, recover
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    checkpoint_name,
    list_checkpoints,
    write_checkpoint,
)
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

from tests.store.conftest import CRASH_SEED, STORE_XMARK, tiny_graph

# ----------------------------------------------------------------------
# What the two writers must agree on
# ----------------------------------------------------------------------


def reference_document(graph, structure, *, wal_lsn: int, version: int) -> bytes:
    """The checkpoint file as the dict path wrote it before the emitters."""
    return seal(
        {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": structure.kind,
            "k": structure.k,
            "wal_lsn": wal_lsn,
            "version": version,
            "graph": graph_to_dict(graph),
            "index": structure_to_dict(structure),
        }
    ).encode("utf-8")


def assert_same_text(graph, structure, directory: str, lsn: int) -> None:
    assert graph_to_json(graph) == canonical(graph_to_dict(graph))
    assert structure_to_json(structure) == canonical(structure_to_dict(structure))
    path = write_checkpoint(directory, graph, structure, wal_lsn=lsn, version=lsn + 1)
    assert Path(path).read_bytes() == reference_document(
        graph, structure, wal_lsn=lsn, version=lsn + 1
    )


# ----------------------------------------------------------------------
# (a) Hypothesis: small graphs, every value type
# ----------------------------------------------------------------------

#: quotes, backslashes, controls, the separators JSON escapes, non-BMP
AWKWARD = st.text(alphabet='"\\/\n\t\x00\x1f\x7f  éÿ\U0001f600 a<&', max_size=8)
TEXT = st.text(max_size=6) | AWKWARD

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()  # NaN and the infinities included: both writers spell them alike
    | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),  # insertion order: unsorted keys
    max_leaves=5,
)

LABELS = st.sampled_from(["a", "b", "item", "é", "名前", 'q"uote', "back\\slash"]) | TEXT
#: oids on both sides of a 1024-entry page, and far out
OIDS = st.integers(0, 40) | st.integers(1020, 1030) | st.integers(0, 2**40)


@st.composite
def graphs(draw) -> DataGraph:
    graph = DataGraph()
    if draw(st.booleans()):
        graph.add_root(oid=draw(st.none() | OIDS))
    for oid in draw(st.lists(OIDS, unique=True, max_size=12)):
        if not graph.has_node(oid):
            graph.add_node(draw(LABELS), draw(JSON_VALUES), oid=oid)

    def add_edges() -> None:
        live = sorted(graph.nodes())
        if not live:
            return
        picks = st.tuples(st.sampled_from(live), st.sampled_from(live), st.sampled_from(EdgeKind))
        for source, target, kind in draw(st.lists(picks, max_size=16)):
            if not graph.has_edge(source, target) and not (
                graph.has_root and target == graph.root
            ):
                graph.add_edge(source, target, kind)

    add_edges()
    # free some slots, then let fresh nodes recycle them
    doomed = draw(st.lists(st.sampled_from(sorted(graph.nodes()) or [0]), max_size=4))
    graph.remove_nodes(doomed)
    for _ in range(draw(st.integers(0, 4))):
        graph.add_node(draw(LABELS), draw(JSON_VALUES))
    add_edges()
    return graph


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), k=st.integers(0, 3))
def test_the_emitters_write_the_canonical_text_of_the_dicts(graph, k):
    assert graph_to_json(graph) == canonical(graph_to_dict(graph))
    index = OneIndex.build(graph)
    assert index_to_json(index) == canonical(index_to_dict(index))
    assert structure_to_json(index) == canonical(structure_to_dict(index))
    family = AkIndexFamily.build(graph, k)
    assert family_to_json(family) == canonical(family_to_dict(family))
    assert structure_to_json(family) == canonical(structure_to_dict(family))


def test_empty_and_rootless_graphs(tmp_path):
    empty = DataGraph()
    rootless = DataGraph()
    rootless.add_edge(rootless.add_node("x", "é"), rootless.add_node("x"), EdgeKind.IDREF)
    for lsn, graph in enumerate((empty, rootless)):
        assert_same_text(graph, OneIndex.build(graph), str(tmp_path), 2 * lsn)
        assert_same_text(graph, AkIndexFamily.build(graph, 2), str(tmp_path), 2 * lsn + 1)


def test_a_value_that_is_not_json_fails_as_it_did(tmp_path):
    graph = tiny_graph()
    graph.set_value(min(graph.nodes()), {1, 2})
    with pytest.raises(TypeError):
        canonical(graph_to_dict(graph))
    with pytest.raises(TypeError):
        write_checkpoint(str(tmp_path), graph, OneIndex.build(graph), wal_lsn=1, version=1)
    assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# (a, b) Seeded churn: splits, merges, freed slots, a compacted slab
# ----------------------------------------------------------------------

CHURN_ROUNDS = 8
CHURN_VALUES = (None, "plain", 'é "quoted" \\ \n', 7, 2.5, True, {"z": [1, None], "a": "ü"}, [])


def _graft(maintainer, parent: int, rng: random.Random) -> int:
    """A four-node subtree under *parent*, values drawn from every type."""
    top, _ = maintainer.insert_node(parent, "item", rng.choice(CHURN_VALUES))
    for label in rng.sample(["name", "é", "item", 'q"uote'], 3):
        maintainer.insert_node(top, label, rng.choice(CHURN_VALUES))
    return top


@pytest.mark.parametrize("kind", ["one", "ak"])
def test_churned_states_checkpoint_byte_for_byte(kind, tmp_path):
    rng = random.Random(101 + CRASH_SEED)
    graph = generate_xmark(STORE_XMARK).graph
    updates = MixedUpdateWorkload.prepare(graph, seed=31 + CRASH_SEED)
    structure = OneIndex.build(graph) if kind == "one" else AkIndexFamily.build(graph, 2)
    maintainer = maintainer_for(structure)
    steps = updates.steps(10 * CHURN_ROUNDS)
    anchor = rng.choice([oid for oid in graph.nodes() if graph.out_degree(oid) >= 2])
    grafted = None
    slots_at_start = len(graph._oid_at)
    splits = merges = moves = recycled = 0
    assert_same_text(graph, structure, str(tmp_path), 0)
    for round_no in range(1, CHURN_ROUNDS + 1):
        for _ in range(6):
            op, source, target = next(steps)
            if op == "insert":
                stats = maintainer.insert_edge(source, target, EdgeKind.IDREF)
            else:
                stats = maintainer.delete_edge(source, target)
            splits, merges, moves = (
                splits + stats.splits, merges + stats.merges, moves + stats.moves
            )
        # cut the last round's graft (its slots go to the freelist), then
        # grow the next one into them
        if grafted is not None:
            maintainer.delete_subgraph(grafted)
        free_before = len(graph._free_slots)
        grafted = _graft(maintainer, anchor, rng)
        recycled += free_before - len(graph._free_slots)
        live = sorted(graph.nodes())
        maintainer.set_value(rng.choice(live), rng.choice(CHURN_VALUES))
        if round_no % 2 == 0:
            graph._succ_slabs.compact()
        assert_same_text(graph, structure, str(tmp_path), round_no)
        structure.check_invariants()
    # the churn did what the comparison is for
    assert recycled == 4 * (CHURN_ROUNDS - 1) and len(graph._oid_at) == slots_at_start + 4
    assert (splits and merges) if kind == "one" else moves
    assert len(list_checkpoints(str(tmp_path))) == CHURN_ROUNDS + 1


# ----------------------------------------------------------------------
# (c) The count pin: no public per-dnode accessor during a checkpoint
# ----------------------------------------------------------------------

WALKED_BY_THE_DICT_WRITERS = (
    (DataGraph, "label"),
    (DataGraph, "value"),
    (DataGraph, "edge_kind"),
    (DataGraph, "has_edge"),
    (StructuralIndex, "extent"),
)


def _xmark(scale: int) -> DataGraph:
    return generate_xmark(
        XMarkConfig(
            num_items=10 * scale,
            num_persons=14 * scale,
            num_open_auctions=8 * scale,
            num_closed_auctions=5 * scale,
            num_categories=4 * scale,
        )
    ).graph


@pytest.mark.parametrize("scale", [1, 4])
def test_a_checkpoint_calls_no_per_dnode_accessor(scale, tmp_path, monkeypatch):
    graph = _xmark(scale)
    index = OneIndex.build(graph)
    family = AkIndexFamily.build(graph, 2)
    calls = {name: 0 for _, name in WALKED_BY_THE_DICT_WRITERS}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for owner, name in WALKED_BY_THE_DICT_WRITERS:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    # the counters count: the dict writers go through every one of them
    graph_to_dict(graph), index_to_dict(index)
    assert all(count >= graph.num_nodes or name == "extent" for name, count in calls.items())
    assert calls["extent"] == index.num_inodes
    calls.update(dict.fromkeys(calls, 0))
    write_checkpoint(str(tmp_path), graph, index, wal_lsn=1, version=1)
    write_checkpoint(str(tmp_path), graph, family, wal_lsn=2, version=2)
    assert calls == dict.fromkeys(calls, 0)


# ----------------------------------------------------------------------
# (d) An orphaned .tmp does not outlive the next checkpoint
# ----------------------------------------------------------------------


def _tmp_files(store_dir: str) -> list[str]:
    return sorted(name for name in os.listdir(store_dir) if name.endswith(".tmp"))


def test_a_tmp_left_before_the_rename_is_pruned_and_changes_nothing(store_dir):
    config = StoreConfig(fsync="off", checkpoint_every_records=0)
    service = IndexService(tiny_graph(), store_dir=store_dir, store_config=config)
    anchor = min(service.graph.nodes())
    service.submit(Update.insert_node(anchor, "y", "é"))
    service.flush()
    health = service.health()["store"]
    assert health["last_checkpoint_bytes"] == os.path.getsize(
        os.path.join(store_dir, checkpoint_name(0))
    )
    assert health["last_checkpoint_ms"] > 0
    # 1st io of a checkpoint is its tmp write, the 2nd its rename
    service.checkpointer.fault_injector = FaultInjector(at_io=2)
    with pytest.raises(InjectedFaultError):
        service.checkpoint()
    assert _tmp_files(store_dir) == [checkpoint_name(1) + ".tmp"]
    assert list_checkpoints(store_dir) == [checkpoint_name(0)]
    assert service.health()["store"] == health  # nothing was written: nothing to report
    service.close(checkpoint=False)

    expected = recover(store_dir)
    recovered = IndexService.recover(store_dir, store_config=config)
    assert recovered.health()["store"]["last_checkpoint_ms"] is None
    assert recovered.version == expected.version == 1
    assert recovered.snapshot.fingerprint() == service.snapshot.fingerprint()
    recovered.submit(Update.insert_node(anchor, "z"))
    recovered.flush()
    recovered.checkpoint()
    assert _tmp_files(store_dir) == []
    assert list_checkpoints(store_dir) == [checkpoint_name(0), checkpoint_name(2)]
    fingerprint = recovered.snapshot.fingerprint()
    recovered.close(checkpoint=False)
    again = IndexService.recover(store_dir, store_config=config)
    assert again.version == 2 and again.snapshot.fingerprint() == fingerprint
    again.close(checkpoint=False)

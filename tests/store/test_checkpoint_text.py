"""The checkpoint is written as text off the slab core; the dict writers
are the reference it must equal, byte for byte.

Six pins:

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
  after the next checkpoint, and recovery reads the same state;
* **paged** — a durable service's checkpoint text, kept per 1 024-key
  page and re-rendered where commits marked it, equals the dict writers
  after every commit of a seeded churn (1-index, A(2), A(4)), through a
  new label and its last node's removal, a rolled-back batch, a degrade
  rebuild, faulted checkpoints, recovery, emptied and freshly opened
  pages; every entry whose text changed was marked by the commit;
* **work** — a checkpoint renders the touched pages and no others (every
  node half after a label change), with no per-dnode accessor.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import canonical, seal
from repro.core.intmap import PAGE_BITS
from repro.exceptions import InjectedFaultError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.graph.serialize import graph_to_dict, graph_to_json
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.index.serialize import (
    family_to_dict,
    index_to_dict,
    structure_pages,
    structure_to_dict,
    structure_to_json,
)
from repro.maintenance import maintainer_for
from repro.resilience.faults import FaultInjector
from repro.resilience.journal import Transaction
from repro.service import IndexService, ServiceConfig, Update
from repro.store import StoreConfig, recover
from repro.store import checkpoint as checkpoint_module
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    checkpoint_lsn,
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
    assert structure_to_json(index) == canonical(index_to_dict(index))
    assert structure_to_json(index) == canonical(structure_to_dict(index))
    family = AkIndexFamily.build(graph, k)
    assert structure_to_json(family) == canonical(family_to_dict(family))
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


# ----------------------------------------------------------------------
# (e) The paged text follows every commit
# ----------------------------------------------------------------------

#: two oid pages; a 1-index's inode ids end just short of its second page
PAGED_XMARK = XMarkConfig(
    num_items=38,
    num_persons=44,
    num_open_auctions=30,
    num_closed_auctions=20,
    num_categories=10,
)


def text_entries(graph, structure) -> dict:
    """Every entry of the checkpoint text, off the dict writers, under the
    key a commit must mark for it: ``("dnode", oid)`` for a node entry and
    a source's edge entries, ``("class", level, id)`` for an extent and a
    parent link."""
    graph_dict = graph_to_dict(graph)
    entries: dict = {}
    for oid, label, value in graph_dict["nodes"]:
        entries[("dnode", oid)] = [graph_dict["labels"][label], value]
    for source, target, kind in graph_dict["edges"]:
        entries.setdefault(("edges", source), []).append((target, kind))
    payload = structure_to_dict(structure)
    levels = payload.get("levels", [{"extents": payload.get("inodes", []), "parent": []}])
    for level_no, level in enumerate(levels):
        for ident, extent in level["extents"]:
            entries[("class", level_no, ident)] = extent
        for ident, parent in level["parent"]:
            entries[("parent", level_no, ident)] = parent
    return entries


def edge_update(step) -> Update:
    op, source, target = step
    if op == "insert":
        return Update.insert_edge(source, target, EdgeKind.IDREF)
    return Update.delete_edge(source, target)


class PagedRun:
    """A durable service whose checkpoint text is checked after every commit.

    The marks each commit hands the checkpointer are recorded; after the
    commit, every entry whose text changed must be under one of them, the
    checkpointer's text (rendered on a copy, so the check itself renders
    nothing) must equal the dict writers, and a checkpoint the commit
    wrote must be the reference file byte for byte.
    """

    def __init__(self, monkeypatch):
        #: checkpoints that rendered every page (the cold path lists them)
        self.colds = 0
        self.probing = False
        listing = checkpoint_module.graph_pages

        def counting(graph):
            self.colds += not self.probing
            return listing(graph)

        monkeypatch.setattr(checkpoint_module, "graph_pages", counting)

    def adopt(self, service: IndexService) -> None:
        self.service = service
        self.marks: list[tuple] = []
        text = service.checkpointer.text
        mark = text.mark

        def recording(touched, structure):
            self.marks.append(
                (set(touched.dnodes), set(touched.inodes), set(touched.tokens), touched.full)
            )
            mark(touched, structure)

        text.mark = recording
        self.entries = text_entries(service.graph, service.structure)
        self.written = 0  # a fresh service wrote checkpoint 0, a recovered one none
        if service.checkpointer.checkpoints_written:
            self.verify_checkpoint()

    def commit(self, *updates: Update) -> None:
        for update in updates:
            self.service.submit(update)
        while self.service.flush() is not None:  # a commit per batch bound
            self.verify()

    def verify(self) -> None:
        service = self.service
        graph, structure = service.graph, service.structure
        entries = text_entries(graph, structure)
        if not any(full for *_, full in self.marks):
            dnodes = set().union(*(m[0] for m in self.marks))
            inodes = set().union(*(m[1] for m in self.marks))
            tokens = set().union(*(m[2] for m in self.marks))
            for key in entries.keys() | self.entries.keys():
                if entries.get(key) == self.entries.get(key):
                    continue
                if key[0] in ("dnode", "edges"):
                    assert key[1] in dnodes, f"unmarked text change {key}"
                else:
                    _, level, ident = key
                    assert (level, ident) in tokens or (
                        level == structure.k and ident in inodes
                    ), f"unmarked text change {key}"
        self.marks.clear()
        self.entries = entries
        self.probing = True
        text = copy.copy(service.checkpointer.text).render(graph, structure)
        self.probing = False
        assert text == (canonical(graph_to_dict(graph)), canonical(structure_to_dict(structure)))
        if service.checkpointer.checkpoints_written != self.written:
            self.verify_checkpoint()

    def verify_checkpoint(self) -> None:
        """The newest checkpoint file is the dict writers' document."""
        service = self.service
        self.written = service.checkpointer.checkpoints_written
        newest = list_checkpoints(service.store_dir)[-1]
        lsn = checkpoint_lsn(newest)
        assert lsn == service.wal.last_lsn
        assert Path(service.store_dir, newest).read_bytes() == reference_document(
            service.graph, service.structure, wal_lsn=lsn, version=service.version
        )


def graft(base: int, rng: random.Random) -> tuple[DataGraph, int]:
    """A twelve-node subtree whose oids start at *base* (a fresh page)."""
    sub = DataGraph()
    top = sub.add_node("item", "grafted", oid=base)
    for offset in range(1, 12):
        node = sub.add_node(rng.choice(["name", "item", "é"]), offset, oid=base + offset)
        sub.add_edge(rng.choice(sorted(sub.nodes())[:offset]), node)
    return sub, top


@pytest.mark.parametrize("family,k", [("one", 0), ("ak", 2), ("ak", 4)])
def test_the_paged_text_follows_every_commit(family, k, tmp_path, monkeypatch):
    rng = random.Random(211 + CRASH_SEED)
    graph = generate_xmark(PAGED_XMARK).graph
    steps = MixedUpdateWorkload.prepare(graph, seed=37 + CRASH_SEED).steps(1000)
    store_dir = str(tmp_path / "store")
    store_config = StoreConfig(fsync="off", checkpoint_every_records=3)
    config = ServiceConfig(family=family, k=k)
    run = PagedRun(monkeypatch)
    run.adopt(IndexService(graph, config, store_dir=store_dir, store_config=store_config))
    assert run.colds == 1  # checkpoint 0 renders every page
    service = run.service
    guard = service.guarded
    inode_pages = set(structure_pages(service.structure))
    written = 1

    def churn(commits: int) -> None:
        for _ in range(commits):
            run.commit(*(edge_update(next(steps)) for _ in range(rng.randint(1, 6))))

    churn(7)
    # new labels: every node half is re-rendered; under a 1-index each new
    # label's inode takes a fresh id, enough of them to open a page
    fresh_ids = 1026 - service.structure._next_id if family == "one" else 0
    labels = [f"brand-new-{i}" for i in range(max(6, fresh_ids))]
    anchor = rng.choice([oid for oid in service.graph.nodes() if service.graph.out_degree(oid)])
    run.commit(*(Update.insert_node(anchor, label, "é") for label in labels))
    fresh = [oid for label in labels for oid in service.graph.nodes_with_label(label)]
    if family == "one":
        assert inode_pages == {(0, 0)} != set(structure_pages(service.structure))
    # an explicit checkpoint; then a degrade rebuild (touched.full), which
    # renames every inode, drops every page
    service.checkpoint()
    run.verify_checkpoint()
    colds, degradations = run.colds, guard.stats.degradations
    guard.fault_injector = FaultInjector(at_record=1)
    run.commit(edge_update(next(steps)))
    assert guard.stats.degradations == degradations + 1
    guard.fault_injector = None
    service.checkpoint()
    run.verify_checkpoint()
    assert run.colds == colds + 1
    churn(2)
    # the new labels' last nodes go
    run.commit(*map(Update.delete_node, fresh))
    # fresh oids open a page; deleting them empties it
    pages_before = graph_pages_of(service)
    base = ((max(service.graph.nodes()) >> PAGE_BITS) + 2) << PAGE_BITS
    sub, top = graft(base, rng)
    run.commit(Update.add_subgraph(sub, top, [(anchor, top)], preserve_oids=True))
    assert base >> PAGE_BITS in graph_pages_of(service) - pages_before
    churn(2)
    run.commit(Update.delete_subgraph(top))
    assert graph_pages_of(service) == pages_before
    # a batch rolled back inside maintenance (after its first mutations);
    # the next commit carries on
    rollbacks = guard.stats.rollbacks
    guard.config = dataclasses.replace(guard.config, policy="raise")
    guard.fault_injector = FaultInjector(at_record=3)
    service.submit(Update.insert_node(anchor, "item", "rolled back"))
    with pytest.raises(InjectedFaultError):
        service.flush()
    assert guard.stats.rollbacks == rollbacks + 1
    guard.config = config.guard
    guard.fault_injector = None
    churn(2)
    # a change no journal saw (the graph mutated behind the guard's back):
    # the next commit starts from no pages, and its checkpoint from every one
    service.checkpoint()
    run.verify_checkpoint()
    colds = run.colds
    first, last = min(service.graph.nodes()), max(service.graph.nodes())
    assert first >> PAGE_BITS != last >> PAGE_BITS
    service.graph.set_value(last, "behind the guard")
    run.entries = text_entries(service.graph, service.structure)
    run.commit(Update.set_value(first, "through the guard"))
    service.checkpoint()
    run.verify_checkpoint()
    assert run.colds == colds + 1
    # an explicit checkpoint, then faults at the tmp write and the rename
    churn(1)
    service.checkpoint()
    run.verify_checkpoint()
    for at_io in (1, 2):
        churn(1)
        service.checkpointer.fault_injector = FaultInjector(at_io=at_io)
        with pytest.raises(InjectedFaultError):
            service.checkpoint()
        service.checkpointer.fault_injector = None
        run.verify()
    service.checkpoint()
    run.verify_checkpoint()
    churn(5)
    written += service.checkpointer.checkpoints_written
    service.close(checkpoint=False)
    # recovery: its first checkpoint renders every page
    colds = run.colds
    run.adopt(IndexService.recover(store_dir, config, store_config=store_config))
    churn(6)
    assert run.colds > colds
    written += run.service.checkpointer.checkpoints_written
    assert run.colds < written  # the rest re-rendered the marked pages only
    run.service.close(checkpoint=False)


@pytest.mark.parametrize("family", ["one", "ak"])
def test_a_structure_changed_behind_the_journal_is_rendered_whole(family, tmp_path):
    """The pages' stamp holds the structure's generation too: a change
    that leaves the graph alone and no mark — a move made directly, a
    journal rolled back outside any commit, a rebuild — is written."""
    service = IndexService(
        generate_xmark(PAGED_XMARK).graph,
        ServiceConfig(family=family, k=2),
        store_dir=str(tmp_path / "store"),
        store_config=StoreConfig(fsync="off", checkpoint_every_records=0),
    )
    graph, structure = service.graph, service.structure
    leaf = next(oid for oid in sorted(graph.nodes()) if not graph.out_degree(oid))
    held = service.checkpointer.last_checkpoint_pages[1]

    def checkpoint_is_whole_and_exact() -> None:
        generation = graph.generation
        path = service.checkpoint()
        assert graph.generation == generation
        assert service.checkpointer.last_checkpoint_pages == (held, held)
        assert Path(path).read_bytes() == reference_document(
            graph, structure, wal_lsn=service.wal.last_lsn, version=service.version
        )

    def move_behind_the_journal() -> None:
        if family == "one":
            structure.move_dnode(leaf, structure.new_inode(graph.label(leaf)))
        else:
            classes = structure.levels[structure.k].extents
            other = next(t for t in classes if leaf not in classes[t] and len(classes[t]) > 1)
            structure.move(structure.k, leaf, other)

    move_behind_the_journal()
    checkpoint_is_whole_and_exact()
    txn = Transaction(graph, structure).begin()
    move_behind_the_journal()
    txn.rollback()
    checkpoint_is_whole_and_exact()
    service.guarded.maintainer.rebuild_from_graph()
    checkpoint_is_whole_and_exact()
    service.close(checkpoint=False)


def graph_pages_of(service: IndexService) -> set[int]:
    """The oid pages holding a node of *service*'s graph."""
    return {oid >> PAGE_BITS for oid in service.graph.nodes()}


# ----------------------------------------------------------------------
# (f) The work pin: the touched pages, nothing else, and no accessor
# ----------------------------------------------------------------------

#: six oid pages; four inode pages under a 1-index
WORK_XMARK = XMarkConfig(
    num_items=150,
    num_persons=200,
    num_open_auctions=125,
    num_closed_auctions=75,
    num_categories=25,
)

RENDERERS = ("graph_page_nodes", "graph_page_edges", "structure_page")


@pytest.mark.parametrize("family", ["one", "ak"])
def test_a_checkpoint_renders_the_touched_pages_only(family, tmp_path, monkeypatch):
    rng = random.Random(307 + CRASH_SEED)
    graph = generate_xmark(WORK_XMARK).graph
    steps = MixedUpdateWorkload.prepare(graph, seed=41 + CRASH_SEED).steps(200)
    service = IndexService(
        graph,
        ServiceConfig(family=family, k=2),
        store_dir=str(tmp_path / "store"),
        store_config=StoreConfig(fsync="off", checkpoint_every_records=0),
    )
    rendered, held = service.checkpointer.last_checkpoint_pages
    assert rendered == held >= 8
    calls = dict.fromkeys(RENDERERS + tuple(name for _, name in WALKED_BY_THE_DICT_WRITERS), 0)

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in RENDERERS:
        monkeypatch.setattr(
            checkpoint_module, name, counting(name, getattr(checkpoint_module, name))
        )
    for owner, name in WALKED_BY_THE_DICT_WRITERS:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    marked: list = []
    mark = service.checkpointer.text.mark
    service.checkpointer.text.mark = lambda touched, structure: (
        marked.append((set(touched.dnodes), set(touched.inodes), set(touched.tokens))),
        mark(touched, structure),
    )

    def commit_and_checkpoint(*updates: Update) -> tuple[set, set]:
        for update in updates:
            service.submit(update)
        service.flush()
        dnode_pages = {d >> PAGE_BITS for m in marked for d in m[0]}
        structure_pages = {(service.structure.k, i >> PAGE_BITS) for m in marked for i in m[1]}
        structure_pages |= {(lv, t >> PAGE_BITS) for m in marked for lv, t in m[2] if t is not None}
        marked.clear()
        calls.update(dict.fromkeys(calls, 0))
        service.checkpoint()
        return dnode_pages, structure_pages

    for _ in range(4):
        dnode_pages, structure_pages = commit_and_checkpoint(
            *(edge_update(next(steps)) for _ in range(3))
        )
        assert calls["graph_page_nodes"] == calls["graph_page_edges"] == len(dnode_pages)
        assert calls["structure_page"] == len(structure_pages)
        rendered, held = service.checkpointer.last_checkpoint_pages
        assert rendered == len(dnode_pages) + len(structure_pages) < held
        assert all(calls[name] == 0 for _, name in WALKED_BY_THE_DICT_WRITERS)
    # a label appears: every node half, and only the touched edge halves
    anchor = rng.choice(sorted(service.graph.nodes()))
    dnode_pages, _ = commit_and_checkpoint(Update.insert_node(anchor, "brand-new"))
    node_pages = {oid >> PAGE_BITS for oid in service.graph.nodes()}
    assert calls["graph_page_nodes"] == len(node_pages) > len(dnode_pages)
    assert calls["graph_page_edges"] == len(dnode_pages)
    assert all(calls[name] == 0 for _, name in WALKED_BY_THE_DICT_WRITERS)
    service.close(checkpoint=False)

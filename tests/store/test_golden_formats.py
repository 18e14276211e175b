"""Frozen bytes: the WAL line, the feed frame and the checkpoint file.

``fixtures/golden/`` was written by :func:`drive` running on commit
``8702565`` — the last one before the record codec and the operation
table were each stated once — and is never regenerated.  The log holds
every operation of the vocabulary: one batch of all eight (an
``add_subgraph`` with a bare and a kinded cross edge), an oid-preserving
``add_subgraph`` (the four-argument form) and a batch coalesced to
nothing.  Today's code must write the same bytes from the same updates
and replay the frozen log to the frozen state.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.replication import FollowerIndexService, Primary, ReplicationLink
from repro.service import IndexService
from repro.service.queue import Update
from repro.store import StoreConfig, list_segments
from repro.store.checkpoint import checkpoint_name

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
STORE = StoreConfig(fsync="off", checkpoint_every_records=0)


def golden_graph() -> tuple[DataGraph, dict[str, int]]:
    graph = DataGraph()
    names = {"root": graph.add_root()}
    for name, label, parent, value in (
        ("site", "site", "root", None),
        ("item1", "item", "site", None),
        ("name1", "name", "item1", "a"),
        ("item2", "item", "site", None),
        ("name2", "name", "item2", "b"),
        ("person1", "person", "site", None),
        ("pname1", "name", "person1", "p"),
        ("person2", "person", "site", None),
    ):
        names[name] = graph.add_node(label, value)
        graph.add_edge(names[parent], names[name])
    graph.add_edge(names["person1"], names["item1"], EdgeKind.IDREF)
    return graph, names


def subgraph(first_oid: int) -> tuple[DataGraph, int, int]:
    sub = DataGraph()
    top = sub.add_node("item", None, oid=first_oid)
    leaf = sub.add_node("name", "s", oid=first_oid + 1)
    sub.add_edge(top, leaf)
    return sub, top, leaf


def state_of(service: IndexService) -> dict:
    return {
        "version": service.version,
        "fingerprint": hashlib.sha256(service.snapshot.fingerprint()).hexdigest(),
    }


def drive(store_dir: str) -> dict[str, bytes]:
    """Commit the golden updates into *store_dir*; return every artefact."""
    graph, n = golden_graph()
    service = IndexService(graph, store_dir=store_dir, store_config=STORE)
    artefacts = {checkpoint_name(0): Path(store_dir, checkpoint_name(0)).read_bytes()}
    remapped, top, leaf = subgraph(100)
    preserved, kept, _ = subgraph(200)
    batches = [
        [
            Update.insert_edge(n["person2"], n["item2"], EdgeKind.IDREF),
            Update.delete_edge(n["person1"], n["item1"]),
            Update.insert_node(n["site"], "category", "c1"),
            Update.delete_node(n["pname1"]),
            Update.add_subgraph(
                remapped, top, ((n["site"], top), (leaf, n["item1"], EdgeKind.IDREF))
            ),
            Update.delete_subgraph(n["item2"]),
            Update.set_value(n["name1"], {"k": [1, 2], "s": "é"}),
            Update.reconstruct(),
        ],
        [
            Update.add_subgraph(preserved, kept, ((n["site"], kept),), preserve_oids=True),
            Update.insert_edge(n["person2"], kept, EdgeKind.IDREF),
        ],
        [
            Update.insert_edge(n["person1"], n["name1"], EdgeKind.IDREF),
            Update.delete_edge(n["person1"], n["name1"]),
        ],
    ]
    for batch in batches:
        for update in batch:
            service.submit(update)
        service.flush()
    (segment,) = list_segments(store_dir)
    artefacts[segment] = Path(store_dir, segment).read_bytes()
    artefacts["feed-frame.json"] = Primary(service=service).fetch(0)
    artefacts["state.json"] = json.dumps(state_of(service), sort_keys=True).encode("ascii")
    service.close()  # the closing checkpoint holds the replayed state
    final = checkpoint_name(len(batches))
    artefacts[final] = Path(store_dir, final).read_bytes()
    return artefacts


def test_every_format_is_written_byte_for_byte(tmp_path):
    artefacts = drive(str(tmp_path))
    assert sorted(artefacts) == sorted(path.name for path in GOLDEN.iterdir())
    for name, written in artefacts.items():
        assert written == (GOLDEN / name).read_bytes(), name


def test_the_frozen_log_replays_to_the_frozen_state(tmp_path):
    golden_state = json.loads((GOLDEN / "state.json").read_text())
    for name in (checkpoint_name(0), "wal-00000000000000000001.jsonl"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    follower = FollowerIndexService.bootstrap(
        ReplicationLink(Primary(store_dir=str(tmp_path)))
    )
    assert follower.catch_up() == golden_state["version"]
    assert state_of(follower) == golden_state
    follower.close()

    recovered = IndexService.recover(str(tmp_path), store_config=STORE)
    assert recovered.recovery.replayed_records == golden_state["version"]
    assert state_of(recovered) == golden_state
    recovered.close()  # the closing checkpoint of the replayed state
    final = checkpoint_name(golden_state["version"])
    assert (tmp_path / final).read_bytes() == (GOLDEN / final).read_bytes()

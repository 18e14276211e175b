"""Seeded corpus differential: the bulk splice against the per-call one.

``CorpusBuilder.build`` books every document as incremental ingest does
and lays the graph out once; :func:`tests.corpus.splice_reference.per_call_splice`
applies each document's compiled ``add_subgraph`` one call at a time.
The graphs must agree slot for slot (:func:`tests.graph.slot_layout.assert_same_slots`)
and the catalogs entry for entry, over pools with cross-document refs
resolved at arrival, refs left dangling and then resolved, and refs that
stay dangling.  ``CORPUS_SEED`` (the CI matrix knob) moves every pool.
"""

from __future__ import annotations

import random

import pytest

from repro.corpus import CorpusBuilder
from repro.corpus.builder import CorpusCatalog
from repro.corpus.documents import parse_document
from repro.graph.datagraph import DataGraph
from repro.workload.xmark import generate_xmark
from tests.corpus.splice_reference import per_call_splice
from tests.corpus.test_differential import CORPUS_SEED, make_pool
from tests.graph.slot_layout import assert_same_slots, per_call_graph
from tests.graph.test_from_columns import SMOKE_XMARK

#: documents that reference each other (a ref dangles until its target
#: arrives or resolves at arrival, whatever the order) and one that never
#: arrives, plus an intra ref over a tree edge and a repeated one
#: (neither is materialised)
LINKED = [
    ("x0", "<x0><t id='x0_t' idref='x0_u'><u id='x0_u'/></t><r idref='x1/x1_t'/>"
           "<r idref='x2/x2_t'/><r idref='ghost/g'/><t3 idrefs='x0_u x0_u'/></x0>"),
    ("x1", "<x1><t id='x1_t'/><r idref='x0/x0_t'/><r idref='x0/x0_t'/></x1>"),
    ("x2", "<x2><t id='x2_t'/><r idref='x0/x0_t'/></x2>"),
]


def _pools() -> dict[str, list[tuple[str, str]]]:
    rng = random.Random(29 + CORPUS_SEED)
    pool = make_pool(31 + CORPUS_SEED) + LINKED
    shuffled = rng.sample(pool, len(pool))
    small = generate_xmark(SMOKE_XMARK)
    return {
        "in-order": pool,
        "shuffled": shuffled,
        "one-missing": [entry for entry in shuffled if entry[0] != "x1"],
        "two-pools": make_pool(37 + CORPUS_SEED) + LINKED,
        "xmark-smoke": small.as_documents(8),
    }


POOLS = _pools()


def _catalog_state(catalog: CorpusCatalog) -> dict:
    return {
        "next_oid": catalog._next_oid,
        "manifests": {
            doc_id: (m.oid_of, m.document) for doc_id, m in catalog.manifests.items()
        },
        "outbound": catalog.outbound,
        "inbound": catalog.inbound,
    }


@pytest.mark.parametrize("name", sorted(POOLS))
def test_bulk_splice_is_the_per_call_splice(name):
    pool = POOLS[name]
    builder = CorpusBuilder()
    builder.add_all(pool)
    graph, catalog = builder.build()
    reference, reference_catalog = per_call_splice(
        parse_document(doc_id, text) for doc_id, text in pool
    )
    assert_same_slots(graph, reference)
    assert _catalog_state(catalog) == _catalog_state(reference_catalog)
    graph.check_invariants()
    catalog.check(graph)


def test_the_pools_cover_every_cross_ref_case():
    """Resolved at arrival, dangling then resolved, still dangling."""
    for name in ("in-order", "shuffled", "one-missing", "two-pools"):
        pool = POOLS[name]
        position = {doc_id: i for i, (doc_id, _) in enumerate(pool)}
        builder = CorpusBuilder()
        builder.add_all(pool)
        _, catalog = builder.build()
        resolved = [
            (position[source_doc], position[target_doc])
            for source_doc, flags in catalog.outbound.items()
            for (_, target_doc, _), linked in flags.items()
            if linked
        ]
        assert any(source < target for source, target in resolved), name
        assert any(source > target for source, target in resolved), name
        still_dangling = {target_doc for _, _, target_doc, _ in catalog.dangling_refs()}
        assert "ghost" in still_dangling, name
        assert ("x1" in still_dangling) == (name == "one-missing"), name


def test_compile_add_subgraph_is_the_per_call_subgraph():
    """Incremental ingest ships the same subgraph the per-call build made."""
    pool = POOLS["shuffled"]
    compiling, booking = CorpusCatalog(next_oid=1), CorpusCatalog(next_oid=1)
    for doc_id, text in pool:
        document = parse_document(doc_id, text)
        (update,) = compiling.compile_add(document, 0)
        subgraph, root_oid, cross_edges, preserve_oids = update.args
        admission = booking._admit(document, 0)
        assert isinstance(subgraph, DataGraph) and preserve_oids
        assert_same_slots(subgraph, per_call_graph(
            admission.oids, admission.labels, admission.values,
            admission.sources, admission.targets, admission.kinds,
        ))
        assert (root_oid, list(cross_edges)) == (admission.root_oid, admission.cross_edges)
    assert _catalog_state(compiling) == _catalog_state(booking)

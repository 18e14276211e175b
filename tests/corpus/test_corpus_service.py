"""CorpusService behaviour: ingest paths, diffs, cross-document refs."""

from __future__ import annotations

import pytest

from repro.corpus import CorpusBuilder, CorpusCatalog, CorpusService
from repro.exceptions import (
    CorpusError,
    DocumentNotFoundError,
    DuplicateDocumentError,
)
from repro.graph.datagraph import EdgeKind
from repro.service import IndexService, ServiceConfig

DOCS = [
    ("a", "<a><x id='x1'>hi</x><y idref='b/y1 x1'/></a>"),
    ("b", "<b><y id='y1' k='v'>yo</y><z idrefs='a/x1'/></b>"),
    ("c", "<c><w>solo</w></c>"),
]


def corpus_of(docs=DOCS, family="ak", **kwargs):
    return CorpusService.bulk_load(
        docs, config=ServiceConfig(family=family, k=2), **kwargs
    )


class TestBulkLoad:
    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_bulk_equals_incremental(self, family):
        bulk = corpus_of(family=family)
        inc = CorpusService.empty(config=ServiceConfig(family=family, k=2))
        for doc_id, text in DOCS:
            inc.add_document(doc_id, text)
        inc.await_quiescent()
        assert inc.fingerprint() == bulk.fingerprint()
        bulk.close(), inc.close()

    def test_bulk_load_is_arrival_order_independent(self):
        forward = corpus_of()
        backward = corpus_of(list(reversed(DOCS)))
        assert forward.fingerprint() == backward.fingerprint()
        forward.close(), backward.close()

    def test_builder_rejects_duplicate_ids(self):
        builder = CorpusBuilder()
        builder.add("a", "<r/>")
        with pytest.raises(DuplicateDocumentError, match="replace_document"):
            builder.add("a", "<r/>")

    def test_empty_corpus(self):
        corpus = CorpusService.empty()
        assert corpus.document_ids() == []
        assert corpus.service.graph.num_nodes == 1  # just ROOT
        corpus.close()

    def test_invariants_after_bulk_load(self):
        corpus = corpus_of()
        corpus.check()
        corpus.close()

    def test_attribute_nodes_disabled(self):
        with_attrs = corpus_of()
        without = CorpusService.bulk_load(
            DOCS, config=ServiceConfig(family="ak", k=2), attribute_nodes=False
        )
        # doc b carries one ordinary attribute (k='v'): exactly one node less
        assert (
            with_attrs.service.graph.num_nodes
            == without.service.graph.num_nodes + 1
        )
        with_attrs.close(), without.close()

    def test_durable_corpus(self, tmp_path):
        corpus = corpus_of(store_dir=str(tmp_path / "store"))
        corpus.add_document("d", "<d><v>1</v></d>")
        corpus.await_quiescent()
        assert (tmp_path / "store").exists()
        assert corpus.has_document("d")
        corpus.close()

    def test_a_corpus_refuses_a_shedding_service(self, tmp_path):
        # a compile books the document before the service admits its ops:
        # a shed op would leave the catalog naming nodes the graph never got
        shedding = ServiceConfig(admission="shed", queue_capacity=1)
        with pytest.raises(CorpusError, match="shed"):
            CorpusService.empty(config=shedding, store_dir=str(tmp_path / "store"))
        assert not (tmp_path / "store").exists()
        service = IndexService(CorpusBuilder().build()[0], shedding)
        with pytest.raises(CorpusError, match="shed"):
            CorpusService(service, CorpusCatalog(next_oid=1))
        service.close()


class TestAddRemove:
    def test_add_then_remove_restores_fingerprint(self):
        corpus = corpus_of()
        before = corpus.fingerprint()
        corpus.add_document("d", "<d><v>1</v></d>")
        corpus.remove_document("d")
        corpus.await_quiescent()
        assert corpus.fingerprint() == before
        corpus.close()

    def test_remove_deletes_exactly_the_manifest_oids(self):
        corpus = corpus_of()
        corpus.await_quiescent()
        graph = corpus.service.graph
        doomed = corpus.catalog.manifest("a").oids
        survivors = {
            oid
            for doc_id in ("b", "c")
            for oid in corpus.catalog.manifest(doc_id).oids
        }
        corpus.remove_document("a")
        corpus.await_quiescent()
        assert not any(graph.has_node(oid) for oid in doomed)
        assert all(graph.has_node(oid) for oid in survivors)
        corpus.check()
        corpus.close()

    def test_duplicate_add_rejected(self):
        corpus = corpus_of()
        with pytest.raises(DuplicateDocumentError):
            corpus.add_document("a", "<a/>")
        corpus.close()

    def test_remove_unknown_document_rejected(self):
        corpus = corpus_of()
        with pytest.raises(DocumentNotFoundError):
            corpus.remove_document("nope")
        corpus.close()

    def test_document_ids_sorted(self):
        corpus = corpus_of()
        assert corpus.document_ids() == ["a", "b", "c"]
        corpus.close()


class TestCrossDocumentRefs:
    def test_dangling_ref_resolves_on_arrival(self):
        corpus = CorpusService.empty()
        corpus.add_document("b", DOCS[1][1])
        assert corpus.dangling_refs() == [("b", ".b.z[0]", "a", "x1")]
        corpus.add_document("a", DOCS[0][1])
        corpus.await_quiescent()
        assert corpus.dangling_refs() == []
        # the cross edge really exists, in both directions
        graph = corpus.service.graph
        a, b = corpus.catalog.manifest("a"), corpus.catalog.manifest("b")
        assert graph.edge_kind(b.oid_of[".b.z[0]"], a.oid_of["x1"]) is EdgeKind.IDREF
        assert graph.edge_kind(a.oid_of[".a.y[0]"], b.oid_of["y1"]) is EdgeKind.IDREF
        corpus.close()

    def test_removal_demotes_inbound_refs_to_dangling(self):
        corpus = corpus_of()
        corpus.remove_document("a")
        corpus.await_quiescent()
        assert ("b", ".b.z[0]", "a", "x1") in corpus.dangling_refs()
        # re-arrival re-links and restores the full corpus fingerprint
        scratch = corpus_of()
        corpus.add_document("a", DOCS[0][1])
        corpus.await_quiescent()
        assert corpus.fingerprint() == scratch.fingerprint()
        corpus.close(), scratch.close()

    def test_ref_to_non_id_local_stays_dangling(self):
        # scoped refs may only target explicit ids; a synthetic local id
        # never resolves even when the document is present
        corpus = CorpusService.empty()
        corpus.add_document("a", "<a><b idref='c/.c.w[0]'/></a>")
        corpus.add_document("c", DOCS[2][1])
        corpus.await_quiescent()
        assert corpus.dangling_refs() == [("a", ".a.b[0]", "c", ".c.w[0]")]
        corpus.check()
        corpus.close()


class TestLedgerOracle:
    """``check`` reads the reference ledger against the graph: a corrupted
    flag, inbound entry or IDREF edge is a :class:`CorpusError`."""

    LINKED = (".a.y[0]", "b", "y1")

    def _corpus(self):
        corpus = corpus_of(DOCS + [("d", "<d><r idref='ghost/g'/></d>")])
        corpus.check()
        return corpus

    def test_a_flipped_flag_is_caught(self):
        corpus = self._corpus()
        corpus.catalog.outbound["a"][self.LINKED] = False
        with pytest.raises(CorpusError, match="unlinked but its target is present"):
            corpus.check()
        corpus.catalog.outbound["a"][self.LINKED] = True
        corpus.catalog.outbound["d"][(".d.r[0]", "ghost", "g")] = True
        with pytest.raises(CorpusError, match="linked but its target is absent"):
            corpus.check()
        corpus.close()

    def test_a_dropped_entry_is_caught(self):
        corpus = self._corpus()
        corpus.catalog.inbound["b"].discard(("a", ".a.y[0]", "y1"))
        with pytest.raises(CorpusError, match="two directions disagree"):
            corpus.check()
        corpus.close()

    def test_a_removed_edge_is_caught(self):
        corpus = self._corpus()
        a, b = corpus.catalog.manifest("a"), corpus.catalog.manifest("b")
        graph = corpus.service.graph.copy()
        graph.remove_edge(a.oid_of[".a.y[0]"], b.oid_of["y1"])
        with pytest.raises(CorpusError, match="no IDREF edge"):
            corpus.catalog.check(graph)
        corpus.close()


class TestReplace:
    def test_noop_replace_emits_nothing(self):
        corpus = corpus_of()
        assert corpus.replace_document("a", DOCS[0][1]) == 0
        corpus.close()

    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_replace_matches_scratch_build(self, family):
        new_a = "<a><x id='x1'>bye</x><w><deep>new</deep></w></a>"
        corpus = corpus_of(family=family)
        emitted = corpus.replace_document("a", new_a)
        assert emitted > 0
        corpus.await_quiescent()
        scratch = corpus_of([("a", new_a)] + DOCS[1:], family=family)
        assert corpus.fingerprint() == scratch.fingerprint()
        corpus.check()
        corpus.close(), scratch.close()

    def test_replace_is_a_diff_not_a_rebuild(self):
        # changing one value must not touch the document's other nodes
        corpus = corpus_of()
        corpus.await_quiescent()
        before = dict(corpus.catalog.manifest("a").oid_of)
        emitted = corpus.replace_document(
            "a", "<a><x id='x1'>changed</x><y idref='b/y1 x1'/></a>"
        )
        assert emitted == 1  # one set_value, nothing else
        corpus.await_quiescent()
        assert corpus.catalog.manifest("a").oid_of == before
        corpus.close()

    def test_replace_keeps_identified_nodes_across_moves(self):
        corpus = CorpusService.empty()
        corpus.add_document("a", "<a><box><x id='x1'>v</x></box></a>")
        corpus.await_quiescent()
        x_oid = corpus.catalog.manifest("a").oid_of["x1"]
        corpus.replace_document("a", "<a><x id='x1'>v</x></a>")
        corpus.await_quiescent()
        assert corpus.catalog.manifest("a").oid_of["x1"] == x_oid
        assert corpus.service.graph.has_node(x_oid)
        corpus.check()
        corpus.close()

    def test_replace_retargeting_cross_ref(self):
        corpus = CorpusService.empty()
        corpus.add_document("t", "<t><p id='p1'/><p id='p2'/></t>")
        corpus.add_document("s", "<s><r idref='t/p1'/></s>")
        corpus.await_quiescent()
        corpus.replace_document("s", "<s><r idref='t/p2'/></s>")
        corpus.await_quiescent()
        scratch = CorpusService.bulk_load([
            ("t", "<t><p id='p1'/><p id='p2'/></t>"),
            ("s", "<s><r idref='t/p2'/></s>"),
        ])
        assert corpus.fingerprint() == scratch.fingerprint()
        corpus.check()
        corpus.close(), scratch.close()

    def test_replace_unknown_document_rejected(self):
        corpus = corpus_of()
        with pytest.raises(DocumentNotFoundError):
            corpus.replace_document("nope", "<r/>")
        corpus.close()


class TestServing:
    def test_queries_see_documents(self):
        corpus = corpus_of()
        assert len(corpus.query("/a/x").matches) == 1
        assert len(corpus.query("//y").matches) >= 1
        corpus.close()

    def test_background_writer_drains(self):
        corpus = corpus_of()
        corpus.start()
        corpus.add_document("d", "<d><v>1</v></d>")
        corpus.await_quiescent()
        assert corpus.queue_depth() == 0
        corpus.stop()
        corpus.close()

    def test_health_passthrough(self):
        corpus = corpus_of()
        assert corpus.health()["closed"] is False
        corpus.close()

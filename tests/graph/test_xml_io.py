"""Unit tests for XML <-> data graph conversion: the one reader
(:func:`repro.corpus.parse_xml`, a one-document corpus build) and the one
element writer (:mod:`repro.graph.xml_io`), which :func:`to_xml` and the
document splitter share."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.corpus import CorpusBuilder, parse_xml
from repro.exceptions import WorkloadError, XmlFormatError
from repro.graph.datagraph import ROOT_LABEL, DataGraph, EdgeKind
from repro.graph.serialize import graph_to_dict
from repro.graph.xml_io import describe, to_xml
from repro.workload.documents import split_into_documents
from repro.workload.imdb import IMDBConfig, generate_imdb
from repro.workload.xmark import XMarkConfig, generate_xmark

SIMPLE = "<site><people><person id='p1'><name>alice</name></person></people></site>"
WITH_REF = (
    "<site>"
    "<person id='p1'><name>alice</name></person>"
    "<auction id='a1'><seller idref='p1'/></auction>"
    "</site>"
)


def roundtrip(graph: DataGraph) -> DataGraph:
    """Serialise then re-parse a graph (attribute nodes off: the writer
    writes no attribute but ``id`` / ``idref`` / ``idrefs``)."""
    return parse_xml(to_xml(graph), attribute_nodes=False)


class TestParse:
    def test_elements_become_labeled_nodes(self):
        g = parse_xml(SIMPLE)
        assert g.label(g.root) == ROOT_LABEL
        assert sorted(g.labels()) == sorted(
            [ROOT_LABEL, "site", "people", "person", "name"]
        )

    def test_text_becomes_value(self):
        g = parse_xml(SIMPLE)
        (name,) = g.nodes_with_label("name")
        assert g.value(name) == "alice"

    def test_nesting_becomes_tree_edges(self):
        g = parse_xml(SIMPLE)
        (site,) = g.nodes_with_label("site")
        (people,) = g.nodes_with_label("people")
        assert g.has_edge(site, people)
        assert g.edge_kind(site, people) is EdgeKind.TREE

    def test_idref_becomes_reference_edge(self):
        g = parse_xml(WITH_REF)
        (seller,) = g.nodes_with_label("seller")
        (person,) = g.nodes_with_label("person")
        assert g.has_edge(seller, person)
        assert g.edge_kind(seller, person) is EdgeKind.IDREF

    def test_idrefs_attribute_fans_out(self):
        text = (
            "<r><a id='x'/><a id='y'/><b idrefs='x y'/></r>"
        )
        g = parse_xml(text)
        (b,) = g.nodes_with_label("b")
        assert g.out_degree(b) == 2

    def test_ordinary_attributes_become_child_nodes(self):
        g = parse_xml("<item quantity='2'/>")
        (q,) = g.nodes_with_label("quantity")
        assert g.value(q) == "2"

    def test_attribute_nodes_can_be_disabled(self):
        g = parse_xml("<item quantity='2'/>", attribute_nodes=False)
        assert g.nodes_with_label("quantity") == []

    def test_unresolvable_idref_raises(self):
        with pytest.raises(XmlFormatError):
            parse_xml("<r><b idref='nope'/></r>")

    def test_duplicate_id_raises(self):
        with pytest.raises(XmlFormatError):
            parse_xml("<r><a id='x'/><b id='x'/></r>")

    def test_malformed_xml_raises(self):
        with pytest.raises(XmlFormatError):
            parse_xml("<open>")

    def test_multiple_documents_share_root(self):
        # several documents are a corpus: repro.corpus reads them under one ROOT
        builder = CorpusBuilder()
        builder.add_all([("a", "<a/>"), ("b", "<b/>")])
        g, _ = builder.build()
        assert g.out_degree(g.root) == 2

    def test_scoped_reference_raises(self):
        # one document names no other, so a scoped token always dangles
        with pytest.raises(XmlFormatError, match="unresolvable reference other/x"):
            parse_xml("<r><b idref='other/x'/></r>")

    def test_only_id_idref_idrefs_are_special(self):
        g = parse_xml("<r><a id='x'/><b person='x' ref='x' open_auction='x'/></r>")
        assert sum(1 for _ in g.edges_of_kind(EdgeKind.IDREF)) == 0
        (person,) = g.nodes_with_label("person")
        assert g.value(person) == "x"
        assert len(g.nodes_with_label("ref")) == len(g.nodes_with_label("open_auction")) == 1

    def test_slash_in_explicit_id_raises(self):
        with pytest.raises(XmlFormatError, match="must not contain"):
            parse_xml("<r><a id='x/y'/></r>")

    def test_forward_references_resolve(self):
        g = parse_xml("<r><b idref='later'/><a id='later'/></r>")
        (b,) = g.nodes_with_label("b")
        (a,) = g.nodes_with_label("a")
        assert g.has_edge(b, a)

    def test_parse_passes_graph_invariants(self):
        parse_xml(WITH_REF).check_invariants()


class TestSerialize:
    def test_roundtrip_preserves_structure(self):
        g = parse_xml(WITH_REF, attribute_nodes=False)
        g2 = roundtrip(g)
        assert g2.num_nodes == g.num_nodes
        assert g2.num_edges == g.num_edges
        assert sorted(g2.labels()) == sorted(g.labels())

    def test_to_xml_emits_idref_attributes(self):
        g = parse_xml(WITH_REF, attribute_nodes=False)
        text = to_xml(g)
        assert "idref=" in text
        assert "id=" in text

    def test_to_xml_requires_single_document_element(self):
        g = DataGraph()
        root = g.add_root()
        for label in ("a", "b"):
            g.add_edge(root, g.add_node(label))
        with pytest.raises(XmlFormatError):
            to_xml(g)

    def test_to_xml_rejects_tree_sharing(self):
        g = DataGraph()
        root = g.add_root()
        doc = g.add_node("doc")
        g.add_edge(root, doc)
        a, b = g.add_node("a"), g.add_node("b")
        g.add_edge(doc, a)
        g.add_edge(doc, b)
        shared = g.add_node("s")
        g.add_edge(a, shared)
        g.add_edge(b, shared)  # two TREE parents: no XML nesting exists
        with pytest.raises(XmlFormatError, match="reached twice"):
            to_xml(g)

    def test_split_rejects_a_dnode_in_two_units(self):
        g = DataGraph()
        root = g.add_root()
        top, section = g.add_node("site"), g.add_node("section")
        g.add_edge(root, top)
        g.add_edge(top, section)
        units = [g.add_node("unit") for _ in range(2)]
        shared = g.add_node("s")
        for unit in units:
            g.add_edge(section, unit)
            g.add_edge(unit, shared)
        # however the units are dealt, the shared dnode would be written twice
        for n in (1, 2):
            with pytest.raises(WorkloadError, match="two unit subtrees"):
                split_into_documents(g, n)


class TestRoundTrip:
    """Parse -> serialise -> reload must be a fixpoint."""

    def fingerprint(self, g) -> str:
        """Canonical text form: stable because parsing assigns oids in
        document order and ``to_xml`` emits children in oid order."""
        return to_xml(g)

    def test_reload_is_fingerprint_identical(self):
        g = parse_xml(WITH_REF, attribute_nodes=False)
        assert self.fingerprint(roundtrip(g)) == self.fingerprint(g)

    def test_roundtrip_is_idempotent(self):
        g = roundtrip(parse_xml(WITH_REF, attribute_nodes=False))
        assert self.fingerprint(roundtrip(g)) == self.fingerprint(g)

    def test_idrefs_fan_out_survives_roundtrip(self):
        text = "<r><a id='x'>1</a><a id='y'>2</a><b idrefs='x y'/></r>"
        g = parse_xml(text, attribute_nodes=False)
        g2 = roundtrip(g)
        (b,) = g2.nodes_with_label("b")
        targets = [t for t in g2.iter_succ(b) if g2.edge_kind(b, t) is EdgeKind.IDREF]
        assert len(targets) == 2
        assert "idrefs=" in to_xml(g2)
        assert self.fingerprint(g2) == self.fingerprint(g)

    def test_values_survive_roundtrip(self):
        g = parse_xml("<r><a>alpha</a><b>beta</b></r>", attribute_nodes=False)
        g2 = roundtrip(g)
        assert sorted(
            g2.value(n) for n in g2.nodes() if g2.value(n) is not None
        ) == ["alpha", "beta"]

    def test_attribute_nodes_false_roundtrip(self):
        # ordinary attributes are dropped up front, so the remaining
        # structure must round-trip exactly
        g = parse_xml(
            "<r myattr='ignored'><a id='x' other='also'/><b idref='x'/></r>",
            attribute_nodes=False,
        )
        g2 = roundtrip(g)
        assert g2.num_nodes == g.num_nodes
        assert self.fingerprint(g2) == self.fingerprint(g)

    def test_cross_file_id_collision_isolated_by_corpus(self):
        # the corpus layer keeps ids file-scoped: the same id in two
        # documents is legal and stays two distinct nodes
        from repro.corpus import CorpusService

        corpus = CorpusService.bulk_load([
            ("a", "<a><x id='p1'>1</x></a>"),
            ("b", "<b><y id='p1'>2</y></b>"),
        ])
        graph = corpus.service.graph
        a_oid = corpus.catalog.manifest("a").oid_of["p1"]
        b_oid = corpus.catalog.manifest("b").oid_of["p1"]
        assert a_oid != b_oid
        assert {graph.value(a_oid), graph.value(b_oid)} == {"1", "2"}
        corpus.close()

    def test_unresolvable_idref_error_names_the_element_path(self):
        with pytest.raises(XmlFormatError) as err:
            parse_xml("<r><deep><b idref='nope'/></deep></r>")
        assert "/r[0]/deep[0]/b[0]" in str(err.value)


class TestDescribe:
    def test_describe_counts(self):
        g = parse_xml(WITH_REF, attribute_nodes=False)
        text = describe(g)
        assert "dnodes" in text and "IDREF" in text


# ----------------------------------------------------------------------
# Equal behaviour: the bytes the benchmark's corpora are made of
# ----------------------------------------------------------------------

#: sha256 of ``split_into_documents(graph, n)`` (``doc_id``, NUL, text,
#: NUL per document) for the generators' default graphs.  The corpus
#: workloads ingest these texts, so a writer change that moves a byte moves
#: their exact counters; these were taken from the two separate writers
#: the shared one replaced.
SPLIT_SHA256 = {
    ("xmark", 64): "06157e10e84c8d55c31312b5414f5bef35a5d482e915a1ca8e497da64e7ea91d",
    ("xmark", 1): "8128e12f26f0c95a7f47c4f4e8250178f12d57d99e7e0538980a3fbe173b93ae",
    ("imdb", 64): "b9f007ceef11bffe75add72df373a105ec21b10e00f8838f6b5beeedfa3ed1ac",
    ("imdb", 1): "537bf7be8b1f13b84d9b95efe6a9c7ee47cceba0090502ce3a59747fe6069171",
}

#: sha256 of the sorted-key JSON of ``graph_to_dict(parse_xml(text))`` for
#: the one-document text, oids included — the same for either
#: ``attribute_nodes`` value, since the writer writes no other attribute
PARSE_SHA256 = {
    "xmark": "0e349f80229f5961a8fa8d6ae020743089d4b71b97cba273eb56bb4933448641",
    "imdb": "81793620d4dbef10a1f975eb871346d618dc815a89ff92fa34b7edd8aa34cb79",
}


@pytest.fixture(scope="module")
def generated() -> dict[str, DataGraph]:
    return {
        "xmark": generate_xmark(XMarkConfig()).graph,
        "imdb": generate_imdb(IMDBConfig()).graph,
    }


def documents_sha256(documents: list[tuple[str, str]]) -> str:
    digest = hashlib.sha256()
    for doc_id, text in documents:
        for part in (doc_id, text):
            digest.update(part.encode())
            digest.update(b"\0")
    return digest.hexdigest()


def graph_sha256(graph: DataGraph) -> str:
    return hashlib.sha256(json.dumps(graph_to_dict(graph), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", ["xmark", "imdb"])
class TestPinnedBytes:
    def test_the_split_writes_the_pinned_bytes(self, generated, name):
        for n in (64, 1):
            digest = documents_sha256(split_into_documents(generated[name], n))
            assert digest == SPLIT_SHA256[name, n], n

    def test_to_xml_is_the_one_document_split(self, generated, name):
        (doc,) = split_into_documents(generated[name], 1)
        assert to_xml(generated[name]) == doc[1]

    def test_the_reader_builds_the_pinned_graph(self, generated, name):
        text = to_xml(generated[name])
        for attribute_nodes in (True, False):
            graph = parse_xml(text, attribute_nodes=attribute_nodes)
            assert graph_sha256(graph) == PARSE_SHA256[name], attribute_nodes

    def test_roundtrip_is_a_fixpoint_after_one_pass(self, generated, name):
        once = roundtrip(generated[name])
        assert graph_to_dict(roundtrip(once)) == graph_to_dict(once)

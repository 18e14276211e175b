"""Unit tests for the corpus' per-document parser and local-id scheme."""

from __future__ import annotations

import pytest

from repro.corpus.documents import ParsedDocument, ScopedRef, parse_document
from repro.exceptions import XmlFormatError


class TestLocalIds:
    def test_document_element_gets_dot_tag(self):
        d = parse_document("d", "<site/>")
        assert d.root_local == ".site"
        assert d.labels[".site"] == "site"

    def test_children_get_positional_ids(self):
        d = parse_document("d", "<r><a/><b/><a/></r>")
        assert set(d.order) == {".r", ".r.a[0]", ".r.b[0]", ".r.a[1]"}
        assert d.parent_of()[".r.a[1]"] == ".r"

    def test_explicit_id_restarts_the_chain(self):
        d = parse_document("d", "<r><a id='x'><b/></a></r>")
        assert "x" in d.explicit_ids
        # the anonymous subtree under an identified element is rooted at
        # the explicit id, so moving <a> keeps the whole subtree's ids
        assert "x.b[0]" in d.labels

    def test_attribute_nodes(self):
        d = parse_document("d", "<r q='2'/>")
        assert d.labels[".r.@q"] == "q"
        assert d.values[".r.@q"] == "2"
        assert (".r", ".r.@q") in d.tree_edges

    def test_attribute_nodes_disabled(self):
        d = parse_document("d", "<r q='2'/>", attribute_nodes=False)
        assert ".r.@q" not in d.labels

    def test_text_becomes_value(self):
        d = parse_document("d", "<r><a>hello</a></r>")
        assert d.values[".r.a[0]"] == "hello"

    def test_order_is_document_order_root_first(self):
        d = parse_document("d", "<r><a/><b><c/></b></r>")
        assert d.order[0] == ".r"
        assert d.order.index(".r.b[0]") < d.order.index(".r.b[0].c[0]")


class TestRefs:
    def test_bare_ref_is_intra_document(self):
        d = parse_document("d", "<r><a id='x'/><b idref='x'/></r>")
        assert ScopedRef(".r.b[0]", None, "x") in d.refs

    def test_scoped_ref_is_cross_document(self):
        d = parse_document("d", "<r><b idref='other/x'/></r>")
        assert ScopedRef(".r.b[0]", "other", "x") in d.refs

    def test_self_scoped_ref_normalises_to_intra(self):
        d = parse_document("d", "<r><a id='x'/><b idref='d/x'/></r>")
        assert ScopedRef(".r.b[0]", None, "x") in d.refs

    def test_idrefs_fans_out(self):
        d = parse_document(
            "d", "<r><a id='x'/><a id='y'/><b idrefs='x y other/z'/></r>"
        )
        source = ".r.b[0]"
        assert {r.target_local for r in d.refs if r.source_local == source} == {
            "x", "y", "z"
        }

    def test_unresolvable_bare_ref_names_the_path(self):
        with pytest.raises(XmlFormatError) as err:
            parse_document("d", "<r><deep><b idref='nope'/></deep></r>")
        assert "/r[0]/deep[0]/b[0]" in str(err.value)
        assert "'nope'" in str(err.value)

    def test_cross_document_refs_need_no_target_at_parse_time(self):
        d = parse_document("d", "<r><b idref='absent/x'/></r>")
        assert len(d.refs) == 1


class TestErrors:
    def test_malformed_xml_names_the_document(self):
        with pytest.raises(XmlFormatError) as err:
            parse_document("mydoc", "<open>")
        assert "mydoc" in str(err.value)

    def test_duplicate_explicit_id(self):
        with pytest.raises(XmlFormatError, match="duplicate id"):
            parse_document("d", "<r><a id='x'/><b id='x'/></r>")

    def test_slash_in_doc_id_rejected(self):
        with pytest.raises(XmlFormatError, match="must not contain"):
            parse_document("a/b", "<r/>")

    def test_slash_in_explicit_id_rejected(self):
        with pytest.raises(XmlFormatError, match="must not contain"):
            parse_document("d", "<r><a id='x/y'/></r>")

    @pytest.mark.parametrize(
        "doc_id, text, path",
        [
            ("", "<r/>", None),
            ("d", "<r><a id=''/></r>", "/r[0]/a[0]"),
            ("d", "<r><b idref='x/'/></r>", "/r[0]/b[0]"),
            ("d", "<r><b idrefs='x/y /x'/></r>", "/r[0]/b[0]"),
            ("d", "<r><b idref='x/y/z'/></r>", "/r[0]/b[0]"),
        ],
        ids=["document-id", "explicit-id", "scoped-local", "scoped-document", "scoped-slash"],
    )
    def test_names_that_cannot_resolve_rejected(self, doc_id, text, path):
        # an empty name would book a reference only an empty id resolves,
        # and no explicit id holds the '/' of a local "y/z"
        with pytest.raises(XmlFormatError) as err:
            parse_document(doc_id, text)
        assert err.value.source == doc_id
        assert err.value.path == path

    def test_explicit_id_colliding_with_synthetic_rejected(self):
        with pytest.raises(XmlFormatError, match="collides"):
            parse_document("d", "<r><a/><b id='.r.a[0]'/></r>")


class TestSameContent:
    def test_identical_parses_compare_equal(self):
        text = "<r><a id='x'>v</a><b idref='x'/></r>"
        assert parse_document("d", text).same_content(parse_document("d", text))

    def test_value_change_detected(self):
        a = parse_document("d", "<r><a>1</a></r>")
        b = parse_document("d", "<r><a>2</a></r>")
        assert not a.same_content(b)

    def test_structure_change_detected(self):
        a = parse_document("d", "<r><a/></r>")
        b = parse_document("d", "<r><a/><b/></r>")
        assert not a.same_content(b)

    def test_parsed_document_is_plain_data(self):
        d = parse_document("d", "<r/>")
        assert isinstance(d, ParsedDocument)
        assert not hasattr(d, "_pending_paths")

"""DESIGN.md stays a description of the system: short, and citable.

Source, tests and the other documents point into it by section number
(``DESIGN.md §5``); a rewrite that renumbers, or an edit that grows it
back into a history, fails here.  So does a document that quotes the
audit slice's size after the constant moved on.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.resilience.invariants import AUDIT_SLICE_VISITS  # (before conftest's patch)

REPO = Path(__file__).resolve().parent.parent
DESIGN = REPO / "DESIGN.md"
CITATION = re.compile(r"DESIGN\.md\s+§(\d+)")
HEADING = re.compile(r"^## (\d+)\. ", re.MULTILINE)
MAX_BYTES = 20_000
#: "`AUDIT_SLICE_VISITS` = 8 192", thousands separated or not
SLICE_FIGURE = re.compile(r"`AUDIT_SLICE_VISITS`\s*=\s*(\d[\d ,\u00a0\u2009]*)")


def citing_files():
    yield REPO / "README.md"
    yield REPO / "EXPERIMENTS.md"
    for root in ("src", "tests"):
        yield from sorted((REPO / root).rglob("*.py"))


def test_every_cited_section_exists():
    sections = {int(number) for number in HEADING.findall(DESIGN.read_text())}
    assert sections == set(range(1, max(sections) + 1)), "section numbers have a hole"
    cited = {
        (path.relative_to(REPO).as_posix(), int(number))
        for path in citing_files()
        for number in CITATION.findall(path.read_text())
    }
    assert cited, "the citation pattern matches nothing: the test is blind"
    assert {number for _, number in cited} <= sections, sorted(
        (path, number) for path, number in cited if number not in sections
    )


def test_design_is_a_description_not_a_history():
    assert len(DESIGN.read_bytes()) <= MAX_BYTES


def test_the_documents_quote_the_served_audit_slice():
    for path in (REPO / "README.md", DESIGN, REPO / ".claude/skills/verify/SKILL.md"):
        figures = SLICE_FIGURE.findall(path.read_text())
        quoted = {int(re.sub(r"\D", "", figure)) for figure in figures}
        assert quoted, f"{path.name} no longer states the constant: the test is blind"
        assert quoted == {AUDIT_SLICE_VISITS}, path.name

"""DESIGN.md stays a description of the system: short, and citable.

Source, tests and the other documents point into it by section number
(``DESIGN.md §5``); a rewrite that renumbers, or an edit that grows it
back into a history, fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DESIGN = REPO / "DESIGN.md"
CITATION = re.compile(r"DESIGN\.md\s+§(\d+)")
HEADING = re.compile(r"^## (\d+)\. ", re.MULTILINE)
MAX_BYTES = 20_000


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

"""The composed example runs green (CI's ``smoke-experiment`` runs it too)."""

from __future__ import annotations

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_serving_stack_composes_store_adaptive_plane_and_replication(tmp_path, capsys):
    example = runpy.run_path(str(EXAMPLES / "serving_stack.py"))
    example["main"](str(tmp_path))
    printed = capsys.readouterr().out
    assert "/health is ok under the stock SLO rules" in printed
    assert "recovered v13 by replaying 13" in printed
    assert "keeps committing" in printed

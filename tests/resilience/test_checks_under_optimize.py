"""The guard's checks hold under ``python -O``.

``-O`` strips every ``assert``.  The facts the guard states — the one pass
of either kernel, the root's facts, the totals — and the checkpoint
loader's check of a family raise explicitly instead, so a corrupted state
is refused whatever the interpreter's flags.  Here one row of each
structure, planted where the next commit's check reads it, must roll the
commit back, and a corrupted family payload must not load, in a ``python
-O`` subprocess.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = r"""
from repro.exceptions import InvalidIndexError, InvariantViolationError
from repro.index.serialize import family_from_dict, family_to_dict
from repro.resilience import GuardConfig
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.xmark import XMarkConfig, generate_xmark

assert False, "python -O strips this"
SMALL = XMarkConfig(
    num_items=30, num_persons=40, num_open_auctions=25, num_closed_auctions=15, num_categories=8
)


def commit_refused(service) -> bool:
    quiet = max(service.graph.nodes())
    service.submit(Update.set_value(quiet, "tweak"))
    try:
        service.flush()
    except InvariantViolationError:
        return service.guarded.stats.rollbacks == 1
    return False


# a 1-index: a support row bumped in both mirrors (the slice recounts it whole)
service = IndexService(
    generate_xmark(SMALL).graph, ServiceConfig(guard=GuardConfig(policy="raise"))
)
index = service.structure
graph = service.graph
i = index.inode_of(graph.root)
j = next(iter(index.isucc(i)))
index._succ_support[i][j] += 1
index._pred_support[j][i] += 1
print("one", "rolled-back" if commit_refused(service) else "ACCEPTED")
service.close()

# an A(2) family: a leaf class its tree parent no longer lists
service = IndexService(
    generate_xmark(SMALL).graph,
    ServiceConfig(family="ak", k=2, guard=GuardConfig(policy="raise")),
)
family = service.structure
token = min(family.levels[2].extents)
family.levels[1].children[family.levels[2].parent[token]].discard(token)
print("ak", "rolled-back" if commit_refused(service) else "ACCEPTED")
service.close()

# a family payload whose level-1 classes no longer cover the graph
graph = generate_xmark(SMALL).graph
service = IndexService(graph, ServiceConfig(family="ak", k=2))
payload = family_to_dict(service.structure)
service.close()
victim = next(extent for extent in payload["levels"][1]["extents"] if len(extent[1]) > 1)
victim[1].pop()
try:
    family_from_dict(graph, payload)
    print("payload", "LOADED")
except InvalidIndexError:
    print("payload", "refused")
"""


def test_corrupted_state_is_refused_under_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parent.parent)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:3] == ["one rolled-back", "ak rolled-back", "payload refused"]

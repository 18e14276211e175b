"""Post-transaction invariant checking: the batch's neighbourhood, then audits.

The guard reuses the library's oracles instead of reimplementing checks:
:meth:`DataGraph.check_invariants` and the structure's own
``check_invariants`` for structural consistency, then
:func:`repro.index.stability.depth_violations` for what the structure
claims to be — a valid, or a minimal, 1-index or A(k) family (minimal
and minimum coincide for A(k), Lemma 6).  It never asks which of the two
it was handed (:class:`repro.index.structure.Structure`).

Each oracle takes an optional *scope*.  Split and merge are local — an
update can only destabilise inodes reachable from the changed edge — and
a transaction's :class:`~repro.resilience.journal.TouchedSet` is a
superset of what it changed, so after a batch the same predicates run
over the touched dnodes, the children of those that changed inode (their
index parents were renamed) and the touched inodes: O(touched), every
fact re-derived from graph adjacency; the rest is what the previous
check accepted.  That induction needs the touched set to really be a
superset, so the unscoped, whole-graph check still runs when there is no
usable scope (``touched`` absent or ``full`` after a degrade-rebuild,
recovery's post-check, :meth:`IndexService.check`) and as an **audit**
spread over the local checks: each is followed by one of the check's
three steps (:data:`AUDIT_STEPS`) unscoped, in turn, so every commit pays
about the same and none pays for the whole graph (DESIGN.md §5).

Whether a transaction is post-checked at all is the cadence's call:
every update or every N-th.  A failed check
raises :class:`repro.exceptions.InvariantViolationError`, which the
:class:`~repro.resilience.guard.GuardedMaintainer` treats exactly like a
mid-operation exception — roll back, then apply the failure policy.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import InvariantViolationError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.stability import depth_violations
from repro.index.structure import Structure
from repro.obs import current as current_obs
from repro.resilience.journal import TouchedSet

#: check depths, each including the previous: structural bookkeeping only,
#: + validity (stability), + minimality.
LEVELS = ("basic", "valid", "minimal")

#: the whole-graph audit, cut into steps; every local check runs the next one
AUDIT_STEPS = ("graph", "structure", "depth")


class InvariantGuard:
    """Cadenced invariant checks over a graph and the structure maintained over it."""

    def __init__(self, level: str = "valid", check_every: int = 1):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        self.level = level
        self.check_every = check_every
        self._since_check = 0
        #: dnodes + adjacency entries the last check was scoped to
        self.last_visited = 0
        self.checks_local = self.checks_full = 0
        #: audits completed, and local checks since (= the next audit step)
        self.audits = self.checks_since_audit = 0
        #: verdict of the last full check or audit step (``None``: none yet)
        self.last_audit_ok: Optional[bool] = None

    def due(self) -> bool:
        """Advance the cadence by one update; report whether to check now."""
        if self.check_every <= 0:
            return False
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._since_check = 0
            return True
        return False

    def check(
        self,
        graph: DataGraph,
        structure: Structure,
        touched: Optional[TouchedSet] = None,
    ) -> None:
        """Run the configured checks; raise :class:`InvariantViolationError`.

        Scoped to *touched* and followed by the audit step whose turn it
        is, or every step unscoped when there is no usable scope.
        """
        scope: dict = {}
        if touched is None or touched.full:
            self.checks_full += 1
            self.checks_since_audit = 0  # the audit starts over
            self.last_audit_ok = False  # until the checks below pass
            self.last_visited = graph.num_nodes + 2 * graph.num_edges  # both mirrors
        else:
            dnodes = touched.dnodes | touched.moved
            for w in touched.moved:
                if graph.has_node(w):  # its children's index parents changed name
                    dnodes.update(graph.iter_succ(w))
            scope = {"dnodes": dnodes, "inodes": touched.inodes, "tokens": touched.tokens}
            self.last_visited = sum(
                1 + graph.in_degree(w) + graph.out_degree(w)
                for w in dnodes
                if graph.has_node(w)
            )
            self.checks_local += 1
        current_obs().add("resilience.check_visited", self.last_visited)
        for step in AUDIT_STEPS:
            self._run(step, graph, structure, **scope)
        if scope:
            self.audit_step(graph, structure)
        else:
            self.last_audit_ok = True

    def audit_step(self, graph: DataGraph, structure: Structure) -> None:
        """Run the next step of the whole-graph audit; the last completes it."""
        self.last_audit_ok = False
        self._run(AUDIT_STEPS[self.checks_since_audit], graph, structure)
        self.last_audit_ok = True
        self.checks_since_audit += 1
        if self.checks_since_audit == len(AUDIT_STEPS):
            self.checks_since_audit = 0
            self.audits += 1
            current_obs().add("resilience.audits")

    def _run(self, step: str, graph: DataGraph, structure: Structure, **scope) -> None:
        """One step of the check, over the ids of *scope* or (none given)
        everything; a lookup an oracle misses (a corrupted map) is a
        violation too."""
        try:
            if step == "graph":
                graph.check_invariants(scope.get("dnodes"))
            elif step == "structure":
                structure.check_invariants(**scope)
            elif self.level != "basic":
                for violation in depth_violations(structure, self.level == "minimal", **scope):
                    raise InvariantViolationError(*violation)
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(
                f"structural invariant broken: {type(exc).__name__}: {exc}"
            ) from exc

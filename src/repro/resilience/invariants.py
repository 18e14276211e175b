"""Post-transaction invariant checking: the batch's neighbourhood, then an audit slice.

Every check the guard makes is one pass of a kernel of
:mod:`repro.index.stability` — :func:`~repro.index.stability.audit_extents`
for a 1-index, :func:`~repro.index.stability.audit_classes` for an A(k)
family (it asks which of the two it was handed,
:class:`repro.index.structure.Structure`, only to pick one).  The pass
reads each member's slot, succ segment and pred segment once and states,
at the configured depth, what the library's oracles state of it: the
graph's and the structure's consistency, then what the structure claims
to be — a valid, or a minimal, 1-index or A(k) family (minimal and
minimum coincide for A(k), Lemma 6).  It asks an oracle only for the
exact pair of a test that failed.  The oracles themselves
(:meth:`DataGraph.check_invariants`, the structures' ``check_invariants``,
:func:`~repro.index.stability.unstable_pairs`, ...) are the reference
the kernels are differenced against (``tests/resilience/``).

A pass takes one of three scopes:

* **the batch's.**  Split and merge are local — an update can only
  destabilise inodes reachable from the changed edge — and a
  transaction's :class:`~repro.resilience.journal.TouchedSet` is a
  superset of what it changed, so after a batch the pass reads the
  touched dnodes and the children of those that changed inode (their
  index parents were renamed), each against its own extent, and the
  touched inodes or classes by their links: O(touched), every fact
  re-derived from graph adjacency.  A stored support row must equal the
  recount where the scope holds a whole extent and dominate it where it
  holds part; stability is then still by count, and a class read in part
  is signed against the member outside the scope the oracle would take.
* **an audit slice.**  That induction needs the touched set to really be
  a superset, so the rest of the graph is re-verified behind it by an
  **audit cursor**: every local check is followed by the next *slice* of
  leaf inodes (1-index inodes, leaf classes of a family, in id order),
  read whole and cut after :data:`AUDIT_SLICE_VISITS` dnode visits.  A
  slice ends with the extent that reaches the constant, so a commit
  costs O(touched + constant + the largest leaf extent) and the whole
  graph comes round every ⌈(|V| + 2|E|) ÷ AUDIT_SLICE_VISITS⌉ commits.
* **everything**, when there is no usable scope (``touched`` absent or
  ``full`` after a degrade-rebuild, recovery's post-check,
  :meth:`IndexService.check`): one pass over every leaf id, no budget, and
  the totals.  It restarts the cursor (DESIGN.md §5).

One cycle of slices states everything the unscoped check states:

* a slice takes **whole extents**: stored supports must *equal* the
  recount, and an extent that lists a dnode mapped elsewhere is refused
  — a slice reads its dnodes off the extents;
* the facts with no per-id form — counters, cover sums, key sets, a
  family's classes above the leaf level (``check_totals`` of the graph
  and the structure) — run with the slice that ends the cycle;
* a mergeable pair is found from either side, so the root's inode, which
  the minimality probe skips, is covered by its would-be partner (a
  parentless inode probes every parentless one).  Its sibling probes
  ride uncounted — ≈ 0.8 per visit on XMark, a label comparison each —
  and counting them would break the cycle bound above.  A family's pass
  signs, as Definition 4's oracle does, each class it reads in part
  against its outside representative and its tree siblings once;
* the cycle walks the ids alive when it began; an id created, or a dnode
  moved, since then was in that batch's touched set — the induction the
  local check already rests on — and dead ids are verified absent.

Every fact raises explicitly, never by ``assert``, so the checks hold
under ``python -O`` too.  The
:class:`~repro.resilience.guard.GuardedMaintainer` post-checks every
transaction it commits; only a guard at level ``""`` checks nothing
(recovery's replay, which one unscoped check follows).  A failed check
raises :class:`repro.exceptions.InvariantViolationError`, which the
guarded maintainer treats exactly like a mid-operation exception — roll
back, then apply the failure policy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

from repro.exceptions import InvariantViolationError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.stability import ExtentAudit, audit_classes, audit_extents
from repro.index.structure import Structure
from repro.obs import current as current_obs
from repro.resilience.journal import TouchedSet

#: check depths, each including the previous: structural bookkeeping only,
#: + validity (stability), + minimality.
LEVELS = ("basic", "valid", "minimal")

#: dnode visits (1 + in-degree + out-degree each, the unit of
#: ``last_visited``) after which an audit slice takes no further inode
AUDIT_SLICE_VISITS = 8192


class InvariantGuard:
    """Invariant checks over a graph and the structure maintained over it."""

    def __init__(self, level: str = "valid"):
        if level and level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS} or '' (none)")
        self.level = level
        #: dnodes + adjacency entries the last check was scoped to, and its audit slice
        self.last_visited = self.last_audit_visited = 0
        self.checks_local = self.checks_full = 0
        #: audit cycles completed, and the largest slice of the last one
        self.audits = self.audit_slice_max_visited = 0
        #: verdict of the last full check or audit slice (``None``: none yet)
        self.last_audit_ok: Optional[bool] = None
        #: leaf inode id the next slice starts at (0: a new cycle), the visits
        #: of the cycle so far and of its largest slice
        self.audit_cursor = self.cycle_visited = self._cycle_slice_max = 0
        #: the cycle under way: the leaf ids alive when it began, ascending,
        #: and how many of them are done
        self._cycle: Sequence[int] = ()
        self._cycle_done = 0

    def check(
        self,
        graph: DataGraph,
        structure: Structure,
        touched: Optional[TouchedSet] = None,
    ) -> None:
        """Run the configured checks; raise :class:`InvariantViolationError`.

        Scoped to *touched* and followed by the next audit slice, or
        everything unscoped when there is no usable scope.  At level
        ``""`` nothing is checked.
        """
        if not self.level:
            return
        family = structure.kind == AkIndexFamily.kind
        kernel = audit_classes if family else audit_extents
        full = touched is None or touched.full
        if full:
            self.checks_full += 1
            self._restart_audit()
            self.last_audit_ok = False  # until the check below passes
            ids = sorted(structure.leaf().inodes())
            audit = kernel(structure, ids, 0, None, **self._depth())
        else:
            dnodes = touched.dnodes | touched.moved
            for w in touched.moved:
                if graph.has_node(w):  # its children's index parents changed name
                    dnodes.update(graph.iter_succ(w))
            ids = sorted(touched.inodes)
            if family:  # (a member moved to or from no class is marked ``(level, None)``)
                ids = sorted(token for token in touched.tokens if token[1] is not None)
            audit = kernel(structure, ids, 0, None, dnodes=dnodes, **self._depth())
            self.checks_local += 1
        self.last_visited = audit.visits
        current_obs().add("resilience.check_visited", audit.visits)
        if full:
            _judge(audit, before=(graph, structure))
            self.last_audit_ok = True
        else:
            _judge(audit)
            self._audit_slice(graph, structure)

    def adopt_full_check(self, level: str) -> bool:
        """Take over the verdict of an unscoped check that another guard
        passed at *level* on this very state (recovery's post-check) —
        only if it went at least as deep as this guard's own level, or
        this guard would vouch for more than was checked.  Returns
        whether it did; if not, the first audit cycle states the rest."""
        if not level or (self.level and LEVELS.index(level) < LEVELS.index(self.level)):
            return False
        self.checks_full += 1
        self._restart_audit()
        self.last_audit_ok = True
        return True

    def audit_progress(self, graph: DataGraph) -> dict:
        """Where the cursor stands, for ``/health``."""
        units = max(1, graph.num_nodes + 2 * graph.num_edges)  # a cycle's visits
        return {
            "audit_cursor": self.audit_cursor,
            "audit_coverage": round(min(1.0, self.cycle_visited / units), 4),
            "commits_per_full_audit": -(-units // AUDIT_SLICE_VISITS),
            "audit_slice_max_visited": self.audit_slice_max_visited,
        }

    def _restart_audit(self) -> None:
        self._cycle = ()
        self._cycle_done = self.audit_cursor = 0
        self.cycle_visited = self._cycle_slice_max = 0

    def _depth(self) -> dict:
        return {"stable": self.level != "basic", "minimal": self.level == "minimal"}

    def _audit_slice(self, graph: DataGraph, structure: Structure) -> None:
        """Re-verify the next slice of leaf inodes, whole; the slice that
        reaches the end of the cycle states the totals and completes it."""
        leaf = structure.leaf()
        if not self._cycle_done:
            self._cycle = sorted(leaf.inodes())
        cycle, start = self._cycle, self._cycle_done
        kernel = audit_classes if structure.kind == AkIndexFamily.kind else audit_extents
        audit = kernel(structure, cycle, start, AUDIT_SLICE_VISITS, **self._depth())
        done, visited = audit.end, audit.visits
        ids = cycle[start:done]
        self.last_audit_ok = False
        try:
            _judge(audit, after=(graph, structure) if done == len(cycle) else ())
        except InvariantViolationError as exc:
            exc.audit_range = (self.audit_cursor, ids[-1] if ids else self.audit_cursor)
            raise
        self.last_audit_ok = True
        self.last_audit_visited = visited
        self.cycle_visited += visited
        self._cycle_slice_max = max(self._cycle_slice_max, visited)
        obs = current_obs()
        obs.add("resilience.audit_visited", visited)
        obs.observe("resilience.audit_slice_visits", visited)
        if done == len(cycle):
            self.audit_slice_max_visited = self._cycle_slice_max
            self._restart_audit()
            self.audits += 1
            obs.add("resilience.audits")
        else:
            self._cycle_done, self.audit_cursor = done, cycle[done]


def _judge(audit: ExtentAudit, before: Iterable = (), after: Iterable = ()) -> None:
    """Raise what a pass found, as :class:`InvariantViolationError`: the
    totals of *before* (graph, structure), the pass's broken structural
    fact, its depth violation, then the totals of *after*.  A lookup a
    corrupted map misses is a violation too."""
    try:
        for part in before:
            part.check_totals()
        if audit.broken is not None:
            raise audit.broken
        for violation in audit.violations:
            raise InvariantViolationError(*violation)
        for part in after:
            part.check_totals()
    except (AssertionError, LookupError, StructuralIndexError) as exc:
        raise InvariantViolationError(
            f"structural invariant broken: {type(exc).__name__}: {exc}"
        ) from exc


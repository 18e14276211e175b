"""Post-transaction invariant checking: the batch's neighbourhood, then an audit slice.

The guard reuses the library's oracles instead of reimplementing checks:
:meth:`DataGraph.check_invariants` and the structure's own
``check_invariants`` for structural consistency, then
:func:`repro.index.stability.depth_violations` for what the structure
claims to be — a valid, or a minimal, 1-index or A(k) family (minimal
and minimum coincide for A(k), Lemma 6).  It asks which of the two it
was handed (:class:`repro.index.structure.Structure`) only to audit a
slice, below.

Each oracle takes an optional *scope*.  Split and merge are local — an
update can only destabilise inodes reachable from the changed edge — and
a transaction's :class:`~repro.resilience.journal.TouchedSet` is a
superset of what it changed, so after a batch the same predicates run
over the touched dnodes, the children of those that changed inode (their
index parents were renamed) and the touched inodes: O(touched), every
fact re-derived from graph adjacency; the rest is what the previous
check accepted.  That induction needs the touched set to really be a
superset, so the rest of the graph is re-verified behind it by an
**audit cursor**: every local check is followed by the same oracles over
the next *slice* of leaf inodes (1-index inodes, leaf classes of a
family, in id order), cut after :data:`AUDIT_SLICE_VISITS` dnode visits.
A slice ends with the extent that reaches the constant, so a commit costs
O(touched + constant + the largest leaf extent) and the whole graph comes
round every ⌈(|V| + 2|E|) ÷ AUDIT_SLICE_VISITS⌉ commits.

The slice of a 1-index is one pass,
:func:`repro.index.stability.audit_extents`: each member's slot, succ
segment and pred segment are read once, with one probe of the other
mirror per adjacency entry, and that one read states every fact the
three oracles state of those ids — stability by count (the proof of
Lemma 3: once the recount equals the stored support row, an inode is
stable iff each member has ``len(row)`` distinct parent inodes).  It
costs ≈ 1.9 µs a visit at ``valid`` on XMark(1) (one host, in process),
where the three oracles in turn, each re-reading every member's
adjacency one lookup call at a time, took ≈ 5.1.  A family's slice is
the same pass, :func:`repro.index.stability.audit_classes`: each leaf
class's tree chain resolved once and its members' class maps checked
along it in one go, Definition 4 tested at every level against a
parent-class set formed once per class (a member of in-degree 1 is one
lookup a level), and the oracle asked for the exact pair only when a
test fails — ≈ 1.2–1.8 µs a visit at A(4) and ≈ 0.9–1.3 at A(2) at
``minimal`` on XMark(1), where the oracles took ≈ 3.5–6 and ≈ 2.4–4.5.
One cycle states everything the unscoped check states:

* a slice takes **whole extents**: stored supports must *equal* the
  recount, and an extent that lists a dnode mapped elsewhere is refused
  — a slice reads its dnodes off the extents where the unscoped check
  reads them off the graph;
* the facts with no per-id form — counters, cover sums, key sets, a
  family's classes above the leaf level (``check_totals`` of the graph
  and the structure) — run with the slice that ends the cycle;
* a mergeable pair is found from either side, so the root's inode, which
  the scoped minimality oracle skips, is covered by its would-be partner
  (a parentless inode probes every parentless one).  Its sibling probes
  ride uncounted: ≈ 0.8 per visit on XMark at 1× and 4×, a label
  comparison each — ≈ 4.4 ms, 22–24 % of a one-pass slice at either
  scale (≈ 9 % of the three-oracle slice it replaced) — and counting
  them would break the cycle bound above.  A family's slice signs, as
  Definition 4's oracle does, each reached class's outside
  representative and its tree siblings once: ≈ 1.3–1.5 ms a slice at
  A(4), 8–10 % of it, and ≈ 0.4–0.5 ms, 4–6 %, at A(2), on XMark at 1×
  and 4× alike;
* the cycle walks the ids alive when it began; an id created, or a dnode
  moved, since then was in that batch's touched set — the induction the
  local check already rests on — and dead ids are verified absent.

The unscoped check in one go remains the fall-back when there is no
usable scope (``touched`` absent or ``full`` after a degrade-rebuild,
recovery's post-check, :meth:`IndexService.check`); it restarts the
cursor (DESIGN.md §5).

The :class:`~repro.resilience.guard.GuardedMaintainer` post-checks every
transaction it commits; only a guard at level ``""`` checks nothing
(recovery's replay, which one unscoped check follows).  A failed check
raises :class:`repro.exceptions.InvariantViolationError`, which the
guarded maintainer treats exactly like a mid-operation exception — roll
back, then apply the failure policy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

from repro.exceptions import (
    InvariantViolationError,
    NodeNotFoundError,
    StructuralIndexError,
)
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.stability import (
    ExtentAudit,
    audit_classes,
    audit_extents,
    depth_violations,
)
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
        scope: dict = {}
        if touched is None or touched.full:
            self.checks_full += 1
            self._restart_audit()
            self.last_audit_ok = False  # until the checks below pass
            self.last_visited = _visits_of_all(graph)
        else:
            dnodes = touched.dnodes | touched.moved
            for w in touched.moved:
                if graph.has_node(w):  # its children's index parents changed name
                    dnodes.update(graph.iter_succ(w))
            scope = {"dnodes": dnodes, "inodes": touched.inodes, "tokens": touched.tokens}
            self.last_visited = _visits(graph, dnodes)
            self.checks_local += 1
        current_obs().add("resilience.check_visited", self.last_visited)
        self._run(graph, structure, **scope)
        if scope:
            self._audit_slice(graph, structure)
        else:
            self.last_audit_ok = True

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
        units = max(1, _visits_of_all(graph))
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

    def _audit_slice(self, graph: DataGraph, structure: Structure) -> None:
        """Re-verify the next slice of leaf inodes, whole; the slice that
        reaches the end of the cycle states the totals and completes it."""
        leaf = structure.leaf()
        if not self._cycle_done:
            self._cycle = sorted(leaf.inodes())
        cycle, start = self._cycle, self._cycle_done
        # one pass over the slice's leaf extents states what the oracles state
        kernel = audit_classes if structure.kind == AkIndexFamily.kind else audit_extents
        audit = kernel(
            structure, cycle, start, AUDIT_SLICE_VISITS,
            stable=self.level != "basic", minimal=self.level == "minimal",
        )
        done, visited = audit.end, audit.visits
        ids = cycle[start:done]
        self.last_audit_ok = False
        try:
            self._run(graph, structure, totals=done == len(cycle), audit=audit)
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

    def _run(
        self,
        graph: DataGraph,
        structure: Structure,
        dnodes: Optional[Iterable[int]] = None,
        inodes: Optional[Iterable[int]] = None,
        tokens: Optional[Iterable[tuple[int, int]]] = None,
        totals: bool = False,
        audit: Optional[ExtentAudit] = None,
    ) -> None:
        """The check — graph, structure, depth — over the ids of a scope or
        (none given) everything, or what the *audit* of a slice found;
        then the *totals* if asked.  A lookup an oracle misses (a
        corrupted map) is a violation too."""
        try:
            if audit is not None:
                if audit.broken is not None:
                    raise audit.broken
                violations: Iterable[tuple] = audit.violations
            else:
                graph.check_invariants(dnodes)
                structure.check_invariants(dnodes=dnodes, inodes=inodes, tokens=tokens)
                violations = ()
                if self.level != "basic":
                    minimal = self.level == "minimal"
                    violations = depth_violations(structure, minimal, dnodes, inodes, tokens)
            for violation in violations:
                raise InvariantViolationError(*violation)
            if totals:
                graph.check_totals()
                structure.check_totals()
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(
                f"structural invariant broken: {type(exc).__name__}: {exc}"
            ) from exc


def _visits_of_all(graph: DataGraph) -> int:
    """What :func:`_visits` would count over every dnode: a cycle's worth."""
    return graph.num_nodes + 2 * graph.num_edges  # both mirrors


def _visits(graph: DataGraph, dnodes: Iterable[int]) -> int:
    """The live *dnodes* and their adjacency entries, both mirrors."""
    visits = 0
    for w in dnodes:
        try:
            visits += 1 + graph.in_degree(w) + graph.out_degree(w)
        except NodeNotFoundError:
            pass  # a dead one: looked up, never walked
    return visits

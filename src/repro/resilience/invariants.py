"""Post-transaction invariant checking: the batch's neighbourhood, then audits.

The guard reuses the library's oracles instead of reimplementing checks:
:meth:`DataGraph.check_invariants` and
:meth:`StructuralIndex.check_invariants` for structural consistency,
:func:`repro.index.stability.unstable_pairs` /
:func:`~repro.index.stability.mergeable_pairs` for the 1-index, and
:meth:`AkIndexFamily.check_invariants` /
:meth:`~AkIndexFamily.signature_violations` for the family (minimal and
minimum coincide for A(k), Lemma 6).

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
once the local checks since the last full one have visited more than
``AUDIT_BUDGET × (|V| + |E|)`` dnodes and adjacency entries — a bound on
the audits' share of checking cost that needs no knob.

Whether a transaction is post-checked at all is the cadence's call:
every update, every N-th, or a seeded sampled fraction.  A failed check
raises :class:`repro.exceptions.InvariantViolationError`, which the
:class:`~repro.resilience.guard.GuardedMaintainer` treats exactly like a
mid-operation exception — roll back, then apply the failure policy.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.exceptions import InvariantViolationError, StructuralIndexError
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.stability import mergeable_pairs, unstable_pairs
from repro.obs import current as current_obs
from repro.resilience.journal import TouchedSet

#: check depths, each including the previous: structural bookkeeping only,
#: + validity (stability), + minimality.
LEVELS = ("basic", "valid", "minimal")

#: local checks may visit this many times (|V| + |E|) before a full audit
AUDIT_BUDGET = 4


class InvariantGuard:
    """Cadenced invariant checks over a graph and its index or family."""

    def __init__(
        self,
        level: str = "valid",
        check_every: int = 1,
        sample_rate: Optional[float] = None,
        seed: int = 0,
    ):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        if sample_rate is not None and not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in [0, 1]")
        self.level = level
        self.check_every = check_every
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._since_check = 0
        #: dnodes + adjacency entries the last check was scoped to
        self.last_visited = 0
        self.checks_local = self.checks_full = 0
        #: full checks that ran because the visit budget was spent
        self.audits = 0
        #: local checks, and the visits they made, since the last full one
        self.checks_since_audit = self._visited_since_audit = 0
        #: verdict of the last full check (``None``: none has run yet)
        self.last_audit_ok: Optional[bool] = None

    def due(self) -> bool:
        """Advance the cadence by one update; report whether to check now."""
        if self.sample_rate is not None:
            return self._rng.random() < self.sample_rate
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
        index: Optional[StructuralIndex] = None,
        family: Optional[AkIndexFamily] = None,
        touched: Optional[TouchedSet] = None,
    ) -> None:
        """Run the configured checks; raise :class:`InvariantViolationError`.

        Scoped to *touched* unless it is unusable or an audit is due; a
        lookup an oracle misses (a corrupted map) is a violation too.
        """
        obs = current_obs()
        size = graph.num_nodes + graph.num_edges
        audit = self._visited_since_audit > AUDIT_BUDGET * size
        dnodes = inodes = tokens = None
        if audit or touched is None or touched.full:
            self.checks_full += 1
            if audit:
                self.audits += 1
                obs.add("resilience.audits")
            self.checks_since_audit = self._visited_since_audit = 0
            self.last_audit_ok = False  # until the checks below pass
            self.last_visited = size + graph.num_edges  # both adjacency mirrors
        else:
            inodes, tokens = touched.inodes, touched.tokens
            dnodes = touched.dnodes | touched.moved
            for w in touched.moved:
                if graph.has_node(w):  # its children's index parents changed name
                    dnodes.update(graph.iter_succ(w))
            self.last_visited = sum(
                1 + graph.in_degree(w) + graph.out_degree(w)
                for w in dnodes
                if graph.has_node(w)
            )
            self.checks_local += 1
            self.checks_since_audit += 1
            self._visited_since_audit += self.last_visited
        obs.add("resilience.check_visited", self.last_visited)
        try:
            graph.check_invariants(dnodes)
            if index is not None:
                self._check_index(index, inodes, dnodes)
            if family is not None:
                self._check_family(family, dnodes, tokens)
        except (AssertionError, LookupError, StructuralIndexError) as exc:
            raise InvariantViolationError(
                f"structural invariant broken: {type(exc).__name__}: {exc}"
            ) from exc
        if dnodes is None:
            self.last_audit_ok = True

    def _check_index(self, index: StructuralIndex, inodes, dnodes) -> None:
        index.check_invariants(inodes, dnodes)
        if self.level == "basic":
            return
        for pair in unstable_pairs(index, inodes, dnodes):
            raise InvariantViolationError(
                "index is no longer a valid 1-index: inode %s is not stable "
                "w.r.t. inode %s" % pair, 1, pair,
            )
        if self.level == "minimal":
            for pair in mergeable_pairs(index, inodes):
                raise InvariantViolationError(
                    f"index is valid but no longer minimal: inodes {pair} merge", 5, pair
                )

    def _check_family(self, family: AkIndexFamily, dnodes, tokens) -> None:
        family.check_invariants(dnodes, tokens)
        if self.level == "minimal":
            for level, token, other in family.signature_violations(dnodes):
                raise InvariantViolationError(
                    f"A(k) family drifted from the minimum: inode {token}@{level} "
                    + ("mixes signatures" if other is None else f"signs like {other}"),
                    4, (token, other),
                )

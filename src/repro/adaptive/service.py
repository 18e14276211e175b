"""`AdaptivePlane` — the adaptive part of an :class:`IndexService`.

A service built with ``adaptive=AdaptiveConfig()`` sits exactly where a
plain one sits — one graph, one maintainer, snapshot isolation — and
gains the adaptive plane on the read path plus a closed control loop on
the write path:

* at every publish the writer captures the **A(k) ladder** ancestor
  maps off the live refinement tree (:mod:`repro.adaptive.ladder`) and
  hangs them on the version's snapshot, so readers can evaluate short
  child-only paths on a far coarser level;
* each query is classified by the :class:`~repro.adaptive.router.QueryRouter`
  and dispatched to the smallest level that answers it *exactly*, with
  everything else falling back to the safe leaf + validation path a
  plain service always takes;
* answers land in the :class:`~repro.adaptive.result_cache.ResultCache`
  keyed by (route, compiled path, version); each commit invalidates by
  intersecting the batch's TouchedSet-derived change sets with the
  entries' recorded footprints instead of flushing wholesale;
* after every commit the :class:`~repro.adaptive.controller.AdaptiveController`
  feeds the published size to the paper's 5 % trigger, submits a
  ``reconstruct`` operation when a 1-index has grown past it, and
  retunes the ladder to demand.

The ``ak`` family gets the full plane; the ``one`` family — already
precise at a single level — gets the result cache and the paper's
reconstruction trigger, which is where its split/merge bloat goes.  One
read path (:meth:`AdaptivePlane.answer`) serves both.

Correctness stance: routing and caching may only change *where* an
answer is computed, never the answer.  ``AdaptiveConfig(audit=True)``
enforces that at runtime — every served result is re-derived from the
version's own frozen graph and a mismatch raises — and the differential
suite runs the whole service in that mode under faults and rollbacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.ladder import (
    LadderState,
    build_ladder_state,
    invalidation_sets,
    validate_ladder_levels,
)
from repro.adaptive.result_cache import ResultCache
from repro.adaptive.router import SAFE, QueryRouter, Route
from repro.exceptions import ServiceError
from repro.graph.datagraph import DataGraph
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.obs import current as current_obs
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import EvaluationReport, evaluate_on_graph
from repro.query.index_evaluator import (
    EvalFootprint,
    evaluate_on_ak,
    evaluate_on_index,
)
from repro.resilience.journal import TouchedSet
from repro.service.queue import Update
from repro.service.service import IndexService, ServedQuery, ServiceConfig
from repro.service.snapshot import IndexSnapshot


def default_ladder(k: int) -> tuple[int, ...]:
    """A sensible starting ladder for an A(k) family: A(0) plus midpoint."""
    return tuple(sorted({j for j in (0, k // 2) if 0 <= j < k}))


@dataclass(frozen=True)
class AdaptiveConfig:
    """How an :class:`AdaptivePlane` routes, caches and retunes."""

    #: published ladder levels below the leaf; ``None`` = :func:`default_ladder`
    levels: Optional[tuple[int, ...]] = None
    #: re-derive every served answer from the version's frozen graph and
    #: raise on mismatch (the differential suite's mode; costs a full
    #: data-graph evaluation per query)
    audit: bool = False
    #: apply ladder advice every this many commits (0 = never retune)
    retune_every: int = 32


class AdaptivePlane:
    """Router, result cache, ladder and controller of one service.

    The service calls :meth:`answer` for every query, :meth:`stage` and
    :meth:`advance` around the snapshot swap of every commit, and ticks
    :attr:`controller` once the commit's writer lock is released.
    """

    def __init__(self, service: IndexService, config: AdaptiveConfig):
        self.service = service
        self.config = config
        family = service.guarded.family
        if family is not None:
            levels = config.levels if config.levels is not None else default_ladder(family.k)
            self._levels = validate_ladder_levels(tuple(levels), family.k)
        else:
            self._levels = ()
        self.router = QueryRouter(self._levels, family.k if family is not None else 0)
        self.cache = ResultCache()
        self.audits = 0
        self._hang_ladder(service.snapshot)
        self.controller = AdaptiveController(
            service=service,
            policy=ReconstructionPolicy(),
            retune_every=config.retune_every,
        )
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Read side: route -> cache -> evaluate -> store -> audit -> account
    # ------------------------------------------------------------------

    def answer(self, query: "str | PathNfa") -> ServedQuery:
        """Answer a path expression through the adaptive plane."""
        nfa = as_nfa(query)
        text = nfa.expression.text
        route = self.router.route(nfa)
        snapshot = self.service._snapshot  # one atomic grab; serve only this version
        ladder: Optional[LadderState] = snapshot.ladder
        started = time.perf_counter()
        # a 1-index has one level and is precise there: always the safe key
        level = route.level if ladder is not None else None
        if level is not None and level != ladder.k and level not in ladder.levels:
            level = self._published_level(route, ladder)
        key = level if level is not None else SAFE
        entry = self.cache.lookup(key, text, snapshot.version)
        if entry is not None:
            report = EvaluationReport(matches=entry.matches, validated=entry.validated)
        else:
            footprint = EvalFootprint()
            if ladder is None:
                report = evaluate_on_index(snapshot.index, nfa, footprint=footprint)
            elif level is not None:
                surface = ladder.level_view(level)
                report = evaluate_on_ak(surface, level, nfa, footprint=footprint)
            else:
                report = evaluate_on_ak(snapshot.index, ladder.k, nfa, footprint=footprint)
            self.cache.store(
                key,
                text,
                snapshot.version,
                report,
                frozenset(footprint.inodes),
                frozenset(footprint.dnodes),
            )
        elapsed = time.perf_counter() - started
        if self.config.audit:
            self._audit(snapshot, nfa, report.matches, key)
        self.service._record_query(elapsed, snapshot.version)
        self.service.stats.queries_validated += report.validated
        obs = current_obs()
        obs.add("adaptive.queries")
        obs.add(f"adaptive.routed.{key}")
        obs.add("adaptive.cache_hits" if entry is not None else "adaptive.cache_misses")
        obs.set("adaptive.cache_hit_rate", self.cache.stats.hit_rate)
        return ServedQuery(report=report, version=snapshot.version)

    @staticmethod
    def _published_level(route: Route, ladder: LadderState) -> Optional[int]:
        # the router ran ahead of (or behind) the published ladder; fall
        # back to the coarsest *published* level that is exact
        return next(
            (j for j in ladder.levels if j >= route.length),
            ladder.k if route.length <= ladder.k else None,
        )

    def _audit(self, snapshot: IndexSnapshot, nfa: PathNfa, matches, key) -> None:
        """Re-derive the answer from the version's own frozen graph."""
        self.audits += 1
        exact = evaluate_on_graph(snapshot.graph, nfa)
        if exact.matches != matches:
            raise ServiceError(
                f"adaptive serving diverged at v{snapshot.version} for "
                f"{nfa.expression.text!r} (route={key!r}): "
                f"served {len(matches)} dnodes, ground truth {len(exact.matches)}"
            )

    # ------------------------------------------------------------------
    # Write side: publish the ladder, carry the cache across the swap
    # ------------------------------------------------------------------

    def _hang_ladder(self, snapshot: IndexSnapshot) -> None:
        family = self.service.guarded.family
        if family is not None:
            snapshot.ladder = build_ladder_state(
                family, snapshot.index, snapshot.version, self._levels
            )

    def stage(
        self, snapshot: IndexSnapshot, touched: TouchedSet
    ) -> tuple[Optional[dict], set[int]]:
        """Before the swap: hang the ladder on *snapshot*, derive what changed.

        Runs on the writer with the batch's TouchedSet still intact and
        the previous version still published.  Returns what
        :meth:`advance` takes: per route key the tokens the batch
        changed, and the changed dnodes — or ``None`` for the former
        after a full capture (degrade rebuild), when no footprint
        survives the renaming.
        """
        self._hang_ladder(snapshot)
        if touched.full:
            return None, set()
        prev = self.service.snapshot
        # refine the TouchedSet's conservative superset (inodes, or the
        # leaf tokens publication resolved) down to the entries whose
        # serialized form actually differs — evolve shares untouched
        # entries, so this is mostly pointer comparisons, and it is what
        # lets entries survive commits that merely brushed their neighbours
        differing = {
            t for t in touched.inodes if not snapshot.index.same_entry(prev.index, t)
        }
        if snapshot.ladder is not None:
            changed = invalidation_sets(prev.ladder, snapshot.ladder, differing)
            # safe-route entries evaluate in leaf token space (what their
            # validation read is covered by the dnode footprint)
            changed[SAFE] = changed[snapshot.k]
        else:
            changed = {SAFE: differing}
        changed_dnodes = {
            w for w in touched.dnodes if not snapshot.graph.same_node(prev.graph, w)
        }
        return changed, changed_dnodes

    def advance(self, version: int, changed: Optional[dict], changed_dnodes: set) -> None:
        """After the swap: carry the cache across the commit edge."""
        if changed is None:
            self.cache.flush()
        else:
            self.cache.on_commit(version, changed, changed_dnodes)
        self._publish_gauges()

    def reconstruct_now(self, reason: str = "manual") -> None:
        """Submit a ``reconstruct`` operation and commit everything queued.

        The merge of bisimilar inodes (Kaushik et al. [8]) runs like any
        other operation of a commit.  A 1-index only: ``submit`` refuses
        it on an A(k) family, which maintenance already keeps at the
        unique minimum (Theorem 2).
        """
        self.service.submit(Update.reconstruct())
        current_obs().event("adaptive.reconstruct_requested", reason=reason)
        self.service.drain()

    # ------------------------------------------------------------------
    # Ladder control
    # ------------------------------------------------------------------

    def set_ladder_levels(self, levels: tuple[int, ...]) -> None:
        """Change the published ladder; takes effect at the next publish.

        The router switches immediately (queries routed at a
        not-yet-published level fall back to the published ladder), the
        ladder state follows at the next commit, and the cache flushes
        the levels that disappear through ``invalidation_sets`` marking
        newly absent levels as full drops.
        """
        family = self.service.guarded.family
        if family is None:
            raise ServiceError("ladder levels only apply to the ak family")
        cleaned = validate_ladder_levels(tuple(levels), family.k)
        self._levels = cleaned
        self.router.set_levels(cleaned)
        current_obs().event("adaptive.ladder_levels", levels=list(cleaned))

    def ladder_sizes(self) -> dict:
        """Token count per published level (leaf included) at this version."""
        snapshot = self.service.snapshot
        if snapshot.ladder is not None:
            return dict(snapshot.ladder.sizes)
        return {0: snapshot.num_inodes}

    def _publish_gauges(self) -> None:
        obs = current_obs()
        for level, size in self.ladder_sizes().items():
            obs.set(f"adaptive.ladder_size.{level}", size)
        obs.set("adaptive.cache_entries", len(self.cache))
        obs.set("adaptive.cache_hit_rate", self.cache.stats.hit_rate)

    def health(self) -> dict:
        """The adaptive plane's state for ``/health``."""
        return {
            "levels": list(self._levels),
            "k": self.router.k,
            "ladder_sizes": {str(j): s for j, s in self.ladder_sizes().items()},
            "cache": self.cache.stats.as_dict(),
            "reconstructions": self.controller.policy.reconstructions,
            "retunes": self.controller.retunes,
        }


class AdaptiveIndexService(IndexService):
    """The name an adaptive service has always been built under.

    ``AdaptiveIndexService(graph, config, adaptive, ...)`` is
    ``IndexService(graph, config, ..., adaptive=adaptive or
    AdaptiveConfig())``; it adds nothing to the base class.
    """

    def __init__(
        self,
        graph: DataGraph,
        config: Optional[ServiceConfig] = None,
        adaptive: Optional[AdaptiveConfig] = None,
        **parts,
    ):
        super().__init__(graph, config, adaptive=adaptive or AdaptiveConfig(), **parts)

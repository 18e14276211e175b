"""`AdaptiveIndexService` — ladder-routed, cached, cost-governed serving.

Sits exactly where :class:`repro.service.IndexService` sits — one graph,
one maintainer, snapshot isolation — and adds the adaptive plane on the
read path plus a closed control loop on the write path:

* at every publish the writer captures the **A(k) ladder** ancestor
  maps off the live refinement tree (:mod:`repro.adaptive.ladder`), so
  readers can evaluate short child-only paths on a far coarser level;
* each query is classified by the :class:`~repro.adaptive.router.QueryRouter`
  and dispatched to the smallest level that answers it *exactly*, with
  everything else falling back to the safe leaf + validation path the
  base service always takes;
* answers land in the :class:`~repro.adaptive.result_cache.ResultCache`
  keyed by (route, compiled path, version); each commit invalidates by
  intersecting the batch's TouchedSet-derived change sets with the
  entries' recorded footprints instead of flushing wholesale;
* after every commit the :class:`~repro.adaptive.controller.AdaptiveController`
  feeds live serving signals to the cost model, reconstructs when the
  observed bloat is worth it, and retunes the ladder to demand.

Correctness stance: routing and caching may only change *where* an
answer is computed, never the answer.  ``AdaptiveConfig(audit=True)``
enforces that at runtime — every served result is re-derived from the
version's own frozen graph and a mismatch raises — and the differential
suite runs the whole service in that mode under faults and rollbacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.cost_model import CostBasedPolicy, CostConfig, CostModel
from repro.adaptive.ladder import (
    LadderState,
    build_ladder_state,
    invalidation_sets,
    validate_ladder_levels,
)
from repro.adaptive.result_cache import DEFAULT_CAPACITY, ResultCache
from repro.adaptive.router import SAFE, QueryRouter, Route
from repro.exceptions import ServiceError
from repro.graph.datagraph import DataGraph
from repro.maintenance.reconstruction import reconstruct_via_index_graph
from repro.obs import current as current_obs
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import EvaluationReport, evaluate_on_graph
from repro.query.index_evaluator import (
    EvalFootprint,
    evaluate_on_ak,
    evaluate_on_index,
)
from repro.resilience.faults import FaultInjector
from repro.service.service import (
    BatchResult,
    IndexService,
    ServedQuery,
    ServiceConfig,
)
from repro.service.snapshot import IndexSnapshot, touched_leaf_tokens


def default_ladder(k: int) -> tuple[int, ...]:
    """A sensible starting ladder for an A(k) family: A(0) plus midpoint."""
    return tuple(sorted({j for j in (0, k // 2) if 0 <= j < k}))


@dataclass(frozen=True)
class AdaptiveConfig:
    """How an :class:`AdaptiveIndexService` routes, caches and retunes."""

    #: published ladder levels below the leaf; ``None`` = :func:`default_ladder`
    levels: Optional[tuple[int, ...]] = None
    #: result-cache capacity (entries)
    cache_capacity: int = DEFAULT_CAPACITY
    #: re-derive every served answer from the version's frozen graph and
    #: raise on mismatch (the differential suite's mode; costs a full
    #: data-graph evaluation per query)
    audit: bool = False
    #: apply ladder advice every this many commits (0 = never retune)
    retune_every: int = 32
    #: cost-model tunables (reconstruction trigger + ladder advice)
    cost: CostConfig = field(default_factory=CostConfig)


class AdaptiveIndexService(IndexService):
    """An :class:`IndexService` with the adaptive serving plane attached.

    Drop-in: the constructor, ``submit``/``flush``/``start``/``stop``
    surface and :class:`~repro.service.service.ServedQuery` results are
    unchanged.  The ``ak`` family gets the full plane (ladder routing +
    cache + controller); the ``one`` family — already precise at a
    single level — gets the result cache and the cost-based
    reconstruction loop, which is where its split/merge bloat goes.
    """

    def __init__(
        self,
        graph: DataGraph,
        config: Optional[ServiceConfig] = None,
        adaptive: Optional[AdaptiveConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        maintainer: Optional[object] = None,
        initial_version: int = 0,
    ):
        self.adaptive = adaptive if adaptive is not None else AdaptiveConfig()
        super().__init__(
            graph,
            config,
            fault_injector=fault_injector,
            maintainer=maintainer,
            initial_version=initial_version,
        )
        if self.config.family == "ak":
            k = self.config.k
            levels = (
                self.adaptive.levels
                if self.adaptive.levels is not None
                else default_ladder(k)
            )
            self._levels = validate_ladder_levels(tuple(levels), k)
        else:
            k = 0
            self._levels = ()
        self.router = QueryRouter(self._levels, k)
        self.cache = ResultCache(capacity=self.adaptive.cache_capacity)
        self._ladder: Optional[LadderState] = None
        if self.config.family == "ak":
            self._ladder = build_ladder_state(
                self.guarded.family,
                self._snapshot.index,
                self._snapshot.version,
                self._levels,
            )
        self.audits = 0
        self.controller = AdaptiveController(
            service=self,
            policy=CostBasedPolicy(config=self.adaptive.cost),
            model=CostModel(config=self.adaptive.cost),
            retune_every=self.adaptive.retune_every,
        )
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Read side: route -> cache -> evaluate -> account
    # ------------------------------------------------------------------

    def query(self, query: "str | PathNfa") -> ServedQuery:
        """Answer a path expression through the adaptive plane.

        Same contract as the base service — the answer is exact for the
        version it names — only the evaluation surface differs.
        """
        nfa = as_nfa(query)
        if self.config.family == "ak":
            return self._query_ak(nfa)
        return self._query_one(nfa)

    def _query_ak(self, nfa: PathNfa) -> ServedQuery:
        text = nfa.expression.text
        route = self.router.route(nfa)
        state = self._ladder  # one atomic grab; serve only this version
        started = time.perf_counter()
        level = route.level
        if level is not None and level != state.k and level not in state.levels:
            # the router ran ahead of (or behind) the published ladder;
            # fall back to the coarsest *published* level that is exact
            level = next(
                (j for j in state.levels if j >= route.length),
                state.k if route.length <= state.k else None,
            )
        key = level if level is not None else SAFE
        entry = self.cache.lookup(key, text, state.version)
        if entry is not None:
            report = EvaluationReport(matches=entry.matches, validated=entry.validated)
            cached = True
        else:
            footprint = EvalFootprint()
            if level is not None:
                surface = state.level_view(level)
                report = evaluate_on_ak(surface, level, nfa, footprint=footprint)
            else:
                report = evaluate_on_ak(state.index, state.k, nfa, footprint=footprint)
            self.cache.store(
                key,
                text,
                state.version,
                report,
                frozenset(footprint.inodes),
                frozenset(footprint.dnodes),
            )
            cached = False
        elapsed = time.perf_counter() - started
        if self.adaptive.audit:
            self._audit(state.index.graph, nfa, report.matches, state.version, key)
        self._account(elapsed, state.version, route, key, cached)
        return ServedQuery(report=report, version=state.version)

    def _query_one(self, nfa: PathNfa) -> ServedQuery:
        text = nfa.expression.text
        route = self.router.route(nfa)
        snapshot = self._snapshot  # one atomic grab
        started = time.perf_counter()
        entry = self.cache.lookup(SAFE, text, snapshot.version)
        if entry is not None:
            report = EvaluationReport(matches=entry.matches, validated=entry.validated)
            cached = True
        else:
            footprint = EvalFootprint()
            report = evaluate_on_index(snapshot.index, nfa, footprint=footprint)
            self.cache.store(
                SAFE,
                text,
                snapshot.version,
                report,
                frozenset(footprint.inodes),
                frozenset(footprint.dnodes),
            )
            cached = False
        elapsed = time.perf_counter() - started
        if self.adaptive.audit:
            self._audit(snapshot.graph, nfa, report.matches, snapshot.version, SAFE)
        self._account(elapsed, snapshot.version, route, SAFE, cached)
        return ServedQuery(report=report, version=snapshot.version)

    def _audit(self, graph, nfa: PathNfa, matches, version: int, key) -> None:
        """Re-derive the answer from the version's own frozen graph."""
        self.audits += 1
        exact = evaluate_on_graph(graph, nfa)
        if exact.matches != matches:
            raise ServiceError(
                f"adaptive serving diverged at v{version} for "
                f"{nfa.expression.text!r} (route={key!r}): "
                f"served {len(matches)} dnodes, ground truth {len(exact.matches)}"
            )

    def _account(
        self, elapsed: float, version: int, route: Route, key, cached: bool
    ) -> None:
        """Base-service bookkeeping plus the adaptive.* metric surface."""
        self._record_query(elapsed, version)
        obs = current_obs()
        obs.add("adaptive.queries")
        obs.observe("adaptive.query_seconds", elapsed)
        obs.add(f"adaptive.routed.{key}")
        obs.add("adaptive.cache_hits" if cached else "adaptive.cache_misses")
        obs.set("adaptive.cache_hit_rate", self.cache.stats.hit_rate)

    # ------------------------------------------------------------------
    # Write side: publish the ladder, advance the cache, close the loop
    # ------------------------------------------------------------------

    def _publish(self, snapshot: IndexSnapshot) -> None:
        """Publish + ladder capture + footprint-based cache advancement.

        Runs on the writer with the batch's TouchedSet still intact
        (``_publish_next`` clears it only after publish), which is
        exactly what the invalidation sets are derived from.  A full
        capture (degrade rebuild, reconstruction) flushes the cache —
        no footprint survives a renaming.
        """
        incremental = (
            not self._touched.full
            and snapshot.version == self._snapshot.version + 1
        )
        changed: "Optional[dict]" = None
        changed_dnodes: set[int] = set()
        if self.config.family == "ak":
            family = self.guarded.family
            new_state = build_ladder_state(
                family, snapshot.index, snapshot.version, self._levels
            )
            if incremental and self._ladder is not None:
                # refine the TouchedSet's conservative superset down to
                # the tokens whose serialized form actually differs —
                # evolve shares untouched entries, so this is mostly
                # pointer comparisons, and it is what lets entries
                # survive commits that merely brushed their neighbours
                prev_index = self._ladder.index
                tokens = {
                    t
                    for t in touched_leaf_tokens(family, self._touched)
                    if not snapshot.index.same_entry(prev_index, t)
                }
                changed = invalidation_sets(self._ladder, new_state, tokens)
                # safe-route entries evaluate in leaf token space (their
                # validation cone is covered by the dnode footprint)
                changed[SAFE] = changed[new_state.k]
                changed_dnodes = {
                    w
                    for w in self._touched.dnodes
                    if not snapshot.graph.same_node(prev_index.graph, w)
                }
            self._ladder = new_state
            self.router.set_levels(new_state.levels)
        elif incremental:
            prev_snapshot = self._snapshot
            changed = {
                SAFE: {
                    i
                    for i in self._touched.inodes
                    if not snapshot.index.same_entry(prev_snapshot.index, i)
                }
            }
            changed_dnodes = {
                w
                for w in self._touched.dnodes
                if not snapshot.graph.same_node(prev_snapshot.graph, w)
            }
        super()._publish(snapshot)
        if changed is None:
            self.cache.flush()
        else:
            self.cache.on_commit(snapshot.version, changed, changed_dnodes)
        self._publish_gauges()

    def flush(self) -> Optional[BatchResult]:
        """Commit one batch, then run the controller outside the lock."""
        result = super().flush()
        if result is not None:
            self.controller.on_commit(result)
        return result

    def reconstruct_now(self, reason: str = "manual") -> None:
        """Rebuild the index to minimum and publish the result as a version.

        ``one``: quotient-graph reconstruction (Kaushik et al. [8]) on
        the live index.  ``ak``: full from-scratch rebuild of the family
        (split/merge A(k) maintenance already keeps the minimum
        partition — Theorem 2 — so this fires only when the cost model
        sees genuine drift, e.g. after a degrade rebuild).  Either way
        every token is renamed, so the publish is a full capture and the
        result cache flushes.
        """
        obs = current_obs()
        with self._writer_lock:
            with obs.span("adaptive.reconstruct", reason=reason):
                if self.config.family == "one":
                    reconstruct_via_index_graph(self.guarded.index)
                else:
                    self.guarded.maintainer.rebuild_from_graph()
                self._touched.mark_all()
                self._publish_next()
        obs.add("adaptive.reconstructions")
        obs.event("adaptive.reconstructed", reason=reason, version=self.version)

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
        if self.config.family != "ak":
            raise ServiceError("ladder levels only apply to the ak family")
        cleaned = validate_ladder_levels(tuple(levels), self.config.k)
        self._levels = cleaned
        self.router.set_levels(cleaned)
        current_obs().event("adaptive.ladder_levels", levels=list(cleaned))

    def ladder_sizes(self) -> dict:
        """Token count per published level (leaf included) at this version."""
        if self.config.family == "ak" and self._ladder is not None:
            return dict(self._ladder.sizes)
        return {0: self._snapshot.num_inodes}

    def _publish_gauges(self) -> None:
        obs = current_obs()
        for level, size in self.ladder_sizes().items():
            obs.set(f"adaptive.ladder_size.{level}", size)
        obs.set("adaptive.cache_entries", len(self.cache))
        obs.set("adaptive.cache_hit_rate", self.cache.stats.hit_rate)

    # ------------------------------------------------------------------
    # Telemetry / introspection
    # ------------------------------------------------------------------

    def start_telemetry(self, **kwargs) -> "object":
        """Base telemetry plus the adaptive SLO rules and the controller
        wired into the watchdog's alert hook (unless the caller supplied
        their own rules/hook)."""
        if self._telemetry is not None:
            return self._telemetry
        if "rules" not in kwargs:
            from repro.obs.slo import default_adaptive_rules, default_service_rules

            kwargs["rules"] = default_service_rules() + default_adaptive_rules()
        bundle = super().start_telemetry(**kwargs)
        if bundle.watchdog.on_alert is None:
            bundle.watchdog.on_alert = self.controller.on_alert
        return bundle

    def health(self) -> dict:
        doc = super().health()
        doc["adaptive"] = {
            "levels": list(self._levels),
            "k": self.config.k if self.config.family == "ak" else 0,
            "ladder_sizes": {str(j): s for j, s in self.ladder_sizes().items()},
            "cache": self.cache.stats.as_dict(),
            "reconstructions": self.controller.policy.reconstructions,
            "retunes": self.controller.retunes,
        }
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdaptiveIndexService family={self.config.family!r} v{self.version} "
            f"levels={self._levels} cache={len(self.cache)}>"
        )

"""The adaptive controller: the loop that closes serving back onto itself.

Runs at two cadences against one service's adaptive plane:

* **per commit** — the service calls :meth:`AdaptiveController.on_commit`
  after every commit, once the writer lock is released.  It folds the
  latest serving signals (commit/query p95, cache hit rate, ladder
  sizes) into the :class:`~repro.adaptive.cost_model.CostModel` and, on
  a 1-index, asks the reconstruction policy whether the observed bloat
  is worth a reconstruction.  When it is, the controller **submits** a
  ``reconstruct`` operation like any client (at most one outstanding) —
  it never applies or publishes anything itself, so the merge runs
  inside a later commit's guarded transaction, lands in its WAL record
  and is published by that commit's one publish.  An A(k) family is
  never reconstructed: its maintenance keeps the unique minimum
  (Theorem 2), so growth there is data growth, not bloat.  Every
  ``retune_every`` commits the controller also applies the model's
  ladder advice over the router's demand window (add a rung under-served
  demand keeps landing far coarser than it needs, drop one nobody uses).
* **on alert** — :meth:`AdaptiveController.on_alert` plugs into
  :class:`repro.obs.slo.SloWatchdog` ``on_alert``: a CRITICAL
  transition on a latency rule marks the model pressured, so the very
  next commit may request a reconstruction the relaxed policy would
  still have deferred.

The controller never takes the writer lock itself — all mutation goes
through the service's own entry points — so it can be driven from the
writer thread, a flush() caller or a replica's tail interchangeably.
"""

from __future__ import annotations

from collections.abc import Reversible
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Optional

from repro.adaptive.cost_model import CostBasedPolicy, CostInputs, CostModel
from repro.exceptions import QueueFullError
from repro.maintenance.operations import OPERATIONS
from repro.obs import current as current_obs
from repro.obs.slo import CRITICAL
from repro.service.queue import Update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.slo import SloStatus
    from repro.service.service import BatchResult, IndexService

#: how many trailing samples the p95 estimates look at
_WINDOW = 64


def _p95(samples: Reversible[float]) -> Optional[float]:
    """p95 of the trailing window of *samples* (None when empty)."""
    ordered = sorted(islice(reversed(samples), _WINDOW))
    if not ordered:
        return None
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


@dataclass
class AdaptiveController:
    """Cost-based reconstruction + ladder retuning for one service."""

    service: "IndexService"
    policy: CostBasedPolicy
    model: CostModel = field(default_factory=CostModel)
    #: apply ladder advice every this many commits (0 = never retune)
    retune_every: int = 32
    commits_seen: int = 0
    retunes: int = 0
    #: alert names that most recently went CRITICAL (cleared on recovery)
    critical: set = field(default_factory=set)
    #: whether this controller requests reconstructions: where the served
    #: structure admits the operation (a 1-index); a replica, which
    #: replays its primary's, turns it off
    reconstructs: bool = field(init=False)

    def __post_init__(self) -> None:
        self.policy.start(self.service.snapshot.num_inodes)
        admitted = OPERATIONS[Update.reconstruct().op].families
        self.reconstructs = self.service.structure.kind in admitted

    # ------------------------------------------------------------------

    def on_commit(self, result: "BatchResult") -> None:
        """One committed batch: feed the model, maybe request/retune."""
        self.commits_seen += 1
        service = self.service
        obs = current_obs()
        inputs = CostInputs(
            commit_p95_seconds=_p95(service.stats.commit_seconds),
            query_p95_seconds=_p95(service.stats.query_seconds),
            cache_hit_rate=service.adaptive.cache.stats.hit_rate,
            sizes=dict(service.adaptive.ladder_sizes()),
            slo_critical=bool(self.critical),
        )
        self.model.update(inputs, self.policy)
        size = service.snapshot.num_inodes
        if result.reconstructed:
            # whoever asked for it: the commit that carried the merge is
            # the reconstruction, and its wall-clock the cost observed
            self.policy.reconstructed(size)
            self.policy.note_reconstruction_seconds(result.seconds)
            obs.add("adaptive.reconstructions")
            obs.observe("adaptive.reconstruction_seconds", result.seconds)
            obs.event("adaptive.reconstructed", version=result.version, inodes=size)
        elif self.reconstructs and self.policy.should_reconstruct(size):
            request = Update.reconstruct()
            try:
                if not service.queue.holds(request.op):  # at most one outstanding
                    service.submit_nowait(request)
                    obs.event("adaptive.reconstruct_requested", reason="cost-policy")
            except QueueFullError:
                pass  # the bloat persists: the trigger fires again next commit
        if self.retune_every and self.commits_seen % self.retune_every == 0:
            self.retune()

    def retune(self) -> bool:
        """Apply the model's ladder advice from the current router window.

        Returns whether the ladder changed.  Safe to call at any cadence;
        the router window resets on every call, so frequent calls only
        make the advice more conservative (it needs ``min_window``
        decisions to say anything).
        """
        plane = self.service.adaptive
        window = plane.router.window()
        advice = self.model.ladder_advice(window)
        if not advice:
            return False
        current = set(window["levels"])
        wanted = (current - set(advice.drop)) | set(advice.add)
        if wanted == current:
            return False
        self.retunes += 1
        obs = current_obs()
        obs.add("adaptive.retunes")
        obs.event(
            "adaptive.ladder_retuned",
            add=sorted(advice.add),
            drop=sorted(advice.drop),
            levels=sorted(wanted),
        )
        plane.set_ladder_levels(tuple(sorted(wanted)))
        return True

    # ------------------------------------------------------------------

    def on_alert(self, status: "SloStatus") -> None:
        """SLO watchdog hook: track CRITICAL transitions as pressure."""
        name = status.rule.name
        if status.status == CRITICAL:
            self.critical.add(name)
        else:
            self.critical.discard(name)
        self.policy.note_pressure(bool(self.critical))

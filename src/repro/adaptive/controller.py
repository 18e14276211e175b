"""The adaptive controller: the loop that closes serving back onto itself.

The service calls :meth:`AdaptiveController.on_commit` after every
commit, once the writer lock is released.  It does two things:

* **reconstruction** — on a 1-index it feeds the published size to the
  paper's trigger, :class:`~repro.maintenance.ReconstructionPolicy`
  (§7: reconstruct once the index is 5 % larger than at the last
  reconstruction).  When the trigger fires, the controller **submits** a
  ``reconstruct`` operation like any client (at most one outstanding) —
  it never applies or publishes anything itself, so the merge runs
  inside a later commit's guarded transaction, lands in its WAL record
  and is published by that commit's one publish.  An A(k) family is
  never reconstructed: its maintenance keeps the unique minimum
  (Theorem 2), so growth there is data growth, not bloat.
* **ladder retuning** — every ``retune_every`` commits it applies
  :func:`ladder_advice` over the router's demand window (add a rung
  under-served demand keeps landing far coarser than it needs, drop one
  nobody uses).

The controller never takes the writer lock itself — all mutation goes
through the service's own entry points — so it can be driven from the
writer thread, a flush() caller or a replica's tail interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import QueueFullError
from repro.maintenance.operations import OPERATIONS
from repro.maintenance.reconstruction import ReconstructionPolicy
from repro.obs import current as current_obs
from repro.service.queue import Update

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import BatchResult, IndexService

#: add a level for a child-only length taking at least this share...
ADD_SHARE = 0.20
#: ...while being routed at least this many levels coarser than needed
ADD_GAP = 2
#: routing decisions required before ladder advice is meaningful
MIN_WINDOW = 50
#: maximum number of ladder levels below the leaf
MAX_LEVELS = 3
#: drop a ladder level whose routed share falls below this
DROP_SHARE = 0.02


@dataclass
class LadderAdvice:
    """What the ladder should become."""

    add: tuple[int, ...] = ()
    drop: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.add or self.drop)


def ladder_advice(window: dict) -> LadderAdvice:
    """Turn one router window into add/drop advice.

    *window* is :meth:`repro.adaptive.router.QueryRouter.window`
    output.  Advice is empty until the window holds at least
    ``MIN_WINDOW`` routing decisions.
    """
    total = window.get("total", 0)
    if total < MIN_WINDOW:
        return LadderAdvice()
    levels = tuple(window["levels"])
    k = window["k"]
    routed = window.get("routed", {})
    demand = window.get("demand", {})
    drop = tuple(
        level for level in levels if routed.get(level, 0) / total < DROP_SHARE
    )
    surviving = [lvl for lvl in levels if lvl not in drop]
    add: list[int] = []
    ladder = sorted(surviving) + [k]
    for length, count in sorted(demand.items()):
        if length in ladder or length <= 0 or length >= k:
            continue
        if count / total < ADD_SHARE:
            continue
        landing = next((lvl for lvl in ladder if lvl >= length), k)
        if landing - length >= ADD_GAP:
            add.append(length)
    room = MAX_LEVELS - len(surviving)
    return LadderAdvice(add=tuple(add[:max(0, room)]), drop=drop)


@dataclass
class AdaptiveController:
    """The paper's reconstruction trigger + ladder retuning for one service."""

    service: "IndexService"
    policy: ReconstructionPolicy
    #: apply ladder advice every this many commits (0 = never retune)
    retune_every: int = 32
    commits_seen: int = 0
    retunes: int = 0
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
        """One committed batch: feed the trigger, maybe request/retune."""
        self.commits_seen += 1
        service = self.service
        obs = current_obs()
        size = service.snapshot.num_inodes
        if result.reconstructed:
            # whoever asked for it: the commit that carried the merge is
            # the reconstruction, and its size the trigger's new baseline
            self.policy.reconstructed(size)
            obs.add("adaptive.reconstructions")
            obs.observe("adaptive.reconstruction_seconds", result.seconds)
            obs.event("adaptive.reconstructed", version=result.version, inodes=size)
        elif self.reconstructs and self.policy.should_reconstruct(size):
            request = Update.reconstruct()
            try:
                if not service.queue.holds(request.op):  # at most one outstanding
                    service.submit_nowait(request)
                    obs.event("adaptive.reconstruct_requested", reason="growth")
            except QueueFullError:
                pass  # the bloat persists: the trigger fires again next commit
        if self.retune_every and self.commits_seen % self.retune_every == 0:
            self.retune()

    def retune(self) -> bool:
        """Apply :func:`ladder_advice` from the current router window.

        Returns whether the ladder changed.  Safe to call at any cadence;
        the router window resets on every call, so frequent calls only
        make the advice more conservative (it needs ``MIN_WINDOW``
        decisions to say anything).
        """
        plane = self.service.adaptive
        window = plane.router.window()
        advice = ladder_advice(window)
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

"""The cost model: when to reconstruct, and how the ladder should look.

The paper's trigger is flat: reconstruct whenever the index is 5 %
larger than at the last reconstruction, regardless of what a
reconstruction costs or recovers.  :class:`CostBasedPolicy` keeps that
threshold as a *floor* (it never fires at lower bloat, so by
construction it can never fire more often than the flat policy on the
same size trajectory) and adds two learned terms on top:

* **yield** — the EWMA of how much of the observed bloat past
  reconstructions actually removed.  When recent reconstructions
  recovered essentially nothing (the split/merge partition *is* near
  minimum and the growth is genuine data growth), firing again only
  burns commit latency; the policy skips until either yield recovers or
  bloat crosses the hard cap.
* **pressure** — live serving signals (query p95 against its budget,
  commit p95, cache hit rate, an SLO alert from the watchdog).  Under
  pressure the policy fires as soon as the floor allows; relaxed, it
  waits for the expected recovery to clear ``YIELD_FLOOR``.

The hard cap bounds worst-case bloat: above it the policy fires
unconditionally, so skipping low-yield reconstructions can never let
the index drift arbitrarily far from minimum.

:class:`CostModel` is the serving-side aggregate: it folds the live obs
inputs (:class:`CostInputs`) into the policy's pressure term and turns
the router's windowed demand statistics into ladder advice — add a rung
where child-only traffic consistently lands far coarser than it needs,
drop a rung nobody routes to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.maintenance.reconstruction import DEFAULT_THRESHOLD

#: skip firing when the expected recovered bloat is below this
YIELD_FLOOR = 0.02
#: EWMA weight for newly observed reconstruction yield
YIELD_ALPHA = 0.5
#: query p95 budget (seconds) above which serving counts as pressured
QUERY_P95_BUDGET = 0.25
#: commit p95 budget (seconds) above which serving counts as pressured
COMMIT_P95_BUDGET = 0.5
#: drop a ladder level whose routed share falls below this
DROP_SHARE = 0.02


@dataclass(frozen=True)
class CostConfig:
    """Tunables for :class:`CostBasedPolicy` and :class:`CostModel`."""

    #: never reconstruct below this bloat (the paper's flat threshold,
    #: making "no more often than flat 5 %" structural)
    min_bloat: float = DEFAULT_THRESHOLD
    #: always reconstruct above this bloat (bounds drift when yield is low)
    hard_bloat: float = 4 * DEFAULT_THRESHOLD
    #: add a level for a child-only length taking at least this share...
    add_share: float = 0.20
    #: ...while being routed at least this many levels coarser than needed
    add_gap: int = 2
    #: routing decisions required before ladder advice is meaningful
    min_window: int = 50
    #: maximum number of ladder levels below the leaf
    max_levels: int = 3


@dataclass
class CostBasedPolicy:
    """A yield- and pressure-aware reconstruction trigger.

    Speaks the flat :class:`repro.maintenance.ReconstructionPolicy`'s
    calls (``start`` / ``should_reconstruct`` / ``reconstructed``,
    ``intervals``), so every call site of the flat policy (the
    experiment runner, the adaptive controller) can adopt it unchanged.
    Feed the live signals through :meth:`note_pressure` /
    :meth:`note_reconstruction_seconds`; without any feeding it behaves
    exactly like the flat policy at ``min_bloat`` until the first
    reconstruction teaches it a yield.
    """

    config: CostConfig = field(default_factory=CostConfig)
    baseline_size: int = 0
    updates_since: int = 0
    reconstructions: int = 0
    intervals: list[int] = field(default_factory=list)
    #: EWMA of (bloat removed by reconstruction) / (bloat at firing);
    #: ``None`` until the first reconstruction is observed
    expected_yield: Optional[float] = None
    #: EWMA of reconstruction wall-clock (seconds), for reporting
    reconstruction_seconds: Optional[float] = None
    #: latest pressure verdict from the cost model (True = fire eagerly)
    pressured: bool = False
    skipped_low_yield: int = 0
    _size_at_fire: int = 0

    # -- the flat policy's calls ---------------------------------------

    def start(self, size: int) -> None:
        self.baseline_size = size
        self.updates_since = 0

    def should_reconstruct(self, current_size: int) -> bool:
        self.updates_since += 1
        if self.baseline_size <= 0:
            return False
        # the floor uses the flat policy's exact float expression, not
        # the ratio form: size/baseline - 1 > t and size > (1+t)*baseline
        # disagree on boundary sizes under IEEE rounding, and "never
        # fires more often than flat" must hold size by size
        if current_size <= (1.0 + self.config.min_bloat) * self.baseline_size:
            return False
        bloat = current_size / self.baseline_size - 1.0
        if bloat >= self.config.hard_bloat:
            self._size_at_fire = current_size
            return True
        if self.pressured:
            self._size_at_fire = current_size
            return True
        expected = bloat * (self.expected_yield if self.expected_yield is not None else 1.0)
        if expected < YIELD_FLOOR:
            self.skipped_low_yield += 1
            return False
        self._size_at_fire = current_size
        return True

    def reconstructed(self, new_size: int) -> None:
        self.reconstructions += 1
        self.intervals.append(self.updates_since)
        if self.baseline_size > 0 and self._size_at_fire > self.baseline_size:
            bloat_at_fire = self._size_at_fire / self.baseline_size - 1.0
            recovered = (self._size_at_fire - new_size) / self.baseline_size
            observed = min(1.0, max(0.0, recovered / bloat_at_fire))
            if self.expected_yield is None:
                self.expected_yield = observed
            else:
                self.expected_yield = (
                    YIELD_ALPHA * observed + (1 - YIELD_ALPHA) * self.expected_yield
                )
        # consumed: a reconstruction nobody fired (a manual one) teaches no yield
        self._size_at_fire = 0
        self.baseline_size = new_size
        self.updates_since = 0

    @property
    def mean_interval(self) -> float:
        if not self.intervals:
            return float("inf")
        return sum(self.intervals) / len(self.intervals)

    # -- live feeding ---------------------------------------------------

    def note_pressure(self, pressured: bool) -> None:
        """Latest serving-pressure verdict (see :meth:`CostModel.update`)."""
        self.pressured = pressured

    def note_reconstruction_seconds(self, seconds: float) -> None:
        """Fold one observed reconstruction wall-clock into the EWMA."""
        if self.reconstruction_seconds is None:
            self.reconstruction_seconds = seconds
        else:
            self.reconstruction_seconds = (
                YIELD_ALPHA * seconds + (1 - YIELD_ALPHA) * self.reconstruction_seconds
            )


@dataclass
class CostInputs:
    """One controller tick's worth of live serving signals."""

    commit_p95_seconds: Optional[float] = None
    query_p95_seconds: Optional[float] = None
    cache_hit_rate: Optional[float] = None
    #: token count per published level (leaf included), for bloat accounting
    sizes: dict = field(default_factory=dict)
    slo_critical: bool = False


@dataclass
class LadderAdvice:
    """What the model thinks the ladder should become."""

    add: tuple[int, ...] = ()
    drop: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.add or self.drop)


@dataclass
class CostModel:
    """Folds live signals into the policy and advises the ladder shape."""

    config: CostConfig = field(default_factory=CostConfig)
    #: latest inputs folded in (telemetry/debugging surface)
    inputs: CostInputs = field(default_factory=CostInputs)

    def update(self, inputs: CostInputs, policy: CostBasedPolicy) -> bool:
        """Fold one tick of signals; returns the pressure verdict."""
        self.inputs = inputs
        pressured = inputs.slo_critical
        if inputs.query_p95_seconds is not None:
            pressured = pressured or inputs.query_p95_seconds > QUERY_P95_BUDGET
        if inputs.commit_p95_seconds is not None:
            pressured = pressured or inputs.commit_p95_seconds > COMMIT_P95_BUDGET
        policy.note_pressure(pressured)
        return pressured

    def ladder_advice(self, window: dict) -> LadderAdvice:
        """Turn one router window into add/drop advice.

        *window* is :meth:`repro.adaptive.router.QueryRouter.window`
        output.  Advice is empty until the window holds at least
        ``min_window`` routing decisions.
        """
        total = window.get("total", 0)
        if total < self.config.min_window:
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
            if count / total < self.config.add_share:
                continue
            landing = next((lvl for lvl in ladder if lvl >= length), k)
            if landing - length >= self.config.add_gap:
                add.append(length)
        room = self.config.max_levels - len(surviving)
        return LadderAdvice(add=tuple(add[:max(0, room)]), drop=drop)

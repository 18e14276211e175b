"""The SLO watchdog: declarative objectives with burn-rate alerting.

An operator declares objectives over the live plane's sliding windows —
"commit p95 under 50 ms", "queue shed rate under 1/s", "staleness
(queries served per published version) p95 under 200" — and the
watchdog evaluates each one over **two** windows of the same metric:

* a **fast** window (the rule's ``window_seconds``, default the plane's
  width) that reacts within a minute, and
* a **slow** window (``slow_factor`` × fast, clamped to the plane's
  retention) that establishes the breach is sustained, not a blip.

This is classic multi-window burn-rate alerting: a breach in *both*
windows means the error budget is burning fast **and** has been for a
while → ``critical``; a breach in the fast window only → ``warn``
(watch, don't page); neither → ``ok``.  Because
:class:`~repro.obs.live.LivePlane` frames serve any window up to
retention, the two reads share one set of state.

Status *transitions* (and only transitions) are surfaced as
``slo.breach`` / ``slo.recovered`` events through the current observer —
so they land in trace sinks and trip the flight recorder.  The health
endpoint (:mod:`repro.obs.export`) maps the worst rule status to the
service status it reports.  The verdicts are for operators: nothing in
the system acts on them (the reconstruction trigger reads the index
size alone).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.obs.live import LivePlane

__all__ = [
    "OK",
    "WARN",
    "CRITICAL",
    "SloRule",
    "SloStatus",
    "SloWatchdog",
    "load_rules",
    "default_service_rules",
    "default_adaptive_rules",
]

OK = "ok"
WARN = "warn"
CRITICAL = "critical"

_SEVERITY = {OK: 0, WARN: 1, CRITICAL: 2}

#: comparison the *measured value* must satisfy to breach the objective
_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


@dataclass(frozen=True)
class SloRule:
    """One declarative objective over one windowed statistic.

    The rule *breaches* when ``stat(metric) over the window  <op>
    threshold`` holds — i.e. ``op`` describes the **bad** condition:
    ``SloRule("commit-p95", "service.batch_commit_seconds", "p95",
    op=">", threshold=0.05)`` breaches when commit p95 exceeds 50 ms.
    """

    name: str
    metric: str
    stat: str = "p95"
    op: str = ">"
    threshold: float = 0.0
    #: fast-window width; ``None`` uses the plane's primary window
    window_seconds: Optional[float] = None
    #: slow window = ``slow_factor`` × fast (clamped to plane retention)
    slow_factor: float = 5.0
    #: free-form context echoed into alerts and health documents
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}"
            )
        if self.slow_factor < 1.0:
            raise ValueError(f"rule {self.name!r}: slow_factor must be >= 1")
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValueError(f"rule {self.name!r}: window_seconds must be > 0")

    def breached(self, value: Optional[float]) -> bool:
        """Whether *value* violates the objective (no data = no breach)."""
        if value is None:
            return False
        return _OPS[self.op](value, self.threshold)

    @classmethod
    def from_dict(cls, doc: dict) -> "SloRule":
        """Build a rule from one JSON object (see :func:`load_rules`)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"SLO rule {doc.get('name', '?')!r}: unknown keys {sorted(unknown)}"
            )
        missing = {"name", "metric", "threshold"} - set(doc)
        if missing:
            raise ValueError(
                f"SLO rule {doc.get('name', '?')!r}: missing keys {sorted(missing)}"
            )
        return cls(**doc)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "window_seconds": self.window_seconds,
            "slow_factor": self.slow_factor,
            "description": self.description,
        }


@dataclass
class SloStatus:
    """One rule's evaluation result (JSON-able via :meth:`to_dict`)."""

    rule: SloRule
    status: str = OK
    fast_value: Optional[float] = None
    slow_value: Optional[float] = None
    fast_window: float = 0.0
    slow_window: float = 0.0

    @property
    def burn_rate(self) -> Optional[float]:
        """How hard the fast window burns the objective: measured value
        over threshold (inverted for lower-is-bad rules), ``None``
        without data.  > 1.0 means the budget is being spent faster than
        allowed."""
        if self.fast_value is None or self.threshold_is_zero():
            return None
        if self.rule.op in (">", ">="):
            return self.fast_value / self.rule.threshold
        return self.rule.threshold / self.fast_value if self.fast_value else None

    def threshold_is_zero(self) -> bool:
        return self.rule.threshold == 0

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "stat": self.rule.stat,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "status": self.status,
            "fast_value": self.fast_value,
            "slow_value": self.slow_value,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_rate": self.burn_rate,
            "description": self.rule.description,
        }


class SloWatchdog:
    """Evaluates a rule set against a :class:`LivePlane`.

    Stateless between ticks except for the per-rule last status (used to
    emit transition events exactly once per edge).  Call
    :meth:`evaluate` from the exporter thread, a reporter tick or a
    test; it never blocks the write side beyond the plane's per-call
    lock.
    """

    def __init__(self, plane: LivePlane, rules: Iterable[SloRule] = ()):
        self.plane = plane
        self.rules: list[SloRule] = list(rules)
        self._last_status: dict[str, str] = {}
        #: lifetime transition tally (breaches entered, recoveries seen)
        self.breaches = 0
        self.recoveries = 0

    def evaluate(self, now: Optional[float] = None) -> list[SloStatus]:
        """One watchdog tick: every rule over its fast and slow windows."""
        from repro.obs import current as current_obs  # late: avoid cycle

        obs = current_obs()
        statuses = []
        for rule in self.rules:
            fast_window = (
                rule.window_seconds
                if rule.window_seconds is not None
                else self.plane.config.width_seconds
            )
            slow_window = min(
                fast_window * rule.slow_factor, self.plane.config.retention_seconds
            )
            fast = self.plane.stat(rule.metric, rule.stat, fast_window, now)
            slow = self.plane.stat(rule.metric, rule.stat, slow_window, now)
            fast_bad = rule.breached(fast)
            slow_bad = rule.breached(slow)
            if fast_bad and slow_bad:
                status = CRITICAL
            elif fast_bad:
                status = WARN
            else:
                status = OK
            result = SloStatus(
                rule=rule,
                status=status,
                fast_value=fast,
                slow_value=slow,
                fast_window=fast_window,
                slow_window=slow_window,
            )
            statuses.append(result)
            previous = self._last_status.get(rule.name, OK)
            if status != previous:
                self._last_status[rule.name] = status
                if _SEVERITY[status] > _SEVERITY[previous]:
                    self.breaches += 1
                    obs.add("slo.breaches")
                    obs.event(
                        "slo.breach",
                        rule=rule.name,
                        metric=rule.metric,
                        stat=rule.stat,
                        status=status,
                        fast_value=fast,
                        slow_value=slow,
                        threshold=rule.threshold,
                    )
                else:
                    self.recoveries += 1
                    obs.add("slo.recoveries")
                    obs.event(
                        "slo.recovered",
                        rule=rule.name,
                        metric=rule.metric,
                        status=status,
                    )
        return statuses

    @staticmethod
    def overall(statuses: Sequence[SloStatus]) -> str:
        """The worst status in *statuses* (``ok`` for an empty set)."""
        worst = OK
        for status in statuses:
            if _SEVERITY[status.status] > _SEVERITY[worst]:
                worst = status.status
        return worst

    def health(self, now: Optional[float] = None) -> dict:
        """Evaluate and fold into a health fragment for the exporter."""
        statuses = self.evaluate(now)
        return {
            "slo": SloWatchdog.overall(statuses),
            "rules": [status.to_dict() for status in statuses],
        }


def load_rules(path: str) -> list[SloRule]:
    """Read a rule set from a JSON file.

    The document is either a list of rule objects or ``{"rules": [...]}``;
    each object carries the :class:`SloRule` fields (``name``, ``metric``
    and ``threshold`` required)::

        [{"name": "commit-p95", "metric": "service.batch_commit_seconds",
          "stat": "p95", "op": ">", "threshold": 0.05}]
    """
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    if isinstance(doc, dict):
        if "rules" not in doc:
            raise ValueError(f"SLO rule file {path!r}: missing 'rules' key")
        doc = doc["rules"]
    if not isinstance(doc, list):
        raise ValueError(f"SLO rule file {path!r}: expected a list of rules")
    return [SloRule.from_dict(item) for item in doc]


def default_service_rules(
    commit_p95_seconds: float = 0.5,
    staleness_queries_per_version: float = 10_000.0,
    shed_per_second: float = 1.0,
    fsync_p99_seconds: float = 0.5,
) -> list[SloRule]:
    """The stock objectives for a serving process — the four signals the
    paper's serving story cares about: commit latency, staleness, load
    shedding, and durability tail."""
    return [
        SloRule(
            name="commit-latency",
            metric="service.batch_commit_seconds",
            stat="p95",
            op=">",
            threshold=commit_p95_seconds,
            description="batch commit p95 within budget",
        ),
        SloRule(
            name="staleness",
            metric="service.queries_per_version",
            stat="p95",
            op=">",
            threshold=staleness_queries_per_version,
            description="queries served per published version (freshness)",
        ),
        SloRule(
            name="shed-rate",
            metric="service.shed",
            stat="rate",
            op=">",
            threshold=shed_per_second,
            description="updates shed per second under backpressure",
        ),
        SloRule(
            name="fsync-tail",
            metric="store.fsync_seconds",
            stat="p99",
            op=">",
            threshold=fsync_p99_seconds,
            description="WAL fsync tail latency",
        ),
    ]


def default_adaptive_rules(
    query_p95_seconds: float = 0.25,
    min_cache_hit_rate: float = 0.05,
) -> list[SloRule]:
    """The stock objectives for the adaptive serving plane.

    Routed-query latency against its budget; and a cache hit-rate floor
    that catches an invalidation bug or a workload shift the ladder has
    not been retuned for (a healthy steady mix revalidates most entries
    across commits, so a sustained near-zero rate is a plane problem,
    not a traffic problem).  The hit rate is a gauge, read by its
    windowed ``max``: the rule warns when the rate stayed under the
    floor for the whole fast window and pages only when it stayed there
    for the whole slow window too — one dip is not an outage.  (A
    gauge's ``value`` is the last write whatever the window, so fast and
    slow would agree and one dip would page.)
    """
    return [
        SloRule(
            name="adaptive-query-latency",
            metric="service.query_seconds",
            stat="p95",
            op=">",
            threshold=query_p95_seconds,
            description="routed query p95 within budget",
        ),
        SloRule(
            name="adaptive-cache-hit-rate",
            metric="adaptive.cache_hit_rate",
            stat="max",
            op="<",
            threshold=min_cache_hit_rate,
            description="result-cache lifetime hit rate floor",
        ),
    ]

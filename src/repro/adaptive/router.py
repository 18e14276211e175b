"""The query router: dispatch each path to the smallest exact level.

Classification is the compiled-NFA form of
``QueryWorkload.answerable_by_ak`` / Section 3's exactness condition: a
child-only expression of length L is answered *exactly* (no false
positives, no validation pass) by any A(j) with j >= L.  The router
therefore sends it to the **smallest published ladder level >= L** —
the coarsest index that is still precise — and everything else
(descendant axis, or longer than the leaf k) to the *safe level*: the
leaf A(k) plus validation against the data graph — label-pruned layers
above the candidates, closed under predecessors at a descendant step's
loop state — which is exactly what fixed-k serving does for every
query.

Routing never changes an answer, only which (smaller) graph produces
it; the differential suite runs every routed answer against a scratch
evaluation to hold that line.

The router also keeps windowed demand statistics — how many child-only
queries of each length arrived, and where they landed — which is the
signal :func:`repro.adaptive.controller.ladder_advice` reads to advise
adding a missing rung or dropping an idle one.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.query.automaton import PathNfa, as_nfa
from repro.query.path_expression import PathExpression

#: route key for the fall-back path (leaf level + validation)
SAFE = "safe"


@dataclass(frozen=True)
class Route:
    """Where one expression goes and why."""

    #: ladder level for an exact answer; ``None`` = safe fallback
    level: "int | None"
    #: child-only step count of the expression
    length: int
    #: whether the expression uses the descendant axis
    descendant: bool

    @property
    def exact(self) -> bool:
        """True when the chosen level answers without validation."""
        return self.level is not None

    @property
    def key(self) -> "int | str":
        """The result-cache key space this route evaluates in."""
        return self.level if self.level is not None else SAFE


class QueryRouter:
    """Stateless classification + windowed routing statistics.

    ``levels`` is the published ladder (strictly below *k*); *k* is the
    family's leaf and always available.  ``set_levels`` swaps the ladder
    atomically (the controller retunes it mid-run).
    """

    def __init__(self, levels: tuple[int, ...], k: int):
        self.k = k
        self._levels = tuple(sorted(levels))
        self._lock = threading.Lock()
        self.routed: Counter = Counter()  # route key -> queries sent there
        self.demand: Counter = Counter()  # child-only length -> arrivals
        self.total = 0
        #: lifetime route-key tallies; never reset by :meth:`window`, so
        #: experiments can report where a whole run's traffic landed
        self.lifetime_routed: Counter = Counter()

    @property
    def levels(self) -> tuple[int, ...]:
        """The current ladder levels (ascending, leaf excluded)."""
        return self._levels

    def set_levels(self, levels: tuple[int, ...]) -> None:
        """Swap the ladder the router dispatches over."""
        self._levels = tuple(sorted(levels))

    def classify(self, query: "str | PathExpression | PathNfa") -> Route:
        """Pure classification: no statistics recorded."""
        nfa = as_nfa(query)
        expression = nfa.expression
        length = len(expression)
        if not expression.has_descendant_axis:
            for level in self._levels:
                if length <= level:
                    return Route(level=level, length=length, descendant=False)
            if length <= self.k:
                return Route(level=self.k, length=length, descendant=False)
            return Route(level=None, length=length, descendant=False)
        return Route(level=None, length=length, descendant=True)

    def route(self, query: "str | PathExpression | PathNfa") -> Route:
        """Classify and record the dispatch in the demand window."""
        route = self.classify(query)
        with self._lock:
            self.total += 1
            self.routed[route.key] += 1
            self.lifetime_routed[route.key] += 1
            if not route.descendant:
                self.demand[route.length] += 1
        return route

    def window(self) -> dict:
        """Snapshot and reset the routing window (controller cadence)."""
        with self._lock:
            snapshot = {
                "total": self.total,
                "routed": dict(self.routed),
                "demand": dict(self.demand),
                "levels": self._levels,
                "k": self.k,
            }
            self.routed = Counter()
            self.demand = Counter()
            self.total = 0
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryRouter levels={self._levels}+({self.k}) routed={self.total}>"

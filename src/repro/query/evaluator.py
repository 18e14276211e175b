"""Path-expression evaluation over the data graph (the ground truth).

The data-graph evaluator is the reference semantics: a dnode matches the
expression iff some root-to-node path spells a label sequence the query
automaton accepts.  It is a worklist fixpoint over (node, NFA-state-set)
pairs, linear in ``|E| x |states|`` even on cyclic graphs.

Everything downstream — index evaluation, A(k) validation, the safety
property tests ("index results are never smaller than data results, and
for the 1-index never larger") — is checked against this evaluator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.graph.datagraph import DataGraph
from repro.query.automaton import PathNfa, as_nfa
from repro.query.path_expression import PathExpression


@dataclass
class EvaluationReport:
    """Result of one evaluation, with the effort counters the paper
    argues about (index evaluation touches far fewer nodes)."""

    matches: frozenset[int]
    nodes_visited: int = 0
    edges_followed: int = 0
    validated: bool = False
    candidates_before_validation: int = 0


#: String queries are compiled through the bounded LRU in
#: :mod:`repro.query.automaton`, so hot loops re-evaluating the same
#: expression text skip the parse.
_as_nfa = as_nfa


def evaluate_on_graph(graph: DataGraph, query: str | PathExpression | PathNfa) -> EvaluationReport:
    """Evaluate a path expression directly on the data graph.

    Returns the exact match set (no false positives, no misses).
    """
    nfa = _as_nfa(query)
    return _product_fixpoint(graph, nfa, restrict=None)


def evaluate_on_subgraph(
    graph: DataGraph,
    query: str | PathExpression | PathNfa,
    allowed: set[int],
) -> EvaluationReport:
    """Evaluate, walking only nodes in *allowed* (which must include the
    root to find anything).  Used by A(k) validation to confine the walk
    to the ancestor cone of the candidates."""
    nfa = _as_nfa(query)
    return _product_fixpoint(graph, nfa, restrict=allowed)


def _product_fixpoint(
    graph: DataGraph, nfa: PathNfa, restrict: set[int] | None
) -> EvaluationReport:
    report = EvaluationReport(matches=frozenset())
    if not graph.has_root:
        return report
    root = graph.root
    if restrict is not None and root not in restrict:
        return report
    states_of: dict[int, frozenset[int]] = {root: frozenset({nfa.start})}
    queue: deque[int] = deque([root])
    while queue:
        node = queue.popleft()
        report.nodes_visited += 1
        current = states_of[node]
        for child in graph.iter_succ(node):
            if restrict is not None and child not in restrict:
                continue
            report.edges_followed += 1
            advanced = nfa.step(current, graph.label(child))
            if not advanced:
                continue
            known = states_of.get(child, frozenset())
            union = known | advanced
            if union != known:
                states_of[child] = union
                queue.append(child)
    report.matches = frozenset(
        node for node, states in states_of.items() if nfa.accepts_states(states)
    )
    return report


def ancestors_of(graph: DataGraph, targets: set[int]) -> set[int]:
    """All nodes from which some target is reachable (targets included)."""
    seen = set(targets)
    queue = deque(targets)
    while queue:
        node = queue.popleft()
        for parent in graph.iter_pred(node):
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return seen

"""Path-expression evaluation over the data graph (the ground truth).

The data-graph evaluator is the reference semantics: a dnode matches the
expression iff some root-to-node path spells a label sequence the query
automaton accepts.  It is a worklist fixpoint over (node, NFA-state-set)
pairs, linear in ``|E| x |states|`` even on cyclic graphs.

Nothing on the served read path runs it: index evaluation and A(k)
validation (:mod:`repro.query.index_evaluator`) have loops of their own,
and both — with the safety property tests ("index results are never
smaller than data results, and for the 1-index never larger"), the
adaptive plane's audit and the benchmark's answer audit — are checked
against this evaluator.
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
    return _product_fixpoint(graph, nfa)


def _product_fixpoint(graph: DataGraph, nfa: PathNfa) -> EvaluationReport:
    report = EvaluationReport(matches=frozenset())
    if not graph.has_root:
        return report
    root = graph.root
    states_of: dict[int, frozenset[int]] = {root: frozenset({nfa.start})}
    queue: deque[int] = deque([root])
    while queue:
        node = queue.popleft()
        report.nodes_visited += 1
        current = states_of[node]
        for child in graph.iter_succ(node):
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


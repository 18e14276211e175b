"""The ancestor-cone validator, kept as the suites' reference.

A(k) validation once collected the candidates' whole ancestor cone and
re-ran the reference product inside it.  The served path validates in
layers now (``repro.query.index_evaluator``); the cone survives here only
as what the validation and cache-footprint suites compare against: the
layers must answer what the cone answers, read no dnode outside it, and
read exactly it for ``//x`` and ``/a//x``.
"""

from __future__ import annotations

from collections import deque

from repro.query.automaton import as_nfa
from repro.query.evaluator import EvaluationReport
from repro.query.index_evaluator import evaluate_on_index


def ancestors_of(graph, targets) -> set[int]:
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


def evaluate_on_subgraph(graph, query, allowed: set[int]) -> EvaluationReport:
    """The reference product, walking only nodes in *allowed* (which must
    include the root to find anything)."""
    nfa = as_nfa(query)
    report = EvaluationReport(matches=frozenset())
    if not graph.has_root or graph.root not in allowed:
        return report
    states_of = {graph.root: frozenset({nfa.start})}
    queue = deque([graph.root])
    while queue:
        node = queue.popleft()
        report.nodes_visited += 1
        current = states_of[node]
        for child in graph.iter_succ(node):
            if child not in allowed:
                continue
            report.edges_followed += 1
            advanced = nfa.step(current, graph.label(child))
            known = states_of.get(child, frozenset())
            if not advanced <= known:
                states_of[child] = known | advanced
                queue.append(child)
    report.matches = frozenset(
        node for node, states in states_of.items() if nfa.accept in states
    )
    return report


def cone_validation(index, query):
    """The replaced validator: ``(matches, cone, index report, cone report)``."""
    nfa = as_nfa(query)
    on_index = evaluate_on_index(index, nfa)
    cone = ancestors_of(index.graph, on_index.matches)
    exact = evaluate_on_subgraph(index.graph, nfa, cone)
    return frozenset(exact.matches & on_index.matches), cone, on_index, exact


class TestSubgraphEvaluation:
    def test_restriction_excludes_paths(self, site_builder):
        g = site_builder.build()
        allowed = set(g.nodes()) - {site_builder.oid("people")}
        report = evaluate_on_subgraph(g, "//name", allowed)
        assert report.matches == {site_builder.oid("n3"), site_builder.oid("n1")}

    def test_restriction_without_root_is_empty(self, site_builder):
        g = site_builder.build()
        report = evaluate_on_subgraph(g, "//name", {site_builder.oid("n1")})
        assert report.matches == frozenset()


class TestAncestors:
    def test_ancestor_cone(self, site_builder):
        g = site_builder.build()
        cone = ancestors_of(g, {site_builder.oid("n1")})
        assert site_builder.oid("n1") in cone
        assert g.root in cone
        assert site_builder.oid("a1") in cone  # via the IDREF edge
        assert site_builder.oid("n2") not in cone

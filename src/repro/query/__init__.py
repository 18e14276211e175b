"""Path-expression queries over data graphs and structural indexes."""

from repro.query.automaton import PathNfa, as_nfa, path_cache_info
from repro.query.evaluator import EvaluationReport, evaluate_on_graph
from repro.query.index_evaluator import (
    EvalFootprint,
    evaluate_on_ak,
    evaluate_on_family,
    evaluate_on_index,
)
from repro.query.path_expression import WILDCARD, PathExpression, parse_path

__all__ = [
    "PathExpression",
    "WILDCARD",
    "parse_path",
    "PathNfa",
    "as_nfa",
    "path_cache_info",
    "EvaluationReport",
    "EvalFootprint",
    "evaluate_on_graph",
    "evaluate_on_index",
    "evaluate_on_ak",
    "evaluate_on_family",
]

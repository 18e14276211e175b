"""Path-expression queries over data graphs and structural indexes."""

from repro.query.automaton import (
    PATH_CACHE_SIZE,
    PathNfa,
    as_nfa,
    clear_path_cache,
    compile_path,
    path_cache_info,
)
from repro.query.evaluator import EvaluationReport, evaluate_on_graph
from repro.query.index_evaluator import (
    EvalFootprint,
    evaluate_on_ak,
    evaluate_on_family,
    evaluate_on_index,
)
from repro.query.path_expression import WILDCARD, PathExpression, Step, parse_path

__all__ = [
    "PathExpression",
    "Step",
    "WILDCARD",
    "parse_path",
    "PathNfa",
    "compile_path",
    "as_nfa",
    "path_cache_info",
    "clear_path_cache",
    "PATH_CACHE_SIZE",
    "EvaluationReport",
    "EvalFootprint",
    "evaluate_on_graph",
    "evaluate_on_index",
    "evaluate_on_ak",
    "evaluate_on_family",
]

"""Path-expression evaluation over structural indexes.

The whole point of the 1-index and the A(k)-index (Section 3): run the
path expression on the small index graph instead of the data graph, and
return the union of the extents of the matching inodes.

* Any node-partition index built by the standard procedure is **safe** —
  the true result is contained in the index result.
* The 1-index is also **precise** for these expressions (no false
  positives) because its partition respects full backward bisimulation.
* The A(k)-index preserves only incoming paths of length <= k, so
  expressions longer than k (or using ``//``) may return false
  positives; :func:`evaluate_on_ak` runs the **validation** step of
  Section 3 — a data-graph evaluation confined to the ancestor cone of
  the candidate dnodes — to eliminate them.

One kernel, every surface
-------------------------
:func:`evaluate_on_index` is the only index-side evaluator.  It never
asks what kind of index it was handed: the live
:class:`~repro.index.base.StructuralIndex`, a published
:class:`~repro.service.snapshot.FrozenIndex` and a derived
:class:`~repro.adaptive.ladder.LadderLevel` each implement one method,
``evaluation_tables()``, returning ``(roots, children_of, label_of,
extent_of)`` — the seed plus three plain callables, for the frozen
surfaces the ``__getitem__`` of their own dicts.

* **The seed** is *the inode that holds* ``graph.root``, read off the
  partition map in O(1) (at publish time, for the frozen surfaces) — not
  "every inode labelled ROOT".  An element named ``ROOT`` below the real
  root is legal XML; seeding it would return paths that do not start at
  the root and cost the 1-index its precision, besides making every
  query pay a scan of the whole index.  A rootless graph has no seed and
  answers nothing.
* **Cost follows the walk**: one ``children_of`` read per inode popped,
  one ``label_of`` read and one transition-row read per iedge followed,
  one ``extent_of`` read per accepting inode — ``/site`` reads the same
  entries whatever hangs below ``site``.  The automaton is determinised
  on demand: the row of an inode's state set is fetched when the inode
  is popped, an iedge looks its label up in it, and
  :meth:`PathNfa.step <repro.query.automaton.PathNfa.step>` — still the
  one definition of the transition relation — runs once per distinct
  (state set, label) the walk meets, not once per iedge.  The rows are a
  local of the call: compiled automata are shared by concurrent readers
  through the ``as_nfa`` LRU and stay immutable.  The kernel checks no
  inode for existence: inside one version every seed and every iedge
  target is a key of the tables it came from (the public ``label_of`` /
  ``isucc`` / ``extent`` methods keep raising
  :class:`~repro.exceptions.StructuralIndexError` for callers that bring
  their own ids).
* :func:`repro.query.evaluator.evaluate_on_graph` deliberately does
  *not* share this loop, nor its transition rows — it steps the
  automaton per edge and is the reference the suites and the benchmark's
  answer audit compare against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import (
    EvaluationReport,
    ancestors_of,
    evaluate_on_subgraph,
)
from repro.query.path_expression import PathExpression

#: shared coercion with the LRU-cached string path (see repro.query.automaton)
_as_nfa = as_nfa


@dataclass
class EvalFootprint:
    """Everything one evaluation *read* — the result's dependency set.

    ``inodes`` collects every inode whose label, iedges or extent the
    fixpoint consulted: the seeded roots, every inode that entered the
    worklist, and every child reached through an iedge even when its
    label killed all NFA states (its label was still read, so a later
    relabel/split there can change the answer).  ``dnodes`` collects the
    ancestor cone a validation pass walked.  If none of these entries
    changed between two versions, the evaluation is guaranteed to return
    the same matches on the later version — the invariant the adaptive
    result cache's TouchedSet intersection relies on.
    """

    inodes: set[int] = field(default_factory=set)
    dnodes: set[int] = field(default_factory=set)


def evaluate_on_index(
    index: StructuralIndex,
    query: str | PathExpression | PathNfa,
    footprint: Optional[EvalFootprint] = None,
) -> EvaluationReport:
    """Run the expression on the index graph; return the extent union.

    Safe for every structural index; additionally precise when the index
    is a (valid) 1-index.  The report's effort counters count *inodes*
    visited and iedges followed, which is what makes index evaluation
    cheap — compare against
    :func:`repro.query.evaluator.evaluate_on_graph`.
    """
    nfa = _as_nfa(query)
    roots, children_of, label_of, extent_of = index.evaluation_tables()
    read = footprint.inodes if footprint is not None else None
    if read is not None:
        read.update(roots)
    step, accept = nfa.step, nfa.accept
    nothing: frozenset[int] = frozenset()
    # rows[states][label] == step(states, label), filled in at first use; a
    # local, because concurrent readers share the automaton (as_nfa's LRU)
    rows: dict[frozenset[int], dict[str, frozenset[int]]] = {}
    states_of = dict.fromkeys(roots, frozenset({nfa.start}))
    queue: deque[int] = deque(roots)
    visited = followed = 0
    while queue:
        inode = queue.popleft()
        visited += 1
        current = states_of[inode]
        row = rows.get(current)
        if row is None:
            row = rows[current] = {}
        children = children_of(inode)
        followed += len(children)
        if read is not None:
            read.update(children)
        for child in children:
            label = label_of(child)
            advanced = row.get(label)
            if advanced is None:
                advanced = row[label] = step(current, label)
            if not advanced:
                continue
            known = states_of.get(child, nothing)
            union = known | advanced
            if union != known:
                states_of[child] = union
                queue.append(child)
    matches = nothing.union(
        *[extent_of(inode) for inode, states in states_of.items() if accept in states]
    )
    return EvaluationReport(matches, nodes_visited=visited, edges_followed=followed)


def evaluate_on_family(
    family: "AkIndexFamily",
    query: str | PathExpression | PathNfa,
    validate: bool | None = None,
) -> EvaluationReport:
    """Multi-resolution evaluation over an A(k) family.

    Section 6 notes that "optionally, one could also maintain the
    intra-iedges inside the A(i)-indexes for i = 1..k-1, which will speed
    up the evaluation of path expressions of length less than k": a
    child-only expression of j <= k steps is answered *exactly* by the
    (much smaller) A(j)-index.  This helper picks that coarsest exact
    level; longer or descendant-axis expressions fall back to the leaf
    level plus validation.

    The chosen level is materialised on demand (this library does not
    persist per-level iedges); the report's effort counters therefore
    reflect only the evaluation proper.
    """
    nfa = _as_nfa(query)
    expression = nfa.expression
    if expression.answerable_exactly_by_ak(family.k):
        level = len(expression)
    else:
        level = family.k
    index = family.level_index(level)
    return evaluate_on_ak(index, level, nfa, validate=validate)


def evaluate_on_ak(
    index: StructuralIndex,
    k: int,
    query: str | PathExpression | PathNfa,
    validate: bool | None = None,
    footprint: Optional[EvalFootprint] = None,
) -> EvaluationReport:
    """Evaluate on an A(k)-index, validating when the expression needs it.

    *index* is the materialised A(k) level (see
    :meth:`repro.index.AkIndexFamily.level_index`).  With *validate* left
    at ``None`` the validation pass runs exactly when Section 3 requires
    it: the expression is longer than k or uses the descendant axis.
    Validation re-runs the expression on the data graph restricted to the
    ancestor cone of the candidates, so its cost scales with the
    candidate set, not the database.
    """
    nfa = _as_nfa(query)
    report = evaluate_on_index(index, nfa, footprint=footprint)
    needs_validation = not nfa.expression.answerable_exactly_by_ak(k)
    if validate is None:
        validate = needs_validation
    if not validate or not report.matches:
        return report
    candidates = set(report.matches)
    cone = ancestors_of(index.graph, candidates)
    if footprint is not None:
        footprint.dnodes.update(cone)
    exact = evaluate_on_subgraph(index.graph, nfa, cone)
    return EvaluationReport(
        matches=frozenset(exact.matches & candidates),
        nodes_visited=report.nodes_visited + exact.nodes_visited,
        edges_followed=report.edges_followed + exact.edges_followed,
        validated=True,
        candidates_before_validation=len(candidates),
    )

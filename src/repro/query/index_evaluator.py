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
  Section 3 against the data graph to eliminate them.  A child-only
  expression of L steps costs its candidates and the dnodes at most L
  edges above them whose labels still spell the expression (L backward
  layers, L forward ones); a descendant-axis expression costs the
  candidates' whole ancestor cone, walked once to collect it and once
  more by the reference product.

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

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.obs import current as current_obs
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import (
    EvaluationReport,
    ancestors_of,
    evaluate_on_subgraph,
)
from repro.query.path_expression import WILDCARD, PathExpression

#: shared coercion with the LRU-cached string path (see repro.query.automaton)
_as_nfa = as_nfa


@dataclass
class EvalFootprint:
    """Everything one evaluation *read* — the result's dependency set.

    ``inodes`` collects every inode whose label, iedges or extent the
    fixpoint consulted: the seeded roots, every inode that entered the
    worklist, and every child reached through an iedge even when its
    label killed all NFA states (its label was still read, so a later
    relabel/split there can change the answer).  ``dnodes`` collects, by
    the same convention, every dnode whose label or adjacency a
    validation pass read: the backward layers (and the root) for a
    child-only expression, the candidates' ancestor cone for a
    descendant-axis one.  If none of these entries changed between two
    versions, the evaluation is guaranteed to return the same matches on
    the later version — the invariant the adaptive result cache's
    TouchedSet intersection relies on.
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

    What validation costs depends on the expression alone
    (``nfa.loops``).  A child-only expression of L steps is decided by
    :func:`_validate_by_layers`: L label-pruned backward layers from the
    candidates and L forward layers from the root, so it reads the
    candidates, the dnodes at most L edges above them that can still
    spell the expression, and those dnodes' adjacency — not the database,
    and not what else points at the candidates' ancestors.  A
    descendant-axis expression re-runs the reference product inside the
    candidates' whole ancestor cone (``ancestors_of`` +
    ``evaluate_on_subgraph``), which IDREF in-edges can make most of the
    graph.
    """
    nfa = _as_nfa(query)
    report = evaluate_on_index(index, nfa, footprint=footprint)
    needs_validation = not nfa.expression.answerable_exactly_by_ak(k)
    if validate is None:
        validate = needs_validation
    if not validate or not report.matches:
        return report
    candidates = report.matches
    read = footprint.dnodes if footprint is not None else None
    started = time.perf_counter()
    if nfa.loops:
        cone = ancestors_of(index.graph, candidates)
        if read is not None:
            read.update(cone)
        exact = evaluate_on_subgraph(index.graph, nfa, cone)
        matches = exact.matches & candidates
        visited, followed = exact.nodes_visited, exact.edges_followed
    else:
        matches, visited, followed = _validate_by_layers(index.graph, nfa, candidates, read)
    obs = current_obs()
    obs.observe("query.validation_seconds", time.perf_counter() - started)
    obs.add("query.validation_visits", visited)
    return EvaluationReport(
        matches=matches,
        nodes_visited=report.nodes_visited + visited,
        edges_followed=report.edges_followed + followed,
        validated=True,
        candidates_before_validation=len(candidates),
    )


def _validate_by_layers(
    graph, nfa: PathNfa, candidates: frozenset[int], read: Optional[set[int]]
) -> tuple[frozenset[int], int, int]:
    """Which *candidates* end a root path spelling a loop-free automaton.

    An accepted path of an automaton without loop states has exactly
    ``L = nfa.accept`` edges, so a candidate is decided by the dnodes at
    most L edges above it.  Backward: layer L is the candidate set, and
    layer i-1 is the predecessors of those dnodes of layer i whose label
    passes step i.  Forward: from ``graph.root`` (if layer 0 holds it),
    depth i keeps the successors of depth i-1 that lie in layer i and
    pass step i; depth L is the answer, a subset of the candidates by
    construction.  Layers are sets per depth, so a cycle merely puts a
    dnode in several of them; an unreachable or rootless region never
    meets the forward pass; the root is an oid, never a label.

    *read* (a footprint's ``dnodes``) collects every dnode whose label or
    adjacency is read: layers 1..L and the root.  That is the dependency
    set of the answer: of the edges a commit inserted into or deleted
    from an accepted path, the lowest, u -> v, has v in a layer, because
    the path below v is unchanged and passes its steps.  Returns
    ``(matches, dnodes visited, dedges followed)`` — one visit per layer
    member and per forward expansion, one edge per adjacency entry read.
    """
    label, iter_pred, iter_succ = graph.label, graph.iter_pred, graph.iter_succ
    depth = nfa.accept
    nothing: frozenset[int] = frozenset()
    visited = followed = 0
    # passing[i]: the dnodes of layer i whose label passes step i
    passing: list[frozenset[int] | set[int]] = [nothing] * (depth + 1)
    layer: frozenset[int] | set[int] = candidates
    for i in range(depth, 0, -1):
        test = nfa.advance[i - 1][0]
        visited += len(layer)
        if read is not None:
            read.update(layer)
        keep = layer if test == WILDCARD else {w for w in layer if label(w) == test}
        edges = list(chain.from_iterable(map(iter_pred, keep)))
        followed += len(edges)
        passing[i] = keep
        layer = set(edges)
    if not graph.has_root or graph.root not in layer:
        return nothing, visited, followed
    if read is not None:
        read.add(graph.root)
    reached: frozenset[int] | set[int] = {graph.root}
    for i in range(1, depth + 1):
        visited += len(reached)
        edges = list(chain.from_iterable(map(iter_succ, reached)))
        followed += len(edges)
        reached = passing[i].intersection(edges)
    return frozenset(reached), visited, followed

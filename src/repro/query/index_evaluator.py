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
  Section 3 against the data graph to eliminate them.  An expression of
  L steps costs its candidates and the dnodes above them that can still
  spell it (L + 1 backward layers, walked back once and forward once): at
  most L edges above the candidates for a child-only expression, and
  every ancestor a loop state may idle through for a descendant-axis one,
  label-pruned at each child step that follows it.

One kernel, one surface
-----------------------
:func:`evaluate_on_index` is the only index-side evaluator, and it reads
one kind of surface: a :class:`~repro.index.frozen.FrozenIndex`, a
closed version of one partition.  It asks whatever it is handed for
``frozen()`` — a published version and a coarser ladder level
(:meth:`~repro.index.frozen.FrozenIndex.coarsen`) are their own, a live
:class:`~repro.index.base.StructuralIndex` hands out the capture of its
current generation — and reads that version's ``evaluation_tables()``:
``(roots, children_of, labelled, extent_of, closures)``, the seed, the
``__getitem__`` of its iedge, label and extent tables, and its closure
memo.  ``labelled(label)`` is the version's inodes carrying *label* (a
:class:`~repro.index.frozen.LabelTable`; the empty set for a label the
index lacks).  ``closures`` is a plain dict every version starts empty:
entering layer → ``(below, closed size, edges read)`` of a loop state.

* **The seed** is *the inode that holds* ``graph.root``, read off the
  partition map in O(1) when the version is captured — not
  "every inode labelled ROOT".  An element named ``ROOT`` below the real
  root is legal XML; seeding it would return paths that do not start at
  the root and cost the 1-index its precision, besides making every
  query pay a scan of the whole index.  A rootless graph has no seed and
  answers nothing.
* **One layer per automaton state.**  The automaton is a chain (state i
  goes only to i or i + 1), so the inodes holding each state are built
  in state order with set operations, no worklist and no
  :meth:`PathNfa.step <repro.query.automaton.PathNfa.step>`: layer 0 is
  the seed, layer i + 1 the children of layer i whose label passes step
  i — ``below & labelled(test)``, one C-level intersection — and a loop
  state's layer is first closed under children.
* **Cost follows the layers**: one ``children_of`` read per (inode,
  state) pair, one ``labelled`` read per non-wildcard state and none per
  child, one ``extent_of`` read per accepting inode — ``/site`` reads
  the same entries whatever hangs below ``site``, and ``//name`` reads
  one label set however many inodes it closes over.  A loop state's
  closure is paid once per (version, entering layer): a version never
  changes, so the first evaluation stores the children of the closed
  layer with the counts it made, and a later one with the same entering
  layer (``//x`` enters at the seed, ``/site//x`` at ``site``) reads no
  iedge for it and reports the same counts.  At most
  :data:`CLOSURES_PER_VERSION` layers are stored per version (readers
  racing for the last slot may each take one); racing readers store
  identical values.  The kernel checks no inode for existence: inside
  one version every seed and every iedge
  target is a key of the tables it came from (the public ``label_of`` /
  ``isucc`` / ``extent`` methods keep raising
  :class:`~repro.exceptions.StructuralIndexError` for callers that bring
  their own ids).
* :func:`repro.query.evaluator.evaluate_on_graph` deliberately does
  *not* share this loop — it steps the automaton per edge and is the
  reference the suites and the benchmark's answer audit compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.obs import current as current_obs
from repro.query.automaton import PathNfa, as_nfa
from repro.query.evaluator import EvaluationReport
from repro.query.path_expression import WILDCARD, PathExpression

#: shared coercion with the LRU-cached string path (see repro.query.automaton)
_as_nfa = as_nfa

#: loop-state closures a surface version keeps (see evaluation_tables);
#: a later entering layer is closed per evaluation and not stored
CLOSURES_PER_VERSION = 4


@dataclass
class EvalFootprint:
    """Everything one evaluation *read* — the result's dependency set.

    ``inodes`` collects every inode whose label, iedges or extent the
    kernel consulted: the seeded roots, every inode that holds a state,
    and every child reached through an iedge even when its label killed
    all NFA states (its label was still read, so a later relabel/split
    there can change the answer).  ``dnodes`` collects, by
    the same convention, every dnode whose label or adjacency a
    validation pass read: the backward layers 1..L, every layer at a loop
    state (layer 0 included), and the root.  For ``//x`` and ``/a//x``
    that is the candidates' ancestor cone; a child step after a loop
    prunes it.  If none of these entries changed between two
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
    is a (valid) 1-index.  Layer ``S[i]`` holds the inodes in state i:
    ``S[0]`` is the seed, ``S[i+1]`` the children of ``S[i]`` whose label
    passes step i, and when state i loops ``S[i]`` is first closed under
    children (each frontier minus the whole layer, so cycles end) — or,
    when the surface's memo holds the entering layer, its stored closure
    is taken.  The matches are the extents of ``S[L]``.  The footprint is
    the seed plus the children of every layer's inodes, the accepting
    layer's included.  ``nodes_visited`` is the sum of the layer sizes
    (one per (inode, state) pair) and ``edges_followed`` the children
    entries read, each layer member's once — with or without a
    *footprint*, and whether a closure was read or taken from the memo.
    """
    nfa = _as_nfa(query)
    roots, children_of, labelled, extent_of, closures = index.frozen().evaluation_tables()
    read = footprint.inodes if footprint is not None else None
    if read is not None:
        read.update(roots)
    layer = set(roots)
    visited = followed = 0
    for state, (test, _) in enumerate(nfa.advance):
        # a loop state's closure is the version's: keyed by the entering layer
        key = frozenset(layer) if layer and state in nfa.loops else None
        closure = closures.get(key)
        if closure is None:
            below: set[int] = set()  # the children of the layer
            edges_read = 0
            frontier = layer
            while frontier:
                edges = list(chain.from_iterable(map(children_of, frontier)))
                edges_read += len(edges)
                reached = set(edges)
                below |= reached
                if key is None:
                    break
                frontier = reached - layer
                layer |= frontier
            closure = (below, len(layer), edges_read)
            # stored as walked, never written to again: a wildcard step
            # hands ``below`` on as the next layer, but the children of a
            # closed layer are closed under children, so a loop entering
            # them adds nothing to them and the ``|=`` above leaves them be
            if key is not None and len(closures) < CLOSURES_PER_VERSION:
                closures[key] = closure
        below, closed, edges_read = closure
        visited += closed
        followed += edges_read
        if read is not None:
            read |= below
        layer = below if test == WILDCARD else below & labelled(test)
    # the accepting layer never loops and feeds no further layer: its
    # children are counted, and collected only into a footprint
    visited += len(layer)
    children = list(map(children_of, layer))
    followed += sum(map(len, children))
    if read is not None:
        read.update(chain.from_iterable(children))
    matches = frozenset().union(*map(extent_of, layer))
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

    Validation is :func:`_validate_by_layers` for every expression:
    label-pruned backward layers from the candidates, closed under
    predecessors at each loop state, then one forward pass from the root
    inside them.  It reads the candidates, the dnodes above them that can
    still spell the expression, and those dnodes' adjacency — not the
    database, and not what else points at them.  A child-only expression
    of L steps reads at most L edges up; a descendant-axis one reads
    every ancestor its loop states may idle through.
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
    """Which *candidates* end a root path the automaton accepts.

    Along an accepted path, state i is entered by a dnode whose label
    passes step i (state 0 by the root) and, when i is a loop state, held
    by any dnodes after it; the accept state ``L = nfa.accept`` never
    loops.  So a candidate is decided by one layer of dnodes per state.
    Backward: layer L is the candidate set; layer i-1 is the predecessors
    of those dnodes of layer i whose label passes step i, closed under
    predecessors when state i-1 loops.  Forward: from ``graph.root`` (if
    layer 0 holds it), depth i keeps the successors of depth i-1 that lie
    in layer i and pass step i, closed under successors inside layer i
    when state i loops (depth 0 likewise); depth L is the answer, a subset
    of the candidates by construction.  Layers are sets per state, so a
    cycle merely puts a dnode in several of them; an unreachable or
    rootless region never meets the forward pass; ``DataGraph.add_edge``
    refuses in-edges to the root, so no closure runs through it; the root
    is an oid, never a label.

    *read* (a footprint's ``dnodes``) collects every dnode whose label or
    adjacency is read: layers 1..L, every loop layer (layer 0 included)
    and the root.  That is the dependency set of the answer: of the edges
    a commit inserted into or deleted from an accepted path, the lowest,
    u -> v, has v in one of those layers, because the path below v is
    unchanged and passes its steps, and v holds a state other than a
    non-loop state 0, which only the root holds.  Returns ``(matches,
    dnodes visited, dedges followed)`` — one visit per member of those
    layers and per forward expansion, one edge per adjacency entry read.
    """
    label, iter_pred, iter_succ = graph.label, graph.iter_pred, graph.iter_succ
    depth, loops = nfa.accept, nfa.loops
    nothing: frozenset[int] = frozenset()
    visited = followed = 0
    # passing[i]: the dnodes of layer i whose label passes step i;
    # closed[i]: layer i where state i loops, else empty
    passing: list[frozenset[int] | set[int]] = [nothing] * (depth + 1)
    closed: list[frozenset[int] | set[int]] = [nothing] * (depth + 1)
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
        if i - 1 in loops:
            frontier = layer
            while frontier:
                edges = list(chain.from_iterable(map(iter_pred, frontier)))
                followed += len(edges)
                frontier = set(edges).difference(layer)
                layer |= frontier
            closed[i - 1] = layer
    if 0 in loops:
        visited += len(layer)
        if read is not None:
            read.update(layer)
    if not graph.has_root or graph.root not in layer:
        return nothing, visited, followed
    if read is not None:
        read.add(graph.root)
    reached: set[int] = {graph.root}
    for i in range(depth):
        inside, target = closed[i], passing[i + 1]
        following: set[int] = set()
        frontier: frozenset[int] | set[int] = reached
        while frontier:
            visited += len(frontier)
            edges = list(chain.from_iterable(map(iter_succ, frontier)))
            followed += len(edges)
            following.update(target.intersection(edges))
            frontier = inside.intersection(edges).difference(reached)
            reached |= frontier
        reached = following
    return frozenset(reached), visited, followed

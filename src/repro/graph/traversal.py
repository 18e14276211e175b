"""Traversal and structure utilities over :class:`DataGraph`.

* bounded-depth descendant sets (the "simple" A(k) baseline needs the
  descendants of ``v`` up to depth ``k - 1``);
* acyclicity testing and strongly connected components (Theorem 1
  separates the acyclic and cyclic cases); *cyclicity* in the paper's
  sense (the fraction of cycle-inducing reference edges remaining) is
  the workload layer's business.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.graph.datagraph import DataGraph


def descendants_within(graph: DataGraph, start: int, depth: int) -> set[int]:
    """Descendants of *start* within *depth* edges (excluding *start*).

    ``depth <= 0`` yields the empty set.  This is the affected region the
    simple A(k) update algorithm of Section 7.2 searches ("descendants of
    v up to a maximum depth of k-1").
    """
    if depth <= 0:
        return set()
    found: set[int] = set()
    frontier = {start}
    for _ in range(depth):
        next_frontier: set[int] = set()
        for node in frontier:
            for child in graph.iter_succ(node):
                if child != start and child not in found:
                    found.add(child)
                    next_frontier.add(child)
        if not next_frontier:
            break
        frontier = next_frontier
    return found


def is_acyclic(graph: DataGraph) -> bool:
    """Whether the data graph (all nodes, not just reachable) is a DAG.

    Kahn's algorithm: the graph is acyclic iff repeatedly removing nodes
    of in-degree zero removes every node.
    """
    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node, deg in in_deg.items() if deg == 0)
    removed = 0
    while queue:
        node = queue.popleft()
        removed += 1
        for child in graph.iter_succ(node):
            in_deg[child] -= 1
            if in_deg[child] == 0:
                queue.append(child)
    return removed == graph.num_nodes


def strongly_connected_components(graph: DataGraph) -> list[set[int]]:
    """Tarjan's SCC algorithm (iterative), over the whole node set.

    Used by tests and by the cyclicity diagnostics: a graph is acyclic iff
    every SCC is a singleton without a self-loop.
    """
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[set[int]] = []
    counter = 0

    for root in graph.nodes():
        if root in index_of:
            continue
        work: list[tuple[int, Iterator[int]]] = [(root, graph.iter_succ(root))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, graph.iter_succ(child)))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: set[int] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components

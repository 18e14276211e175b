"""Traversal and structure utilities over :class:`DataGraph`.

These are the substrate routines the paper's algorithms and experiments
rely on:

* BFS / DFS orders and bounded-depth descendant sets (the "simple"
  A(k) baseline needs descendants of ``v`` up to depth ``k - 1``);
* acyclicity testing and topological order (Theorem 1 separates the
  acyclic and cyclic cases; Lemma 4's proof walks a topological order);
* *cyclicity* measurement in the paper's sense (fraction of cycle-inducing
  reference edges remaining) is handled by the workload layer; here we
  provide the graph-theoretic building blocks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

from repro.exceptions import GraphError
from repro.graph.datagraph import DataGraph


def bfs_order(graph: DataGraph, start: int) -> list[int]:
    """Nodes reachable from *start* in breadth-first order."""
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for child in graph.iter_succ(node):
            if child not in seen:
                seen.add(child)
                order.append(child)
                queue.append(child)
    return order


def dfs_order(graph: DataGraph, start: int) -> list[int]:
    """Nodes reachable from *start* in (preorder) depth-first order."""
    seen: set[int] = set()
    order: list[int] = []
    stack = [start]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
        # Reversed for a stable, child-insertion-friendly preorder.
        stack.extend(sorted(graph.iter_succ(node), reverse=True))
    return order


def reachable_from(graph: DataGraph, start: int) -> set[int]:
    """The set of nodes reachable from *start* (including it)."""
    return set(bfs_order(graph, start))


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
    """Whether the data graph (all nodes, not just reachable) is a DAG."""
    try:
        topological_order(graph)
    except GraphError:
        return False
    return True


def topological_order(graph: DataGraph) -> list[int]:
    """Kahn's algorithm over the whole node set.

    Raises :class:`GraphError` if the graph contains a cycle.
    """
    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node, deg in in_deg.items() if deg == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in graph.iter_succ(node):
            in_deg[child] -= 1
            if in_deg[child] == 0:
                queue.append(child)
    if len(order) != graph.num_nodes:
        raise GraphError("graph contains a cycle; no topological order exists")
    return order


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


def count_cycle_edges(graph: DataGraph) -> int:
    """Number of edges inside non-trivial SCCs (a cheap cyclicity proxy)."""
    comp_of: dict[int, int] = {}
    for i, comp in enumerate(strongly_connected_components(graph)):
        for node in comp:
            comp_of[node] = i
    return sum(1 for s, t in graph.edges() if comp_of[s] == comp_of[t])


def unreachable_nodes(graph: DataGraph) -> set[int]:
    """Nodes not reachable from the root (diagnostic for workloads)."""
    if not graph.has_root:
        return set(graph.nodes())
    return set(graph.nodes()) - reachable_from(graph, graph.root)


def graph_depth(graph: DataGraph) -> int:
    """Length of the longest shortest-path from the root (BFS depth)."""
    if not graph.has_root:
        raise GraphError("graph has no root")
    depth = 0
    seen = {graph.root}
    frontier = [graph.root]
    while frontier:
        next_frontier: list[int] = []
        for node in frontier:
            for child in graph.iter_succ(node):
                if child not in seen:
                    seen.add(child)
                    next_frontier.append(child)
        if next_frontier:
            depth += 1
        frontier = next_frontier
    return depth


def induced_edge_count(graph: DataGraph, nodes: Iterable[int]) -> int:
    """Number of edges with both endpoints in *nodes*."""
    node_set = set(nodes)
    return sum(
        1 for node in node_set for child in graph.iter_succ(node) if child in node_set
    )

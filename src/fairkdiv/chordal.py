"""Clique trees of chordal graphs (treeindep's ell = 1 case), compiled only for --chordal."""
from __future__ import annotations

from heapq import heappop, heappush

from .model import ConflictInstance
from .treeindep import TreeDecomposition


def maximum_cardinality_search(inst: ConflictInstance) -> list[int]:
    """MCS visit order; its reverse is a perfect elimination order iff chordal.

    Each step visits an unvisited vertex with the most visited neighbors,
    the smallest id among ties.  A heap keyed (-weight, vertex) gets an entry
    per weight change: O((n + m) log n).  A vertex's newest entry has the
    smallest key of its entries, so every older one pops after the visit
    and is skipped.
    """
    adj = inst.adjacency()
    weight = [0] * inst.n
    visited = [False] * inst.n
    heap = [(0, v) for v in range(inst.n)]  # sorted, so already a heap
    order = []
    while heap:
        _, v = heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                weight[w] += 1
                heappush(heap, (-weight[w], w))
    return order


def clique_tree_of_chordal(inst: ConflictInstance) -> TreeDecomposition | None:
    """Clique-tree decomposition of a chordal instance, or None if not chordal.

    Bags are the maximal cliques, so of independence number 1, numbered by
    their sorted members.  One pass over the MCS order finds them and the
    tree (Blair & Peyton, 1993).  Let E be v's earlier neighbours and u the
    last visited of them: the graph is chordal iff E - u lies in u's
    neighbourhood for every v (Rose, Tarjan & Lueker, 1976).  v starts the
    clique E + v, a child of u's clique, if E is no larger than the previous
    vertex's; else v joins the current clique.
    """
    adj = inst.adjacency()
    order = maximum_cardinality_search(inst)
    position = {v: i for i, v in enumerate(order)}
    cliques: list[set[int]] = []
    links: list[tuple[int, int]] = []  # (parent clique or -1, clique)
    home = [0] * inst.n  # the clique each vertex joined
    last = 0
    for i, v in enumerate(order):
        earlier = {w for w in adj[v] if position[w] < i}
        if earlier:
            u = max(earlier, key=position.__getitem__)
            if not earlier - {u} <= adj[u]:
                return None
        if len(earlier) > last:
            cliques[-1].add(v)
        else:
            links.append((home[u] if earlier else -1, len(cliques)))
            cliques.append(earlier | {v})
        home[v] = len(cliques) - 1
        last = len(earlier)
    if not cliques:
        return TreeDecomposition(n=inst.n, bags={1: frozenset()}, edges=())
    rank = sorted(range(len(cliques)), key=lambda c: sorted(cliques[c]))
    ids = {c: i for i, c in enumerate(rank, start=1)}
    bags = {ids[c]: frozenset(cliques[c]) for c in rank}
    edges = []
    # a clique without parent starts a component and is its least-numbered
    # bag: MCS grows it from the component's least vertex, adding the least
    # common neighbour each time.  Each but the first (bag 1) hangs off bag 1.
    for p, c in links[1:]:
        x, y = ids.get(p, 1), ids[c]
        edges.append((min(x, y), max(x, y)))
    return TreeDecomposition(n=inst.n, bags=bags, edges=tuple(sorted(edges)))

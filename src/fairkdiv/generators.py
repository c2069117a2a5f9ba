"""Deterministic random instance generators for testing and benchmarking.

All randomness flows through random.Random(seed) (Mersenne Twister), so a
given seed reproduces the same instance bytes on any platform.
"""
from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .model import ConflictInstance

if TYPE_CHECKING:
    from .recognition import ConvexOrdering
    from .treeindep import TreeDecomposition


def gen_convex_bipartite(
    na: int,
    nb: int,
    k: int,
    max_profit: int,
    seed: int,
) -> tuple[ConflictInstance, ConvexOrdering]:
    """Random convex bipartite instance, convex under the identity A-order.

    Vertices 0..na-1 form A; na..na+nb-1 form B.  Each B-vertex receives an
    interval drawn uniformly from all na*(na+1)/2 nonempty intervals of A
    (B-vertices are isolated when na = 0).
    """
    from .recognition import validate_convex_ordering  # only this generator needs it

    if na < 0 or nb < 0:
        raise ValueError("side sizes must be nonnegative")
    if max_profit < 0:
        raise ValueError("max_profit must be nonnegative")
    rng = random.Random(seed)
    edges = []
    for b in range(nb):
        if na == 0:
            continue
        idx = rng.randrange(na * (na + 1) // 2)
        lo = 1
        while idx >= na - lo + 1:
            idx -= na - lo + 1
            lo += 1
        hi = lo + idx
        for a in range(lo, hi + 1):
            edges.append((a - 1, na + b))
    n = na + nb
    profits = [[rng.randint(0, max_profit) for _ in range(n)] for _ in range(k)]
    inst = ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)
    ordering = validate_convex_ordering(inst, list(range(na)), range(na, n))
    return inst, ordering


def gen_partial_ktree(
    n: int,
    width: int,
    k: int,
    max_profit: int,
    seed: int,
    delete_prob: float = 0.3,
) -> tuple[ConflictInstance, TreeDecomposition]:
    """Random partial k-tree plus the decomposition of its construction.

    Builds a k-tree of the given width (start from a clique, attach each new
    vertex to a random width-subset of an existing bag), then deletes each
    edge independently with delete_prob.  With delete_prob = 0 the graph is
    chordal.  The emitted decomposition stays valid for any edge subset.
    """
    from .treeindep import TreeDecomposition  # only this generator needs it

    if not (0.0 <= delete_prob <= 1.0):
        raise ValueError("delete_prob must lie in [0, 1]")
    if max_profit < 0:
        raise ValueError("max_profit must be nonnegative")
    rng = random.Random(seed)
    if n == 0:
        inst = ConflictInstance.build(0, k, [], [[] for _ in range(k)])
        return inst, TreeDecomposition(n=0, bags={1: frozenset()}, edges=())
    if not (0 <= width < n):
        raise ValueError("width must satisfy 0 <= width < n")
    base = min(n, width + 1)
    bags: dict[int, frozenset[int]] = {1: frozenset(range(base))}
    td_edges: list[tuple[int, int]] = []
    edges = {(i, j) for i in range(base) for j in range(i + 1, base)}
    for v in range(base, n):
        host = rng.randint(1, len(bags))
        sub = rng.sample(sorted(bags[host]), min(width, len(bags[host])))
        new_id = len(bags) + 1
        bags[new_id] = frozenset(sub) | {v}
        td_edges.append((host, new_id))
        for w in sub:
            edges.add((min(v, w), max(v, w)))
    kept = [e for e in sorted(edges) if rng.random() >= delete_prob]
    profits = [[rng.randint(0, max_profit) for _ in range(n)] for _ in range(k)]
    inst = ConflictInstance.build(n=n, k=k, edges=kept, profits=profits)
    return inst, TreeDecomposition(n=n, bags=bags, edges=tuple(td_edges))

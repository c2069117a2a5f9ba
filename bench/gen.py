"""Seeded instance generators owned by the benchmark.

Every random value comes from ``random.Random(seed)``, so a seed fixes the
bytes of every file the benchmark writes.  The package's own generator is
used for partial k-trees; what the package lacks lives here: convex
instances with shuffled vertex ids, so that recognition has to search, and
random clique-width expressions with their s-expression text.
"""
from __future__ import annotations

import random

from fairkdiv.cliquewidth import (
    CliqueExpression,
    EtaNode,
    ExprNode,
    RhoNode,
    UnionNode,
    VertexNode,
    evaluate_expression,
)
from fairkdiv.model import ConflictInstance


def shuffled_convex(
    na: int, nb: int, k: int, max_profit: int, seed: int, components: int = 1
) -> ConflictInstance:
    """Disjoint union of random convex bipartite graphs, vertex ids shuffled.

    Each part has na A-vertices in a line and nb B-vertices, each adjacent
    to an interval of A drawn uniformly from all na*(na+1)/2 nonempty ones
    (the family of ``gen_convex_bipartite``).  The union's ids are then
    permuted, so neither the bipartition nor a convex A-order can be read
    off the ids and recognition has to search.
    """
    rng = random.Random(seed)
    intervals = [(lo, hi) for lo in range(na) for hi in range(lo, na)]
    part = na + nb
    n = components * part
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for c in range(components):
        base = c * part
        for b in range(nb):
            lo, hi = rng.choice(intervals)
            edges.extend((perm[base + a], perm[base + na + b]) for a in range(lo, hi + 1))
    profits = [[rng.randint(0, max_profit) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n, k, edges, profits)


def random_k_expression(leaves: int, labels: int, seed: int) -> CliqueExpression:
    """A random expression with exactly ``leaves`` vertices and ``labels`` labels.

    The tree splits the leaf budget at random; after each subtree, up to two
    random eta (add edges) or rho (relabel) operations are applied.
    """
    rng = random.Random(seed)
    next_id = 0

    def build(budget: int) -> ExprNode:
        nonlocal next_id
        if budget == 1:
            next_id += 1
            node: ExprNode = VertexNode(label=rng.randint(1, labels), vertex=next_id)
        else:
            split = rng.randint(1, budget - 1)
            node = UnionNode(build(split), build(budget - split))
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(1, labels + 1), 2)
            node = EtaNode(i, j, node) if rng.random() < 0.6 else RhoNode(i, j, node)
        return node

    root = build(leaves)
    return CliqueExpression(
        root=root, num_labels=labels, vertex_ids=frozenset(range(1, leaves + 1))
    )


def instance_of_expression(
    expr: CliqueExpression, k: int, max_profit: int, seed: int
) -> ConflictInstance:
    """The graph an expression builds, with random profits in [0, max_profit]."""
    graph = evaluate_expression(expr)
    rng = random.Random(seed)
    n = len(graph.labels)
    profits = [[rng.randint(0, max_profit) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n, k, [(u - 1, v - 1) for u, v in graph.edges], profits)


def expression_text(expr: CliqueExpression) -> str:
    """The s-expression file form, with a leading ``cw <labels>`` budget line."""
    out: list[str] = []
    stack: list[ExprNode | str] = [expr.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, VertexNode):
            out.append(f"(v {item.label} {item.vertex})")
        elif isinstance(item, UnionNode):
            out.append("(u ")
            stack.extend([")", item.right, " ", item.left])
        else:
            op = "eta" if isinstance(item, EtaNode) else "rho"
            out.append(f"({op} {item.i} {item.j} ")
            stack.extend([")", item.child])
    return f"cw {expr.num_labels}\n" + "".join(out) + "\n"

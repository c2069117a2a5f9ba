"""Solver driven by a clique-width construction expression.

The input graph is described by an expression over four operations: create a
labeled vertex, take a disjoint union, add all edges between two label
classes, and relabel one class into another.  The dynamic program walks the
expression tree bottom-up; a state records, per agent, the set of labels
occurring on that agent's vertices, and maps it to the profiles attainable
with exactly that label footprint.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import Coloring, ConflictInstance, Profile, validate_coloring
from .profiles import ProfileSet, best_profile, run_tables, store_cells, union_cells
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401

# One bitmask of width num_labels per agent.
LabelKey = tuple[int, ...]
CwTable = dict[LabelKey, ProfileSet]


class ExpressionError(ValueError):
    """Malformed expression text or ill-formed operation arguments."""


@dataclass(frozen=True)
class VertexNode:
    label: int
    vertex: int


@dataclass(frozen=True)
class UnionNode:
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class EtaNode:
    i: int
    j: int
    child: "ExprNode"


@dataclass(frozen=True)
class RhoNode:
    i: int
    j: int
    child: "ExprNode"


ExprNode = Union[VertexNode, UnionNode, EtaNode, RhoNode]


@dataclass(frozen=True)
class CliqueExpression:
    """An expression tree plus its declared label budget."""

    root: ExprNode
    num_labels: int
    vertex_ids: frozenset[int]


def _children(node: ExprNode) -> tuple[ExprNode, ...]:
    if isinstance(node, UnionNode):
        return (node.left, node.right)
    if isinstance(node, (EtaNode, RhoNode)):
        return (node.child,)
    return ()


def _walk(node: ExprNode):
    yield node
    for child in _children(node):
        yield from _walk(child)


def parse_k_expression(text: str) -> CliqueExpression:
    """Parse the s-expression grammar.

    expr := (v <label> <id>) | (u <expr> <expr>)
          | (eta <i> <j> <expr>) | (rho <i> <j> <expr>)
    An optional leading line `cw <l>` declares the label budget; otherwise
    the largest label used is taken.
    """
    declared = None
    lines = text.splitlines()
    body_start = 0
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped or stripped.startswith("c "):
            continue
        if stripped.startswith("cw"):
            parts = stripped.split()
            if len(parts) != 2:
                raise ExpressionError(f"bad budget line: {stripped!r}")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ExpressionError(f"bad budget line: {stripped!r}")
            if declared < 1:
                raise ExpressionError("label budget must be positive")
            body_start = idx + 1
        break
    body = "\n".join(lines[body_start:])
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            found = tokens[pos] if pos < len(tokens) else "end of input"
            raise ExpressionError(f"expected {tok!r}, found {found!r}")
        pos += 1

    def number() -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of input")
        try:
            value = int(tokens[pos])
        except ValueError:
            raise ExpressionError(f"expected an integer, found {tokens[pos]!r}")
        pos += 1
        return value

    def expr() -> ExprNode:
        nonlocal pos
        expect("(")
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of input")
        op = tokens[pos]
        pos += 1
        if op == "v":
            label, vertex = number(), number()
            if label < 1:
                raise ExpressionError(f"label {label} out of range")
            if vertex < 1:
                raise ExpressionError(f"vertex id {vertex} out of range")
            node: ExprNode = VertexNode(label=label, vertex=vertex)
        elif op == "u":
            node = UnionNode(left=expr(), right=expr())
        elif op in ("eta", "rho"):
            i, j = number(), number()
            if i < 1 or j < 1:
                raise ExpressionError(f"label out of range in {op}")
            if i == j:
                raise ExpressionError(f"{op} requires two distinct labels, got {i} twice")
            child = expr()
            node = EtaNode(i, j, child) if op == "eta" else RhoNode(i, j, child)
        else:
            raise ExpressionError(f"unknown operation {op!r}")
        expect(")")
        return node

    root = expr()
    if pos != len(tokens):
        raise ExpressionError(f"trailing input after expression: {tokens[pos]!r}")

    max_label = 0
    seen_vertices: set[int] = set()
    for node in _walk(root):
        if isinstance(node, VertexNode):
            max_label = max(max_label, node.label)
            if node.vertex in seen_vertices:
                raise ExpressionError(f"duplicate vertex id {node.vertex}")
            seen_vertices.add(node.vertex)
        elif isinstance(node, (EtaNode, RhoNode)):
            max_label = max(max_label, node.i, node.j)
    if declared is not None and max_label > declared:
        raise ExpressionError(
            f"label {max_label} exceeds the declared budget {declared}"
        )
    return CliqueExpression(
        root=root,
        num_labels=declared if declared is not None else max(max_label, 1),
        vertex_ids=frozenset(seen_vertices),
    )


@dataclass(frozen=True)
class LabeledGraph:
    """Evaluation result: 1-based vertex ids with labels, plus edges."""

    labels: dict[int, int]
    edges: frozenset[tuple[int, int]]


def evaluate_expression(expr: CliqueExpression) -> LabeledGraph:
    """Build the labeled graph an expression describes."""

    def build(node: ExprNode) -> tuple[dict[int, int], set[tuple[int, int]]]:
        if isinstance(node, VertexNode):
            return {node.vertex: node.label}, set()
        if isinstance(node, UnionNode):
            l_labels, l_edges = build(node.left)
            r_labels, r_edges = build(node.right)
            l_labels.update(r_labels)
            l_edges |= r_edges
            return l_labels, l_edges
        labels, edges = build(node.child)
        if isinstance(node, EtaNode):
            side_i = [v for v, lab in labels.items() if lab == node.i]
            side_j = [v for v, lab in labels.items() if lab == node.j]
            for x in side_i:
                for y in side_j:
                    edges.add((min(x, y), max(x, y)))
            return labels, edges
        # relabel i -> j
        for v, lab in labels.items():
            if lab == node.i:
                labels[v] = node.j
        return labels, edges

    labels, edges = build(expr.root)
    return LabeledGraph(labels=labels, edges=frozenset(edges))


def check_expression_matches(expr: CliqueExpression, inst: ConflictInstance) -> str | None:
    """None if the expression builds exactly the instance graph, else a report."""
    graph = evaluate_expression(expr)
    want_vertices = set(range(1, inst.n + 1))
    have_vertices = set(graph.labels)
    unknown = sorted(have_vertices - want_vertices)
    if unknown:
        return f"unknown vertex {unknown[0]} in expression"
    missing_v = sorted(want_vertices - have_vertices)
    if missing_v:
        return f"vertex {missing_v[0]} missing from expression"
    want_edges = {(u + 1, v + 1) for u, v in inst.edges}
    extra = sorted(graph.edges - want_edges)
    if extra:
        return f"expression adds edge {extra[0]} not in the instance"
    missing = sorted(want_edges - graph.edges)
    if missing:
        return f"expression misses instance edge {missing[0]}"
    return None


def _zero_key(k: int) -> LabelKey:
    return (0,) * k


def dp_node(
    node: ExprNode,
    child_tables: list[CwTable],
    inst: ConflictInstance,
    cap: int | None = None,
    prune: bool = False,
) -> CwTable:
    """Table of one expression node from its children's tables.

    Keys are per-agent label bitmasks; absent keys denote empty profile sets.
    """
    k = inst.k
    if isinstance(node, VertexNode):
        bit = 1 << (node.label - 1)
        v0 = node.vertex - 1
        raw: dict[LabelKey, set[Profile]] = {_zero_key(k): {(0,) * k}}
        for j in range(k):
            key = tuple(bit if idx == j else 0 for idx in range(k))
            profile = tuple(
                inst.profits[j][v0] if idx == j else 0 for idx in range(k)
            )
            raw.setdefault(key, set()).add(profile)
        return store_cells(k, raw, cap, prune)

    if isinstance(node, UnionNode):
        left, right = child_tables
        raw = {}
        for key1, set1 in left.items():
            for key2, set2 in right.items():
                key = tuple(a | b for a, b in zip(key1, key2))
                bucket = raw.setdefault(key, set())
                for q1 in set1:
                    for q2 in set2:
                        bucket.add(tuple(a + b for a, b in zip(q1, q2)))
        return store_cells(k, raw, cap, prune)

    if isinstance(node, EtaNode):
        (child,) = child_tables
        pair = (1 << (node.i - 1)) | (1 << (node.j - 1))
        raw = {
            key: profiles
            for key, profiles in child.items()
            if all((mask & pair) != pair for mask in key)
        }
        return store_cells(k, raw, cap, prune)

    if isinstance(node, RhoNode):
        (child,) = child_tables
        bit_i = 1 << (node.i - 1)
        bit_j = 1 << (node.j - 1)
        raw = {}
        for key, profiles in child.items():
            new_key = tuple(
                (mask & ~bit_i) | bit_j if mask & bit_i else mask for mask in key
            )
            raw.setdefault(new_key, set()).update(profiles)
        return store_cells(k, raw, cap, prune)

    raise TypeError(f"unknown node type {type(node).__name__}")


def cw_tables(
    inst: ConflictInstance,
    expr: CliqueExpression,
    cap: int | None = None,
    prune: bool = False,
    stats: dict | None = None,
) -> dict[int, CwTable]:
    """Every node's table, keyed by id(node), once the expression is checked."""
    mismatch = check_expression_matches(expr, inst)
    if mismatch is not None:
        raise ExpressionError(mismatch)
    return run_tables(
        expr.root,
        _children,
        lambda node, children: dp_node(node, children, inst, cap, prune),
        stats,
    )


def cliquewidth_profile_set(
    inst: ConflictInstance,
    expr: CliqueExpression,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set: union over all root label profiles."""
    tables = cw_tables(inst, expr, cap, stats=stats)
    return union_cells(inst.k, tables[id(expr.root)].values(), cap)


def solve_cliquewidth(
    inst: ConflictInstance,
    expr: CliqueExpression,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, profile, and a validated witness."""
    tables = cw_tables(inst, expr, cap, prune, stats)
    root_table = tables[id(expr.root)]
    optimum, profile = best_profile(union_cells(inst.k, root_table.values(), cap))

    classes: list[set[int]] = [set() for _ in range(inst.k)]

    def descend(node: ExprNode, key: LabelKey, target: Profile) -> None:
        table = tables[id(node)]
        if isinstance(node, VertexNode):
            for j, mask in enumerate(key):
                if mask:
                    classes[j].add(node.vertex - 1)
            return
        if isinstance(node, UnionNode):
            left, right = tables[id(node.left)], tables[id(node.right)]
            for key1 in sorted(left):
                for key2 in sorted(right):
                    if tuple(a | b for a, b in zip(key1, key2)) != key:
                        continue
                    for q1 in sorted(left[key1]):
                        q2 = tuple(t - a for t, a in zip(target, q1))
                        if all(x >= 0 for x in q2) and q2 in right[key2]:
                            descend(node.left, key1, q1)
                            descend(node.right, key2, q2)
                            return
            raise AssertionError("union decomposition lost the target profile")
        if isinstance(node, EtaNode):
            descend(node.child, key, target)
            return
        if isinstance(node, RhoNode):
            bit_i = 1 << (node.i - 1)
            bit_j = 1 << (node.j - 1)
            child = tables[id(node.child)]
            for child_key in sorted(child):
                mapped = tuple(
                    (m & ~bit_i) | bit_j if m & bit_i else m for m in child_key
                )
                if mapped == key and target in child[child_key]:
                    descend(node.child, child_key, target)
                    return
            raise AssertionError("relabel decomposition lost the target profile")
        raise TypeError(type(node).__name__)

    start_key = next(
        key for key in sorted(root_table) if profile in root_table[key]
    )
    descend(expr.root, start_key, profile)
    witness = tuple(frozenset(c) for c in classes)
    validate_coloring(inst, witness)
    return optimum, profile, witness

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
from operator import or_
from typing import Iterator, Union

from .model import Coloring, ConflictInstance, Profile, validate_coloring
from .profiles import (
    ProfileSet,
    Step,
    best_profile,
    build_table,
    encode,
    extract_coloring,
    post_order,
    run_tables,
    union_cells,
    unit_code,
)
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
_OPERATIONS = {"u": UnionNode, "eta": EtaNode, "rho": RhoNode}


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


def _walk(node: ExprNode) -> list[ExprNode]:
    return post_order(node, _children)


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

    # An open u/eta/rho node waits on the stack as (op, labels, children)
    # until its last child is parsed, so nesting depth is not bounded by the
    # recursion limit.
    stack: list[tuple[str, tuple[int, ...], list[ExprNode]]] = []
    while True:
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
        elif op in _OPERATIONS:
            labels: tuple[int, ...] = ()
            if op != "u":
                i, j = labels = (number(), number())
                if i < 1 or j < 1:
                    raise ExpressionError(f"label out of range in {op}")
                if i == j:
                    raise ExpressionError(f"{op} requires two distinct labels, got {i} twice")
            stack.append((op, labels, []))
            continue
        else:
            raise ExpressionError(f"unknown operation {op!r}")
        expect(")")
        # close every open node this one completes; the root closes the loop
        while stack:
            op, labels, children = stack[-1]
            children.append(node)
            if op == "u" and len(children) < 2:
                break
            stack.pop()
            node = _OPERATIONS[op](*labels, *children)
            expect(")")
        else:
            break
    root = node
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
    """Build the labeled graph an expression describes.

    Each subexpression's vertices are kept as lists per label, so a union,
    an edge-add or a relabel touches only the classes it names.
    """
    classes: dict[int, dict[int, list[int]]] = {}  # id(node) -> label -> vertices
    edges: set[tuple[int, int]] = set()
    for node in _walk(expr.root):
        if isinstance(node, VertexNode):
            classes[id(node)] = {node.label: [node.vertex]}
            continue
        if isinstance(node, UnionNode):
            mine = classes.pop(id(node.left))
            for label, vertices in classes.pop(id(node.right)).items():
                mine.setdefault(label, []).extend(vertices)
        else:
            mine = classes.pop(id(node.child))
        if isinstance(node, EtaNode):
            for x in mine.get(node.i, ()):
                for y in mine.get(node.j, ()):
                    edges.add((min(x, y), max(x, y)))
        elif isinstance(node, RhoNode):
            moved = mine.pop(node.i, [])
            mine.setdefault(node.j, []).extend(moved)
        classes[id(node)] = mine
    labels = {v: label for label, vertices in classes[id(expr.root)].items() for v in vertices}
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


def cw_steps(node: ExprNode, child_tables: list[CwTable], inst: ConflictInstance) -> Iterator[Step]:
    """The steps of one expression node (see profiles.Step) over its children's keys.

    Keys are per-agent label bitmasks.  A vertex leaves every agent's key
    empty (unassigned) or gives one agent its label and its profit; a union
    ORs one key of each side; an edge-add keeps the keys in which no agent
    holds both labels; a relabel moves label i to j in every mask.
    """
    k = inst.k
    if isinstance(node, VertexNode):
        bit = 1 << (node.label - 1)
        v0 = node.vertex - 1
        yield (0,) * k, (), 0, ()
        for j in range(k):
            key = tuple(bit if idx == j else 0 for idx in range(k))
            yield key, (), unit_code(k, j, inst.profits[j][v0]), ((v0, j),)
    elif isinstance(node, UnionNode):
        left, right = child_tables
        for key1 in left:
            for key2 in right:
                yield tuple(map(or_, key1, key2)), (key1, key2), 0, ()
    elif isinstance(node, EtaNode):
        pair = (1 << (node.i - 1)) | (1 << (node.j - 1))
        for key in child_tables[0]:
            if all((mask & pair) != pair for mask in key):
                yield key, (key,), 0, ()
    elif isinstance(node, RhoNode):
        bit_i = 1 << (node.i - 1)
        bit_j = 1 << (node.j - 1)
        for key in child_tables[0]:
            yield tuple((m & ~bit_i) | bit_j if m & bit_i else m for m in key), (key,), 0, ()
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")


def dp_node(
    node: ExprNode,
    child_tables: list[CwTable],
    inst: ConflictInstance,
    cap: int | None = None,
    prune: bool = False,
) -> CwTable:
    """Table of one expression node from its children's tables (see cw_steps)."""
    return build_table(inst.k, cw_steps(node, child_tables, inst), child_tables, cap, prune)


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

    target = encode(profile, inst.k)
    start_key = next(key for key in sorted(root_table) if target in root_table[key].codes)
    witness = extract_coloring(
        inst.k,
        expr.root,
        start_key,
        target,
        _children,
        lambda node, child_tables: cw_steps(node, child_tables, inst),
        tables,
    )
    validate_coloring(inst, witness)
    return optimum, profile, witness

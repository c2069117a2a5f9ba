"""Solver driven by a clique-width construction expression.

The input graph is described by an expression over four operations: create a
labeled vertex, take a disjoint union, add all edges between two label
classes, and relabel one class into another.  The dynamic program walks the
expression tree bottom-up; a state records, per agent, the set of live labels
(those an edge-add above still reads, see live_masks) occurring on that
agent's vertices, and maps it to the profiles attainable with exactly that
footprint.  Keys differing only in dead labels have one future, so one cell.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Union

from .model import Coloring, ConflictInstance, Profile, Record, validate_coloring
from .profiles import ProfileSet, Run, Step, Table, best_profile, encode, post_order, unit_code
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401


class ExpressionError(ValueError):
    """Malformed expression text or ill-formed operation arguments."""


class VertexNode(Record):
    __slots__ = _fields = ("label", "vertex")

    def __init__(self, label: int, vertex: int):
        self._assign(label, vertex)


class UnionNode(Record):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: ExprNode, right: ExprNode):
        self._assign(left, right)


class EtaNode(Record):
    __slots__ = _fields = ("i", "j", "child")

    def __init__(self, i: int, j: int, child: ExprNode):
        self._assign(i, j, child)


class RhoNode(Record):
    __slots__ = _fields = ("i", "j", "child")

    def __init__(self, i: int, j: int, child: ExprNode):
        self._assign(i, j, child)


ExprNode = Union[VertexNode, UnionNode, EtaNode, RhoNode]
_OPERATIONS = {"u": UnionNode, "eta": EtaNode, "rho": RhoNode}


class CliqueExpression(NamedTuple):
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
    the largest label used is taken.  Every other line whose first token
    starts with `c` is a comment, wherever it stands, as in the other file
    formats; no token of the grammar starts with `c`.  Vertex ids and
    labels are recorded as each node is built, so the tree is not walked;
    a duplicate vertex id is reported only once the text has parsed, and
    the label budget after that.
    """
    declared = None
    leading = True  # no expression line seen yet
    body = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts:
            continue
        if leading and parts[0] == "cw":
            if len(parts) != 2:
                raise ExpressionError(f"bad budget line: {raw.strip()!r}")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ExpressionError(f"bad budget line: {raw.strip()!r}")
            if declared < 1:
                raise ExpressionError("label budget must be positive")
            leading = False
        elif parts[0][0] != "c":
            leading = False
            body.append(raw)
    tokens = " ".join(body).replace("(", " ( ").replace(")", " ) ").split()
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
    seen_vertices: set[int] = set()
    duplicate = None  # the first vertex id met twice, in text order
    max_label = 0
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
            if vertex in seen_vertices and duplicate is None:
                duplicate = vertex
            seen_vertices.add(vertex)
            max_label = max(max_label, label)
            node: ExprNode = VertexNode(label=label, vertex=vertex)
        elif op in _OPERATIONS:
            labels: tuple[int, ...] = ()
            if op != "u":
                i, j = labels = (number(), number())
                if i < 1 or j < 1:
                    raise ExpressionError(f"label out of range in {op}")
                if i == j:
                    raise ExpressionError(f"{op} requires two distinct labels, got {i} twice")
                max_label = max(max_label, i, j)
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
    if pos != len(tokens):
        raise ExpressionError(f"trailing input after expression: {tokens[pos]!r}")
    if duplicate is not None:
        raise ExpressionError(f"duplicate vertex id {duplicate}")
    if declared is not None and max_label > declared:
        raise ExpressionError(f"label {max_label} exceeds the declared budget {declared}")
    return CliqueExpression(
        root=node,
        num_labels=declared if declared is not None else max_label,
        vertex_ids=frozenset(seen_vertices),
    )


class LabeledGraph(NamedTuple):
    """Evaluation result: 1-based vertex ids with labels, plus edges."""

    labels: dict[int, int]
    edges: frozenset[tuple[int, int]]


def evaluate_expression(expr: CliqueExpression, nodes: list | None = None) -> LabeledGraph:
    """Build the labeled graph an expression describes.

    nodes is the post-order of expr.root if the caller has walked it.  Each
    subexpression's vertices are kept as lists per label, so a union, an
    edge-add or a relabel touches only the classes it names.
    """
    classes: dict[int, dict[int, list[int]]] = {}  # id(node) -> label -> vertices
    edges: set[tuple[int, int]] = set()
    for node in _walk(expr.root) if nodes is None else nodes:
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


def check_expression_matches(
    expr: CliqueExpression, inst: ConflictInstance, nodes: list | None = None
) -> str | None:
    """None if the expression builds exactly the instance graph, else a report.

    nodes is the post-order of expr.root if the caller has walked it.
    """
    graph = evaluate_expression(expr, nodes)
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


def label_bits(nodes: list[ExprNode]) -> dict[int, int]:
    """Each label the nodes name -> 1 << its rank among them, its bit in a key's fields.

    nodes is every node of an expression, in any order.  So no label read
    from a file sizes an int.  The map is monotone, and on labels 1..l it is
    l -> 1 << (l - 1).
    """
    labels = set()
    for node in nodes:
        if isinstance(node, VertexNode):
            labels.add(node.label)
        elif isinstance(node, (EtaNode, RhoNode)):
            labels.update((node.i, node.j))
    return {label: 1 << rank for rank, label in enumerate(sorted(labels))}


def live_masks(nodes: list[ExprNode], bits: dict[int, int]) -> dict[int, int]:
    """id(node) -> the bits (see label_bits) of the labels an edge-add above it reads.

    nodes is the post-order of the expression, so reversed it lists every
    parent before its children.  Top-down: the root reads none, a union
    passes its mask to both children, an edge-add i j adds bits i and j, and
    a relabel i -> j clears bit i and sets it again only if label j is live
    above.
    """
    live = {id(nodes[-1]): 0}
    for node in reversed(nodes):
        mask = live[id(node)]
        if isinstance(node, UnionNode):
            live[id(node.left)] = live[id(node.right)] = mask
        elif isinstance(node, EtaNode):
            live[id(node.child)] = mask | bits[node.i] | bits[node.j]
        elif isinstance(node, RhoNode):
            i = bits[node.i]
            live[id(node.child)] = mask | i if mask & bits[node.j] else mask & ~i
    return live


def cw_steps(
    node: ExprNode, child_tables: list[Table], inst: ConflictInstance, bits: dict[int, int],
    live: int, shifts: range, ones: int,
) -> Iterator[Step]:
    """The steps of one expression node (see profiles.Step) over its children's keys.

    A key is one int of k fields of w = len(bits) bits, one label bitmask
    per agent, agent 1 in the top field, so the order of keys is the
    lexicographic order of their masks; label l is at bits[l] (see
    label_bits) in each field, and a key holds only the node's live labels
    (the mask live, see live_masks).  shifts is each field's shift, agent 1
    first.  With ones the int that has the lowest bit of each field set
    (cw_run computes both once per run), a step works on all agents at once
    (SWAR, Lamport 1975).  A vertex leaves every field empty (unassigned) or
    gives one agent its label, if live, and its profit; a union ORs one key of
    each side; an edge-add on labels at bit positions p_i and p_j keeps the
    keys with (key >> p_i) & (key >> p_j) & ones == 0, no agent holding
    both, and masks them with live * ones; a relabel i -> j moves bit p_i
    of each field to j's bit: (key >> p_i) & ones has at most the lowest
    bit of each field set, and multiplying it by a mask below 2**w carries
    into no other field.
    """
    if isinstance(node, VertexNode):
        bit = bits[node.label] & live
        v0 = node.vertex - 1
        yield 0, (), 0, ()
        for j, shift in enumerate(shifts):
            yield bit << shift, (), unit_code(inst.k, j, inst.profits[j][v0]), ((v0, j),)
    elif isinstance(node, UnionNode):
        left, right = child_tables
        for key1 in left:
            for key2 in right:
                yield key1 | key2, (key1, key2), 0, ()
    elif isinstance(node, EtaNode):
        p_i, p_j = bits[node.i].bit_length() - 1, bits[node.j].bit_length() - 1
        mask = live * ones
        for key in child_tables[0]:
            if not (key >> p_i) & (key >> p_j) & ones:
                yield key & mask, (key,), 0, ()
    elif isinstance(node, RhoNode):
        p_i = bits[node.i].bit_length() - 1
        keep, add = (live & ~bits[node.i]) * ones, live & bits[node.j]
        for key in child_tables[0]:
            yield key & keep | ((key >> p_i) & ones) * add, (key,), 0, ()
    else:
        raise TypeError(f"unknown node type {type(node).__name__}")


def dp_node(
    node: ExprNode, child_tables: list[Table], inst: ConflictInstance, run: Run,
    bits: dict[int, int], live: int, shifts: range, ones: int,
) -> Table:
    """Table of one expression node from its children's tables (see cw_steps)."""
    steps = cw_steps(node, child_tables, inst, bits, live, shifts, ones)
    return run.table(node, steps, child_tables)


def cw_run(inst: ConflictInstance, expr: CliqueExpression, run: Run) -> ProfileSet:
    """Every node's table, into run.tables, once the expression is checked; the root's union.

    The expression is walked once: the check, the label bits, the live
    masks and the DP all read that one post-order.
    """
    nodes = _walk(expr.root)
    mismatch = check_expression_matches(expr, inst, nodes)
    if mismatch is not None:
        raise ExpressionError(mismatch)
    bits = label_bits(nodes)
    live = live_masks(nodes, bits)
    shifts = range(len(bits) * (inst.k - 1), -1, -len(bits))  # each agent's field, agent 1 first
    ones = sum(1 << shift for shift in shifts)
    return run.root_set(
        nodes, _children,
        lambda n, tables: dp_node(n, tables, inst, run, bits, live[id(n)], shifts, ones),
    )


def cliquewidth_profile_set(
    inst: ConflictInstance,
    expr: CliqueExpression,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set: union over all root label profiles."""
    return cw_run(inst, expr, Run(inst.total_profits(), cap, stats=stats))


def solve_cliquewidth(
    inst: ConflictInstance,
    expr: CliqueExpression,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, profile, and a validated witness."""
    run = Run(inst.total_profits(), cap, prune, stats, walk=True)
    optimum, profile = best_profile(cw_run(inst, expr, run))
    witness = run.walk(expr.root, _children, encode(profile, inst.k))
    validate_coloring(inst, witness)
    return optimum, profile, witness

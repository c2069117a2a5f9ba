"""Shared test helpers: random families and independent cross-oracles.

Everything here stays deliberately independent of the solver code paths it
is used to check: the MIS enumerator recurses over vertices directly, the
consecutive-ones checker tries every column permutation, the
consecutive-ones search tries column groups left to right, and the random
families build graphs from raw edge lists.
"""
from __future__ import annotations

import itertools
import random

from fairkdiv.cliquewidth import (
    CliqueExpression,
    EtaNode,
    RhoNode,
    UnionNode,
    VertexNode,
    evaluate_expression,
)
from fairkdiv.convex import ConvexOrdering, validate_convex_ordering
from fairkdiv.model import ConflictInstance, InstanceFormatError, connected_components
from fairkdiv.bitgrid import Grid
from fairkdiv.profiles import ProfileSet


def random_instance(rng: random.Random, n: int, k: int, pmax: int, density: float = 0.4) -> ConflictInstance:
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    profits = [[rng.randint(0, pmax) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)


def random_edgeless_instance(rng: random.Random, n: int, k: int, pmax: int) -> ConflictInstance:
    profits = [[rng.randint(0, pmax) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n=n, k=k, edges=[], profits=profits)


def random_convex_instance(
    rng: random.Random, na: int, nb: int, k: int, pmax: int
) -> ConflictInstance:
    """Convex under the identity order: each B-vertex gets a random interval."""
    edges = []
    for b in range(nb):
        if na == 0:
            continue
        lo = rng.randint(1, na)
        hi = rng.randint(lo, na)
        for a in range(lo, hi + 1):
            edges.append((a - 1, na + b))
    profits = [[rng.randint(0, pmax) for _ in range(na + nb)] for _ in range(k)]
    return ConflictInstance.build(n=na + nb, k=k, edges=edges, profits=profits)


def enumerate_bag_colorings(inst: ConflictInstance, bag) -> list[tuple[int, ...]]:
    """All maps bag -> {0..k} whose positive classes are bag-independent.

    Returned tuples align with sorted(bag), in lexicographic order.
    """
    vertices = sorted(bag)
    adj = inst.adjacency()
    conflicts = [
        (i, j) for i, j in itertools.combinations(range(len(vertices)), 2)
        if vertices[j] in adj[vertices[i]]
    ]
    return [
        colors
        for colors in itertools.product(range(inst.k + 1), repeat=len(vertices))
        if not any(colors[i] and colors[i] == colors[j] for i, j in conflicts)
    ]


def mcs_by_scan(inst: ConflictInstance) -> list[int]:
    """Maximum cardinality search picking each vertex by a linear scan, O(n^2).

    The reference for treeindep.maximum_cardinality_search: an unvisited
    vertex of largest weight, the smallest id among ties.
    """
    adj = inst.adjacency()
    weight = [0] * inst.n
    visited = [False] * inst.n
    order = []
    for _ in range(inst.n):
        v = max(
            (x for x in range(inst.n) if not visited[x]),
            key=lambda x: (weight[x], -x),
        )
        visited[v] = True
        order.append(v)
        for w in adj[v]:
            if not visited[w]:
                weight[w] += 1
    return order


def maximal_cliques_by_brute_force(inst: ConflictInstance) -> set[frozenset[int]]:
    """Every maximal clique, found by testing each vertex subset (small n only)."""
    adj = inst.adjacency()
    cliques = [
        frozenset(c)
        for size in range(1, inst.n + 1)
        for c in itertools.combinations(range(inst.n), size)
        if all(b in adj[a] for a, b in itertools.combinations(c, 2))
    ]
    return {
        c for c in cliques
        if not any(c <= adj[w] for w in range(inst.n) if w not in c)
    }


def is_chordal_by_elimination(inst: ConflictInstance) -> bool:
    """Chordal iff simplicial vertices can be removed until none is left.

    A vertex is simplicial when its remaining neighbours form a clique
    (Fulkerson & Gross, 1965).
    """
    adj = inst.adjacency()
    left = set(range(inst.n))
    while left:
        simplicial = next(
            (
                v for v in left
                if all(b in adj[a] for a, b in itertools.combinations(adj[v] & left, 2))
            ),
            None,
        )
        if simplicial is None:
            return False
        left.remove(simplicial)
    return True


def _expression(rng: random.Random, max_leaves: int, num_labels: int, operate) -> CliqueExpression:
    """A random expression: unions split the leaf budget, and operate wraps every node."""
    counter = [0]

    def build(budget: int):
        if budget <= 1:
            counter[0] += 1
            node = VertexNode(label=rng.randint(1, num_labels), vertex=counter[0])
        else:
            split = rng.randint(1, budget - 1)
            node = UnionNode(build(split), build(budget - split))
        return operate(node)

    root = build(rng.randint(1, max_leaves))
    return CliqueExpression(
        root=root,
        num_labels=num_labels,
        vertex_ids=frozenset(range(1, counter[0] + 1)),
    )


def random_expression(rng: random.Random, max_leaves: int, num_labels: int) -> CliqueExpression:
    def operate(node):
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randint(1, num_labels), rng.randint(1, num_labels)
            if i == j:
                continue
            node = EtaNode(i, j, node) if rng.random() < 0.5 else RhoNode(i, j, node)
        return node

    return _expression(rng, max_leaves, num_labels, operate)


def dead_label_expression(rng: random.Random, max_leaves: int, num_labels: int) -> CliqueExpression:
    """A random expression with dead labels: no edge-add names the last label,
    and relabels come in chains of one to three.  Needs three labels or more.
    """
    def operate(node):
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.4:
                node = EtaNode(*rng.sample(range(1, num_labels), 2), node)
            else:
                for _ in range(rng.randint(1, 3)):
                    node = RhoNode(*rng.sample(range(1, num_labels + 1), 2), node)
        return node

    return _expression(rng, max_leaves, num_labels, operate)


def instance_for_expression(
    expr: CliqueExpression, rng: random.Random, k: int, pmax: int
) -> ConflictInstance:
    graph = evaluate_expression(expr)
    n = len(graph.labels)
    edges = [(u - 1, v - 1) for u, v in graph.edges]
    profits = [[rng.randint(0, pmax) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)


def whole_graph_expression(inst: ConflictInstance) -> CliqueExpression:
    """An n-label expression for an arbitrary graph: one label per vertex."""
    if inst.n == 0:
        raise ValueError("needs at least one vertex")
    node = VertexNode(label=1, vertex=1)
    for v in range(2, inst.n + 1):
        node = UnionNode(node, VertexNode(label=v, vertex=v))
    for u, v in inst.edges:
        node = EtaNode(u + 1, v + 1, node)
    return CliqueExpression(
        root=node,
        num_labels=inst.n,
        vertex_ids=frozenset(range(1, inst.n + 1)),
    )


def mis_weight(inst: ConflictInstance, weights: list[int]) -> int:
    """Maximum-weight independent set by direct recursion (cross-oracle)."""
    adj = inst.adjacency()

    def go(candidates: frozenset[int]) -> int:
        if not candidates:
            return 0
        v = min(candidates)
        skip = go(candidates - {v})
        take = weights[v] + go(candidates - {v} - adj[v])
        return max(skip, take)

    return go(frozenset(range(inst.n)))


def c1p_by_permutations(columns: list[int], rows: list[set[int]]) -> bool:
    """Exhaustive consecutive-ones check, usable up to ~7 columns."""
    for perm in itertools.permutations(columns):
        pos = {c: i for i, c in enumerate(perm)}
        if all(
            not r or max(pos[c] for c in r) - min(pos[c] for c in r) + 1 == len(r)
            for r in rows
        ):
            return True
    return False


def c1p_first_by_search(columns: list[int], rows: list[set[int]]) -> list[int] | None:
    """The lexicographically first consecutive-ones order, by exhaustive search.

    Columns with identical row membership form a group, numbered by least
    column.  Groups are placed left to right, smallest number first, and a
    step that strands a started but unfinished row is rejected; dead sets of
    placed groups are remembered.  The first complete placement is the
    lexicographically first valid group sequence; each group's columns are
    emitted sorted, then the columns in no row.  Exponential in the worst
    case, so only for small matrices.
    """
    columns = list(columns)
    col_set = set(columns)
    patterns: dict[int, set[int]] = {c: set() for c in columns}
    row_sets = []
    for row in rows:
        members = frozenset(row)
        if not members <= col_set:
            raise ValueError("row mentions a column outside the universe")
        row_sets.append(members)
    for idx, members in enumerate(row_sets):
        for c in members:
            patterns[c].add(idx)

    groups: dict[frozenset[int], list[int]] = {}
    for c in columns:
        groups.setdefault(frozenset(patterns[c]), []).append(c)
    free = sorted(groups.pop(frozenset(), []))
    group_keys = sorted(groups, key=lambda key: min(groups[key]))
    bit_of = {key: 1 << i for i, key in enumerate(group_keys)}

    row_masks = {
        sum(bit_of[key] for key in group_keys if groups[key][0] in members)
        for members in row_sets
    }
    full = (1 << len(group_keys)) - 1
    # rows spanning one group or the whole universe impose nothing
    constraints = [m for m in row_masks if m != full and m & (m - 1)]

    dead: set[int] = set()

    def search(placed: int) -> list[int] | None:
        if placed == full:
            return []
        if placed in dead:
            return None
        for i, key in enumerate(group_keys):
            bit = 1 << i
            if placed & bit:
                continue
            ok = True
            for mask in constraints:
                if mask & bit:
                    continue
                if mask & placed and mask & ~placed:
                    ok = False
                    break
            if ok:
                rest = search(placed | bit)
                if rest is not None:
                    return [i] + rest
        dead.add(placed)
        return None

    found = search(0)
    if found is None:
        return None
    order: list[int] = []
    for i in found:
        order.extend(sorted(groups[group_keys[i]]))
    order.extend(free)
    return order


def convex_ordering_by_search(inst: ConflictInstance) -> ConvexOrdering | None:
    """The ordering find_convex_ordering specifies, built on c1p_first_by_search.

    For bipartite instances.  Components in order of least vertex; an isolated vertex goes to A; the
    side holding a component's least vertex is tried as A first.
    """
    adj = inst.adjacency()
    a_order: list[int] = []
    b_side_all: list[int] = []
    for verts in connected_components(inst):
        if len(verts) == 1:
            a_order.append(verts[0])
            continue
        side = {verts[0]: 0}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
        first = sorted(v for v in verts if side[v] == 0)
        second = sorted(v for v in verts if side[v] == 1)
        for a_side, b_side in ((first, second), (second, first)):
            order = c1p_first_by_search(a_side, [set(adj[b]) for b in b_side])
            if order is not None:
                a_order.extend(order)
                b_side_all.extend(b_side)
                break
        else:
            return None
    return validate_convex_ordering(inst, a_order, b_side_all)


def shuffled_convex_instance(
    rng: random.Random, parts: list[tuple[int, int]], k: int, pmax: int
) -> ConflictInstance:
    """Disjoint convex parts (na, nb), each B-vertex on a random A-interval, ids permuted."""
    n = sum(na + nb for na, nb in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    base = 0
    for na, nb in parts:
        for b in range(nb):
            lo = rng.randrange(na)
            hi = rng.randrange(lo, na)
            edges.extend((perm[base + a], perm[base + na + b]) for a in range(lo, hi + 1))
        base += na + nb
    profits = [[rng.randint(0, pmax) for _ in range(n)] for _ in range(k)]
    return ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)


def check_result_schema(payload: dict, k: int) -> None:
    """Assert a solver JSON document matches the documented result schema."""
    assert isinstance(payload["optimum"], int)
    assert isinstance(payload["profile"], list) and len(payload["profile"]) == k
    assert all(isinstance(x, int) for x in payload["profile"])
    assert isinstance(payload["method"], str)
    stats = payload["stats"]
    assert isinstance(stats["elapsed-ms"], (int, float))
    assert isinstance(stats["dp-cells"], int)
    assert isinstance(stats["profiles-stored"], int)
    if "witness" in payload:
        witness = payload["witness"]
        assert isinstance(witness, list) and len(witness) == k
        for cls in witness:
            assert all(isinstance(v, int) and v >= 1 for v in cls)


def parse_instance_by_line(text: str) -> ConflictInstance:
    """The line-by-line .fkd parser that model.parse_instance replaced.

    The reference for model.parse_instance: an equal instance, or the same
    exception with the same message, on every input.
    """
    header: tuple[int, int, int] | None = None
    profits: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()

    def ints(parts: list[str], lineno: int) -> list[int]:
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise InstanceFormatError(f"expected integers, got {' '.join(parts)}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if header is not None:
                raise InstanceFormatError("duplicate header line", lineno)
            if len(parts) != 5 or parts[1] != "fkd":
                raise InstanceFormatError("header must be 'p fkd <n> <m> <k>'", lineno)
            n, m, k = ints(parts[2:], lineno)
            if n < 0 or m < 0 or k < 1:
                raise InstanceFormatError("header counts out of range", lineno)
            header = (n, m, k)
        elif tag == "w":
            if header is None:
                raise InstanceFormatError("weight line before header", lineno)
            n, m, k = header
            values = ints(parts[1:], lineno)
            if not values or values[0] != len(profits) + 1:
                raise InstanceFormatError(
                    f"expected weight line for agent {len(profits) + 1}", lineno
                )
            row = values[1:]
            if len(row) != n:
                raise InstanceFormatError(
                    f"agent {values[0]} has {len(row)} profits, expected {n}", lineno
                )
            if any(p < 0 for p in row):
                raise InstanceFormatError("negative profit", lineno)
            if len(profits) >= k:
                raise InstanceFormatError("more weight lines than agents", lineno)
            profits.append(tuple(row))
        elif tag == "e":
            if header is None:
                raise InstanceFormatError("edge line before header", lineno)
            n, m, k = header
            if len(profits) != k:
                raise InstanceFormatError("edge line before all weight lines", lineno)
            endpoints = ints(parts[1:], lineno)
            if len(endpoints) != 2:
                raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
            u, v = endpoints
            if u == v:
                raise InstanceFormatError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"edge ({u},{v}) out of range", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edge_set:
                raise InstanceFormatError(f"duplicate edge ({u},{v})", lineno)
            edge_set.add(key)
            edges.append(key)
        else:
            raise InstanceFormatError(f"unknown record '{tag}'", lineno)

    if header is None:
        raise InstanceFormatError("missing header line")
    n, m, k = header
    if n == 0 and not profits:
        profits = [()] * k
    if len(profits) != k:
        raise InstanceFormatError(f"expected {k} weight lines, found {len(profits)}")
    if len(edges) != m:
        raise InstanceFormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


# characters str.splitlines() breaks at, and one (\x1f) that is only whitespace
LINE_BREAKS = ("\f", "\r\n", "\v", "\x1c", "\x85", "\u2028", "\x1f")


def mutate_text(rng: random.Random, text: str, n: int) -> str:
    """One random edit of a line-based input file on n vertices.

    Drops, duplicates, swaps or blanks a line; replaces a token with -1, 0,
    n+1, x, +2 or 1_0, or inserts one of those or a copy of a token; inserts
    a line break or a comment line; flips an edge line's endpoints; or
    repeats an edge line elsewhere.
    """
    kind = rng.randrange(10)
    if kind == 0:
        pos = rng.randint(0, len(text))
        return text[:pos] + rng.choice(LINE_BREAKS) + text[pos:]
    lines = text.splitlines()
    if not lines:
        return "c empty\n"
    i = rng.randrange(len(lines))
    edge_lines = [j for j, line in enumerate(lines) if line.startswith("e ")]
    if kind == 1:
        del lines[i]
    elif kind == 2:
        lines.insert(i, lines[i])
    elif kind == 3:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 4:
        lines[i] = rng.choice(["", "  "])
    elif kind == 5:
        lines.insert(i, rng.choice(["c note", "  c indented note", "cx"]))
    elif kind == 6 and edge_lines:
        j = rng.choice(edge_lines)
        tag, *ends = lines[j].split()
        lines[j] = " ".join([tag] + ends[::-1])
    elif kind == 7 and edge_lines:
        lines.insert(i, lines[rng.choice(edge_lines)])
    else:
        tokens = lines[i].split()
        if tokens:
            t = rng.randrange(len(tokens))
            token = rng.choice(["-1", "0", str(n + 1), "x", "+2", "1_0"])
            if kind == 8:
                tokens[t] = token
            else:
                tokens.insert(rng.randint(1, len(tokens)), rng.choice([token, tokens[t]]))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + rng.choice(["\n", ""])


def expression_text(expr: CliqueExpression) -> str:
    """The `cw <l>` file text of a k-expression."""

    def text(node) -> str:
        if isinstance(node, VertexNode):
            return f"(v {node.label} {node.vertex})"
        if isinstance(node, UnionNode):
            return f"(u {text(node.left)} {text(node.right)})"
        op = "eta" if isinstance(node, EtaNode) else "rho"
        return f"({op} {node.i} {node.j} {text(node.child)})"

    return f"cw {expr.num_labels}\n{text(expr.root)}\n"


def on_grid(grid: Grid, pset: ProfileSet) -> ProfileSet:
    """pset held on grid, its bits set one member at a time from the profile tuples."""
    bits = 0
    for q in pset:
        assert all(0 <= x < radix for x, radix in zip(q, grid.radices)), f"{q} is off the grid"
        bits |= 1 << sum(x * stride for x, stride in zip(q, grid.strides))
    return grid.profile_set(bits)


def cw_key_masks(key: int, k: int, width: int) -> tuple[int, ...]:
    """The per-agent label masks of a clique-width DP key, agent 1 first.

    The key holds k fields of width bits, agent 1 in the top one; a bit above
    the top field is a malformed key.
    """
    assert 0 <= key < 1 << (width * k), f"key {key:#b} has bits outside {k} fields of {width}"
    return tuple((key >> (width * (k - 1 - j))) & ((1 << width) - 1) for j in range(k))


def tin_key_colors(key: int, k: int, size: int) -> tuple[int, ...]:
    """The bag coloring of a tree-independence DP key, aligned to the sorted bag.

    The key holds size digits of k.bit_length() bits, the first vertex in the
    top one; a bit above the top digit or a digit above k is a malformed key.
    """
    b = k.bit_length()
    assert 0 <= key < 1 << (b * size), f"key {key:#b} has bits outside {size} digits of {b}"
    colors = tuple((key >> (b * (size - 1 - i))) & ((1 << b) - 1) for i in range(size))
    assert max(colors, default=0) <= k, f"key {key:#b} has a color above {k}"
    return colors

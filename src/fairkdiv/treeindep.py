"""Solver driven by a tree decomposition of bounded independence number.

The decomposition's quality parameter here is not bag size but the largest
independent set inside any bag: each agent's class meets a bag in at most
that many vertices, so enumerating the per-bag colorings stays polynomial.
The decomposition is first normalized to leaf/introduce/forget/join nodes;
a state is a coloring of the current bag mapped to the profiles of all
colorings of the subtree's vertices agreeing with it.

Chordal graphs are the ell = 1 case: their clique trees (built here via
maximum cardinality search) have bags that are cliques.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, getitem
from typing import Iterable, Iterator

from .model import CapError, Coloring, ConflictInstance, Profile, validate_coloring
from .profiles import (
    ProfileSet,
    Step,
    best_profile,
    build_table,
    encode,
    extract_coloring,
    post_order,
    run_tables,
    unit_code,
)
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401

DEFAULT_ALPHA_NODE_CAP = 10**6

# coloring keys are tuples of colors (0 = uncolored) aligned to sorted(bag)
ColoringKey = tuple[int, ...]
TinTable = dict[ColoringKey, ProfileSet]


class DecompositionError(ValueError):
    """Structural or axiom failure of a tree decomposition."""


class AlphaCapError(CapError):
    """Bag independence-number search exceeded its node cap."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by id plus tree edges between bag ids; vertices 0-based."""

    n: int
    bags: dict[int, frozenset[int]]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ids = set(self.bags)
        for x, y in self.edges:
            if x not in ids or y not in ids:
                raise DecompositionError(f"tree edge ({x},{y}) references an unknown bag")
            if x == y:
                raise DecompositionError(f"tree self-loop at bag {x}")
        if ids:
            if len(self.edges) != len(ids) - 1:
                raise DecompositionError(
                    f"{len(ids)} bags need {len(ids) - 1} tree edges, found {len(self.edges)}"
                )
            seen = {min(ids)}
            frontier = [min(ids)]
            neigh: dict[int, list[int]] = {i: [] for i in ids}
            for x, y in self.edges:
                neigh[x].append(y)
                neigh[y].append(x)
            while frontier:
                x = frontier.pop()
                for y in neigh[x]:
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if seen != ids:
                raise DecompositionError("disconnected tree")

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1


def parse_tree_decomposition(text: str) -> TreeDecomposition:
    """Parse the PACE-style .td format.

    s td <num_bags> <max_bag_size> <n>; bag lines `b <id> <v...>`; remaining
    lines are tree edges `<id> <id>`; comments start with `c`.
    """
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise DecompositionError(f"line {lineno}: duplicate 's td' line")
            if len(parts) != 5 or parts[1] != "td":
                raise DecompositionError(f"line {lineno}: header must be 's td <bags> <size> <n>'")
            try:
                header = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise DecompositionError(f"line {lineno}: non-integer header field")
        elif parts[0] == "b":
            if header is None:
                raise DecompositionError(f"line {lineno}: bag line before header")
            try:
                values = [int(p) for p in parts[1:]]
            except ValueError:
                raise DecompositionError(f"line {lineno}: non-integer in bag line")
            if not values:
                raise DecompositionError(f"line {lineno}: bag line without id")
            bag_id = values[0]
            if bag_id in bags:
                raise DecompositionError(f"line {lineno}: duplicate bag id {bag_id}")
            n = header[2]
            for v in values[1:]:
                if not (1 <= v <= n):
                    raise DecompositionError(f"line {lineno}: vertex {v} out of range 1..{n}")
            bags[bag_id] = frozenset(v - 1 for v in values[1:])
        else:
            if header is None:
                raise DecompositionError(f"line {lineno}: edge line before header")
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise DecompositionError(f"line {lineno}: non-integer in tree edge line")
            if len(values) != 2:
                raise DecompositionError(f"line {lineno}: tree edge needs two bag ids")
            edges.append((values[0], values[1]))
    if header is None:
        raise DecompositionError("missing 's td' header")
    if header[0] != len(bags):
        raise DecompositionError(f"header declares {header[0]} bags, found {len(bags)}")
    return TreeDecomposition(n=header[2], bags=bags, edges=tuple(edges))


def serialize_tree_decomposition(td: TreeDecomposition) -> str:
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags.values()), default=0)} {td.n}"]
    for bag_id in sorted(td.bags):
        lines.append("b " + " ".join(str(x) for x in [bag_id] + sorted(v + 1 for v in td.bags[bag_id])))
    for x, y in td.edges:
        lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


def bag_independence_number(inst: ConflictInstance, bag: Iterable[int]) -> int:
    """Exact independence number of the induced bag subgraph (branch and bound)."""
    adj = inst.adjacency()
    nodes = [0]

    def alpha(vertices: frozenset[int]) -> int:
        nodes[0] += 1
        if nodes[0] > DEFAULT_ALPHA_NODE_CAP:
            raise AlphaCapError(f"bag independence search exceeded {DEFAULT_ALPHA_NODE_CAP} nodes")
        if not vertices:
            return 0
        v = max(vertices, key=lambda x: (len(adj[x] & vertices), -x))
        conflicts = adj[v] & vertices
        if not conflicts:
            # v has maximum degree, so the whole remainder is independent
            return len(vertices)
        return max(1 + alpha(vertices - {v} - conflicts), alpha(vertices - {v}))

    return alpha(frozenset(bag))


def validate_td(inst: ConflictInstance, td: TreeDecomposition) -> tuple[int, int]:
    """Check the three decomposition axioms; return (width, independence number).

    Axioms: every vertex in a bag, every edge inside a bag, and per-vertex
    bag sets connected in the tree.  One pass over the bags lists each
    vertex's holders, so an edge intersects two holder sets and a vertex's
    connectivity walk visits only its own holders.
    """
    if td.n != inst.n:
        raise DecompositionError(f"decomposition is for {td.n} vertices, instance has {inst.n}")
    holders: list[set[int]] = [set() for _ in range(inst.n)]
    for bag_id, bag in td.bags.items():
        for v in bag:
            if not (0 <= v < inst.n):
                raise DecompositionError(f"bag vertex {v + 1} out of range")
            holders[v].add(bag_id)
    missing = [v for v in range(inst.n) if not holders[v]]
    if missing:
        raise DecompositionError(f"axiom 1 violated: vertex {missing[0] + 1} is in no bag")
    for u, v in inst.edges:
        if holders[u].isdisjoint(holders[v]):
            raise DecompositionError(
                f"axiom 2 violated: edge ({u + 1},{v + 1}) is inside no bag"
            )
    neigh: dict[int, list[int]] = {i: [] for i in td.bags}
    for x, y in td.edges:
        neigh[x].append(y)
        neigh[y].append(x)
    for v in range(inst.n):
        start = min(holders[v])
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in neigh[x]:
                if y in holders[v] and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if seen != holders[v]:
            raise DecompositionError(
                f"axiom 3 violated: bags containing vertex {v + 1} are disconnected"
            )
    ell = 0
    for bag_id in sorted(td.bags):
        ell = max(ell, bag_independence_number(inst, td.bags[bag_id]))
    return td.width(), ell


@dataclass(eq=False)
class NiceNode:
    """One node of a normalized decomposition: leaf, introduce, forget, or join."""

    kind: str
    bag: frozenset[int]
    vertex: int | None = None
    children: tuple["NiceNode", ...] = ()

    def check(self) -> None:
        if self.kind == "leaf":
            assert not self.bag and not self.children
        elif self.kind == "introduce":
            (child,) = self.children
            assert self.vertex is not None and self.vertex not in child.bag
            assert self.bag == child.bag | {self.vertex}
        elif self.kind == "forget":
            (child,) = self.children
            assert self.vertex is not None and self.vertex in child.bag
            assert self.bag == child.bag - {self.vertex}
        elif self.kind == "join":
            first, second = self.children
            assert self.bag == first.bag == second.bag
        else:
            raise AssertionError(f"unknown node kind {self.kind}")


@dataclass(frozen=True)
class NiceTreeDecomposition:
    root: NiceNode

    def nodes(self) -> list[NiceNode]:
        """Post-order: children before parents."""
        return post_order(self.root, _children)


_children = attrgetter("children")


def _introduce_chain(base: NiceNode, vertices: Iterable[int]) -> NiceNode:
    node = base
    for v in sorted(vertices):
        node = NiceNode(kind="introduce", bag=node.bag | {v}, vertex=v, children=(node,))
    return node


def _forget_chain(base: NiceNode, vertices: Iterable[int]) -> NiceNode:
    node = base
    for v in sorted(vertices):
        node = NiceNode(kind="forget", bag=node.bag - {v}, vertex=v, children=(node,))
    return node


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize to leaf/introduce/forget/join nodes with an empty root bag.

    Rooted at the smallest bag id; every produced bag is a subset of some
    original bag, so the independence number cannot grow.
    """
    if not td.bags:
        return NiceTreeDecomposition(root=NiceNode(kind="leaf", bag=frozenset()))
    root_id = min(td.bags)
    neigh: dict[int, list[int]] = {i: [] for i in td.bags}
    for x, y in td.edges:
        neigh[x].append(y)
        neigh[y].append(x)

    def below(item: tuple[int, int | None]) -> list[tuple[int, int]]:
        bag_id, parent = item
        return [(c, bag_id) for c in sorted(neigh[bag_id]) if c != parent]

    built: dict[int, NiceNode] = {}
    for bag_id, parent in post_order((root_id, None), below):
        bag = td.bags[bag_id]
        children = [built.pop(c) for c, _ in below((bag_id, parent))]
        bridges = []
        # a bag without children grows from an empty leaf
        for child in children or [NiceNode(kind="leaf", bag=frozenset())]:
            lowered = _forget_chain(child, child.bag - bag)
            bridges.append(_introduce_chain(lowered, bag - lowered.bag))
        node = bridges[0]
        for other in bridges[1:]:
            node = NiceNode(kind="join", bag=bag, children=(node, other))
        built[bag_id] = node

    top = built[root_id]
    root = _forget_chain(top, top.bag)
    nice = NiceTreeDecomposition(root=root)
    for node in nice.nodes():
        node.check()
    return nice


def tin_steps(
    node: NiceNode, child_tables: list[TinTable], inst: ConflictInstance
) -> Iterator[Step]:
    """The steps of one nice node (see profiles.Step) over its children's keys.

    Keys are bag colorings aligned to sorted(bag).  Introduce extends a key
    by the vertex's color (any agent none of its colored bag neighbours
    has, or 0) and adds that agent's profit; forget drops the vertex's
    entry; join pairs equal keys and subtracts the bag's profits, which
    both sides count.
    """
    k = inst.k
    if node.kind == "leaf":
        yield (), (), 0, ()
    elif node.kind == "introduce":
        v = node.vertex
        pos = sorted(node.bag).index(v)
        adj_v = inst.adjacency()[v]
        neighbours = [i for i, w in enumerate(sorted(node.bag - {v})) if w in adj_v]
        colors = [(j + 1, (j + 1,), unit_code(k, j, inst.profits[j][v]), ((v, j),)) for j in range(k)]
        for child_key in child_tables[0]:
            head, tail, child_keys = child_key[:pos], child_key[pos:], (child_key,)
            used = {child_key[i] for i in neighbours}
            yield head + (0,) + tail, child_keys, 0, ()
            for color, entry, gain, assigned in colors:
                if color not in used:
                    yield head + entry + tail, child_keys, gain, assigned
    elif node.kind == "forget":
        pos = sorted(node.bag | {node.vertex}).index(node.vertex)
        for child_key in child_tables[0]:
            yield child_key[:pos] + child_key[pos + 1 :], (child_key,), 0, ()
    elif node.kind == "join":
        first, second = child_tables
        # the code of each bag vertex's profit, by color (0 for uncolored)
        gains = [
            (0, *(unit_code(k, j, inst.profits[j][v]) for j in range(k))) for v in sorted(node.bag)
        ]
        for key in first:
            if key in second:
                yield key, (key, key), -sum(map(getitem, gains, key)), ()
    else:
        raise AssertionError(f"unknown node kind {node.kind}")


def tin_dp_node(
    node: NiceNode,
    child_tables: list[TinTable],
    inst: ConflictInstance,
    cap: int | None = None,
    prune: bool = False,
) -> TinTable:
    """Table of one nice node from its children's tables."""
    return build_table(inst.k, tin_steps(node, child_tables, inst), child_tables, cap, prune)


def tin_tables(
    inst: ConflictInstance,
    nice: NiceTreeDecomposition,
    cap: int | None = None,
    prune: bool = False,
    stats: dict | None = None,
) -> dict[int, TinTable]:
    """Every nice node's table, keyed by id(node)."""
    return run_tables(
        nice.root,
        _children,
        lambda node, children: tin_dp_node(node, children, inst, cap, prune),
        stats,
    )


def tin_profile_set(
    inst: ConflictInstance,
    td: TreeDecomposition,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set via the root's empty-bag cell."""
    validate_td(inst, td)
    nice = make_nice(td)
    return tin_tables(inst, nice, cap, stats=stats)[id(nice.root)][()]


def solve_tin(
    inst: ConflictInstance,
    td: TreeDecomposition,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, profile, and a validated witness."""
    validate_td(inst, td)
    nice = make_nice(td)
    tables = tin_tables(inst, nice, cap, prune, stats)
    optimum, profile = best_profile(tables[id(nice.root)][()])
    witness = extract_coloring(
        inst.k,
        nice.root,
        (),
        encode(profile, inst.k),
        _children,
        lambda node, child_tables: tin_steps(node, child_tables, inst),
        tables,
    )
    validate_coloring(inst, witness)
    return optimum, profile, witness


def maximum_cardinality_search(inst: ConflictInstance) -> list[int]:
    """MCS visit order; its reverse is a perfect elimination order iff chordal."""
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


def clique_tree_of_chordal(inst: ConflictInstance) -> TreeDecomposition | None:
    """Clique-tree decomposition of a chordal instance, or None if not chordal.

    Bags are the maximal cliques, so every bag has independence number 1;
    the tree is a maximum-weight spanning tree of the clique intersection
    graph, which is a valid decomposition exactly for chordal graphs.
    """
    adj = inst.adjacency()
    order = maximum_cardinality_search(inst)
    position = {v: i for i, v in enumerate(order)}
    candidates: list[frozenset[int]] = []
    for v in order:
        earlier = frozenset(w for w in adj[v] if position[w] < position[v])
        for x in earlier:
            if not earlier - {x} <= adj[x]:
                return None
        candidates.append(earlier | {v})
    cliques: list[frozenset[int]] = []
    for cand in sorted(candidates, key=lambda c: (-len(c), sorted(c))):
        if not any(cand <= kept for kept in cliques):
            cliques.append(cand)
    cliques.sort(key=sorted)
    if not cliques:
        return TreeDecomposition(n=inst.n, bags={1: frozenset()}, edges=())
    bags = {i + 1: c for i, c in enumerate(cliques)}
    pairs = sorted(
        ((i, j) for i in bags for j in bags if i < j),
        key=lambda p: (-len(bags[p[0]] & bags[p[1]]), p),
    )
    parent = {i: i for i in bags}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    return TreeDecomposition(n=inst.n, bags=bags, edges=tuple(edges))

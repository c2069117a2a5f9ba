"""Solver driven by a tree decomposition of bounded independence number.

The decomposition's quality parameter here is not bag size but the largest
independent set inside any bag: each agent's class meets a bag in at most
that many vertices, so enumerating the per-bag colorings stays polynomial.
The solvers validate the decomposition as given, trim from its bags the
vertices that no edge there needs, and normalize the result to
leaf/introduce/forget/join nodes rooted at a leaf bag; a state is a
coloring of the current bag mapped to the profiles of all
colorings of the subtree's vertices agreeing with it.  A profile counts
only the subtree's vertices outside the bag: a vertex's profit is booked
when it is forgotten, so every step only adds.

Chordal graphs are the ell = 1 case: their clique trees (built in the
chordal module via maximum cardinality search) have bags that are cliques.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .model import CapError, Coloring, ConflictInstance, Profile, Record, validate_coloring
from .profiles import ProfileSet, Run, Step, Table, best_profile, encode, post_order, unit_code
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401

DEFAULT_ALPHA_NODE_CAP = 10**6


class DecompositionError(ValueError):
    """Structural or axiom failure of a tree decomposition."""


class AlphaCapError(CapError):
    """Bag independence-number search exceeded its node cap."""


class TreeDecomposition(Record):
    """Bags indexed by id plus tree edges between bag ids; vertices 0-based."""

    __slots__ = _fields = ("n", "bags", "edges")

    def __init__(
        self, n: int, bags: dict[int, frozenset[int]], edges: tuple[tuple[int, int], ...]
    ):
        ids = set(bags)
        for x, y in edges:
            if x not in ids or y not in ids:
                raise DecompositionError(f"tree edge ({x},{y}) references an unknown bag")
            if x == y:
                raise DecompositionError(f"tree self-loop at bag {x}")
        if ids:
            if len(edges) != len(ids) - 1:
                raise DecompositionError(
                    f"{len(ids)} bags need {len(ids) - 1} tree edges, found {len(edges)}"
                )
            if _reach(_tree_adjacency(ids, edges), ids) != ids:
                raise DecompositionError("disconnected tree")
        self._assign(n, bags, edges)

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1


def _tree_adjacency(ids: Iterable[int], edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Each bag id's tree neighbours, in edge order."""
    neigh: dict[int, list[int]] = {i: [] for i in ids}
    for x, y in edges:
        neigh[x].append(y)
        neigh[y].append(x)
    return neigh


def _reach(neigh: dict[int, list[int]], within: set[int]) -> set[int]:
    """The bags of within that the least one reaches through bags of within."""
    start = min(within)
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for y in neigh[x]:
            if y in within and y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def parse_tree_decomposition(text: str) -> TreeDecomposition:
    """Parse the PACE-style .td format.

    s td <num_bags> <max_bag_size> <n>, both matching the bags; bag lines
    `b <id> <distinct v...>`; remaining lines are tree edges `<id> <id>`;
    comments start with `c`.
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
            header_line = lineno
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
            bag: set[int] = set()
            for v in values[1:]:
                if not (1 <= v <= n):
                    raise DecompositionError(f"line {lineno}: vertex {v} out of range 1..{n}")
                if v - 1 in bag:
                    raise DecompositionError(f"line {lineno}: bag {bag_id} repeats vertex {v}")
                bag.add(v - 1)
            bags[bag_id] = frozenset(bag)
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
    largest = max(map(len, bags.values()), default=0)
    if header[1] != largest:
        raise DecompositionError(
            f"line {header_line}: header declares bag size {header[1]}, largest bag has {largest}"
        )
    return TreeDecomposition(n=header[2], bags=bags, edges=tuple(edges))


def serialize_tree_decomposition(td: TreeDecomposition) -> str:
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags.values()), default=0)} {td.n}"]
    for bag_id in sorted(td.bags):
        lines.append("b " + " ".join(str(x) for x in [bag_id] + sorted(v + 1 for v in td.bags[bag_id])))
    for x, y in td.edges:
        lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


def bag_independence_number(inst: ConflictInstance, bag: Iterable[int]) -> int:
    """Exact independence number of the induced bag subgraph (branch and reduce).

    Each search node first takes every vertex with at most one neighbour
    left and drops that neighbour: such a vertex is in some maximum
    independent set, as it can replace its neighbour in any.  It then
    branches on a vertex of maximum degree.  What the first reduction
    leaves is split into connected components, each searched on its own
    and their numbers added, so independent parts do not multiply each
    other's branches; the node cap counts the nodes of every search.
    """
    adj = inst.adjacency()
    nodes = 0

    def reduced(vertices: frozenset[int]) -> tuple[set[int], int, dict[int, int]]:
        # one search node: the vertices left, the number taken, their degrees
        nonlocal nodes
        nodes += 1
        if nodes > DEFAULT_ALPHA_NODE_CAP:
            raise AlphaCapError(f"bag independence search exceeded {DEFAULT_ALPHA_NODE_CAP} nodes")
        left = set(vertices)
        degree = {v: len(adj[v] & vertices) for v in vertices}
        low = [v for v, d in degree.items() if d <= 1]
        taken = 0
        while low:
            v = low.pop()
            if v in left:
                taken += 1
                left.discard(v)
                for w in adj[v] & left:
                    left.discard(w)
                    for x in adj[w] & left:
                        degree[x] -= 1
                        if degree[x] == 1:
                            low.append(x)
        return left, taken, degree

    rest, total, _ = reduced(frozenset(bag))
    while rest:
        part = [rest.pop()]
        for v in part:
            near = adj[v] & rest
            rest -= near
            part.extend(near)
        best = 0
        stack = [(frozenset(part), 0)]
        while stack:
            vertices, taken = stack.pop()
            left, gained, degree = reduced(vertices)
            taken += gained
            if not left:
                best = max(best, taken)
                continue
            v = max(left, key=lambda x: (degree[x], -x))
            others = frozenset(left) - {v}
            stack.append((others, taken))
            stack.append((others - adj[v], taken + 1))  # taking v is searched first
        total += best
    return total


def _holders(td: TreeDecomposition) -> list[set[int]]:
    """The ids of the bags that hold each vertex."""
    holders: list[set[int]] = [set() for _ in range(td.n)]
    for bag_id, bag in td.bags.items():
        for v in bag:
            if not (0 <= v < td.n):
                raise DecompositionError(f"bag vertex {v + 1} out of range")
            holders[v].add(bag_id)
    return holders


def validate_td(inst: ConflictInstance, td: TreeDecomposition) -> tuple[int, int]:
    """Check the three decomposition axioms; return (width, independence number).

    Axioms: every vertex in a bag, every edge inside a bag, and per-vertex
    bag sets connected in the tree.  One pass over the bags lists each
    vertex's holders, so an edge intersects two holder sets and a vertex's
    connectivity walk visits only its own holders.
    """
    if td.n != inst.n:
        raise DecompositionError(f"decomposition is for {td.n} vertices, instance has {inst.n}")
    holders = _holders(td)
    missing = [v for v in range(inst.n) if not holders[v]]
    if missing:
        raise DecompositionError(f"axiom 1 violated: vertex {missing[0] + 1} is in no bag")
    for u, v in inst.edges:
        if holders[u].isdisjoint(holders[v]):
            raise DecompositionError(f"axiom 2 violated: edge ({u + 1},{v + 1}) is inside no bag")
    neigh = _tree_adjacency(td.bags, td.edges)
    for v in range(inst.n):
        if _reach(neigh, holders[v]) != holders[v]:
            raise DecompositionError(
                f"axiom 3 violated: bags containing vertex {v + 1} are disconnected"
            )
    ell = max((bag_independence_number(inst, td.bags[b]) for b in sorted(td.bags)), default=0)
    return td.width(), ell


def trim_td(inst: ConflictInstance, td: TreeDecomposition) -> TreeDecomposition:
    """The decomposition with each bag vertex that no edge there needs removed.

    Vertex v leaves bag b when b is a leaf of v's holder subtree and every
    edge of v inside b is also inside b's neighbour there, the only other
    holder of v that can hold it, since holder sets are subtrees.  An edge
    that blocks the move lies in b alone and stays there, so one queue pass
    per vertex reaches the fixpoint.  Bag ids and tree edges are kept and
    bags only shrink, so the axioms hold and neither width nor ell grows.
    """
    bags = {bag_id: set(bag) for bag_id, bag in td.bags.items()}
    neigh = _tree_adjacency(td.bags, td.edges)
    adj = inst.adjacency()
    for v, held in enumerate(_holders(td)):
        if len(held) < 2:
            continue
        near = {b: [c for c in neigh[b] if c in held] for b in held}
        queue = sorted(b for b, cs in near.items() if len(cs) == 1)
        while queue:
            b = queue.pop()
            if len(near[b]) != 1:
                continue  # b is the last holder of v
            (c,) = near[b]
            if adj[v] & bags[b] <= bags[c]:
                bags[b].discard(v)
                near[c].remove(b)
                if len(near[c]) == 1:
                    queue.append(c)
    return TreeDecomposition(
        td.n, {bag_id: frozenset(bag) for bag_id, bag in bags.items()}, td.edges
    )


class NiceNode:
    """One node of a normalized decomposition: leaf, introduce, forget, or join.

    Nodes compare by identity.
    """

    __slots__ = ("kind", "bag", "vertex", "children")

    def __init__(
        self,
        kind: str,
        bag: frozenset[int],
        vertex: int | None = None,
        children: tuple[NiceNode, ...] = (),
    ):
        self.kind = kind
        self.bag = bag
        self.vertex = vertex
        self.children = children

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


class NiceTreeDecomposition(NamedTuple):
    root: NiceNode
    order: tuple[NiceNode, ...]  # post-order, walked once by make_nice

    def nodes(self) -> tuple[NiceNode, ...]:
        """Post-order: children before parents."""
        return self.order


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

    Rooted at the bag of least tree degree, ties to the smallest id: a leaf
    bag at the root saves the join and the leaf chain an inner root bag
    would add.  Every produced bag is a subset of some original bag, so the
    independence number cannot grow.
    """
    if not td.bags:
        leaf = NiceNode(kind="leaf", bag=frozenset())
        return NiceTreeDecomposition(root=leaf, order=(leaf,))
    neigh = _tree_adjacency(td.bags, td.edges)
    root_id = min(td.bags, key=lambda bag_id: (len(neigh[bag_id]), bag_id))

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
    order = tuple(post_order(root, _children))
    for node in order:
        node.check()
    return NiceTreeDecomposition(root=root, order=order)


def tin_steps(
    node: NiceNode, child_tables: list[Table], inst: ConflictInstance
) -> Iterator[Step]:
    """The steps of one nice node (see profiles.Step) over its children's keys.

    A key is a bag coloring packed into one int: one digit of
    b = k.bit_length() bits per vertex of sorted(bag), the first in the top
    digit, each a color (0 = uncolored) at most k < 2**b, so no digit spills
    into the next and the order of keys is the lexicographic order of the
    colorings.  Introduce opens a digit for the vertex, the digits above it
    shifted up by b, and fills it with any agent none of its colored bag
    neighbours has, or 0.  Forget reads the vertex's digit, closes it, and
    books the vertex's profit under its color, once per vertex, since a nice
    decomposition forgets each vertex exactly once.  Join pairs equal keys.
    No step subtracts.
    """
    b = inst.k.bit_length()
    digit = (1 << b) - 1
    if node.kind == "leaf":
        yield 0, (), 0, ()
    elif node.kind == "introduce":
        v = node.vertex
        bag = sorted(node.bag)
        low = b * (len(bag) - 1 - bag.index(v))  # the digits below v's
        below = (1 << low) - 1
        adj_v = inst.adjacency()[v]
        rest = [w for w in bag if w != v]
        neighbours = [b * (len(rest) - 1 - i) for i, w in enumerate(rest) if w in adj_v]
        for child_key in child_tables[0]:
            base, child_keys = (child_key >> low) << (low + b) | child_key & below, (child_key,)
            used = {(child_key >> shift) & digit for shift in neighbours}
            for color in range(inst.k + 1):
                if color == 0 or color not in used:
                    yield base | color << low, child_keys, 0, ()
    elif node.kind == "forget":
        v = node.vertex
        bag = sorted(node.bag | {v})
        low = b * (len(bag) - 1 - bag.index(v))
        below = (1 << low) - 1
        # the step of each color of v (0 for uncolored)
        booked = [(0, ())] + [
            (unit_code(inst.k, j, inst.profits[j][v]), ((v, j),)) for j in range(inst.k)
        ]
        for child_key in child_tables[0]:
            offset, assigned = booked[(child_key >> low) & digit]
            key = (child_key >> (low + b)) << low | child_key & below
            yield key, (child_key,), offset, assigned
    elif node.kind == "join":
        first, second = child_tables
        for key in first:
            if key in second:
                yield key, (key, key), 0, ()
    else:
        raise AssertionError(f"unknown node kind {node.kind}")


def tin_dp_node(
    node: NiceNode, child_tables: list[Table], inst: ConflictInstance, run: Run
) -> Table:
    """Table of one nice node from its children's tables (see tin_steps)."""
    return run.table(node, tin_steps(node, child_tables, inst), child_tables)


def tin_run(inst: ConflictInstance, nice: NiceTreeDecomposition, run: Run) -> ProfileSet:
    """Every nice node's table, into run.tables; the root's empty-bag cell."""
    return run.root_set(
        nice.nodes(), _children, lambda node, children: tin_dp_node(node, children, inst, run)
    )


def tin_profile_set(
    inst: ConflictInstance,
    td: TreeDecomposition,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set via the root's empty-bag cell."""
    validate_td(inst, td)
    nice = make_nice(trim_td(inst, td))
    return tin_run(inst, nice, Run(inst.total_profits(), cap, stats=stats))


def solve_tin(
    inst: ConflictInstance,
    td: TreeDecomposition,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, profile, and a validated witness."""
    validate_td(inst, td)
    nice = make_nice(trim_td(inst, td))
    run = Run(inst.total_profits(), cap, prune, stats, walk=True)
    optimum, profile = best_profile(tin_run(inst, nice, run))
    witness = run.walk(nice.root, _children, encode(profile, inst.k))
    validate_coloring(inst, witness)
    return optimum, profile, witness

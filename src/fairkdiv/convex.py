"""Solver for convex bipartite conflict graphs.

A bipartite graph G = (A ∪ B, E) is convex if A can be ordered so that every
B-vertex's neighborhood is an interval of consecutive A-vertices.  The solver
sweeps the graph in stages, one per distinct larger interval endpoint.  At
stage j it conditions on, per agent, the largest A-vertex assigned so far and
the smallest newly available B-vertex; under those guesses the remaining
candidates with positive adjusted profit form an independent set, so each
stage reduces to the edgeless enumeration.  Components are solved separately
and merged by vector addition.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .model import Coloring, ConflictInstance, Profile, connected_components, validate_coloring
from .profiles import (
    ProfileSet,
    Step,
    Table,
    best_profile,
    build_table,
    encode,
    extract_coloring,
    merge_profile_sets,
    run_tables,
    union_cells,
    unit_code,
)
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401


class OrderingError(ValueError):
    """The graph or a proposed ordering is not convex bipartite."""


@dataclass(frozen=True)
class ConvexOrdering:
    """A bipartition with an A-order under which B-neighborhoods are intervals.

    intervals maps each non-isolated B-vertex to (lo, hi), the 1-based
    positions in a_order of its first and last neighbor.
    """

    a_order: tuple[int, ...]
    b_vertices: tuple[int, ...]
    intervals: dict[int, tuple[int, int]]

    def position_of(self) -> dict[int, int]:
        return {a: i + 1 for i, a in enumerate(self.a_order)}


def validate_convex_ordering(
    inst: ConflictInstance,
    a_order: Sequence[int],
    b_vertices: Iterable[int],
) -> ConvexOrdering:
    """Check a bipartition and A-order, computing per-B interval endpoints."""
    a_list = tuple(a_order)
    b_set = frozenset(b_vertices)
    a_set = frozenset(a_list)
    if len(a_set) != len(a_list):
        raise OrderingError("A-order repeats a vertex")
    if a_set & b_set:
        overlap = min(a_set & b_set)
        raise OrderingError(f"vertex {overlap + 1} on both sides of the bipartition")
    if a_set | b_set != frozenset(range(inst.n)):
        missing = min(frozenset(range(inst.n)) - (a_set | b_set))
        raise OrderingError(f"vertex {missing + 1} is on neither side")
    pos = {a: i + 1 for i, a in enumerate(a_list)}
    for u, v in inst.edges:
        if u in a_set and v in a_set:
            raise OrderingError(f"edge ({u + 1},{v + 1}) inside the A side")
        if u in b_set and v in b_set:
            raise OrderingError(f"edge ({u + 1},{v + 1}) inside the B side")
    adj = inst.adjacency()
    intervals: dict[int, tuple[int, int]] = {}
    for b in sorted(b_set):
        positions = sorted(pos[a] for a in adj[b])
        if not positions:
            continue
        lo, hi = positions[0], positions[-1]
        if len(positions) != hi - lo + 1:
            have = set(positions)
            gap = next(p for p in range(lo, hi + 1) if p not in have)
            raise OrderingError(
                f"neighborhood of vertex {b + 1} is not an interval: "
                f"gap at position {gap} between positions {lo} and {hi}"
            )
        intervals[b] = (lo, hi)
    return ConvexOrdering(a_order=a_list, b_vertices=tuple(sorted(b_set)), intervals=intervals)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ordered_classes(rows: Sequence[int]) -> list[int] | None:
    """The classes of one overlap component in their forced order, or None.

    rows are masks over groups, listed so that each overlaps an earlier one.
    A class is a maximal set of groups lying in the same rows; in every order
    that makes the rows consecutive, the classes are consecutive and appear
    in this order or its reverse.  The classes are kept as a doubly linked
    list that each row refines: the classes it meets must form a run, only
    the run's two end classes may be split, and the row's groups outside the
    union so far become a new class at the end the run reaches.
    """
    members = [rows[0]]
    prv: list[int | None] = [None]
    nxt: list[int | None] = [None]
    class_of = dict.fromkeys(_bits(rows[0]), 0)
    union = rows[0]
    head = tail = 0

    def add_class(mask: int, left: int | None, right: int | None) -> None:
        nonlocal head, tail
        c = len(members)
        members.append(mask)
        prv.append(left)
        nxt.append(right)
        if left is None:
            head = c
        else:
            nxt[left] = c
        if right is None:
            tail = c
        else:
            prv[right] = c
        for x in _bits(mask):
            class_of[x] = c

    def split(c: int, row: int, inner_right: bool) -> None:
        # the part of c inside the row moves to a new class on the run's side
        inside = members[c] & row
        if inside != members[c]:
            members[c] &= ~row
            if inner_right:
                add_class(inside, c, nxt[c])
            else:
                add_class(inside, prv[c], c)

    for row in rows[1:]:
        hit = {class_of[x] for x in _bits(row & union)}
        # the classes the row meets are a run iff just one starts it
        run = [c for c in hit if prv[c] not in hit]
        if len(run) != 1:
            return None
        while nxt[run[-1]] in hit:
            run.append(nxt[run[-1]])
        if any(members[c] & ~row for c in run[1:-1]):
            return None
        outside = row & ~union
        to_left = False
        if outside:
            # the new class goes at an end of the list that the run reaches
            # with a class wholly inside the row, or with its only class
            single = len(run) == 1
            fits_right = nxt[run[-1]] is None and (single or not members[run[-1]] & ~row)
            fits_left = prv[run[0]] is None and (single or not members[run[0]] & ~row)
            if not (fits_right or fits_left):
                return None
            to_left = not fits_right
        if len(run) == 1:
            split(run[0], row, not to_left)
        else:
            split(run[0], row, True)
            split(run[-1], row, False)
        if outside:
            if to_left:
                add_class(outside, None, head)
            else:
                add_class(outside, tail, None)
            union |= outside
    order = []
    c: int | None = head
    while c is not None:
        order.append(members[c])
        c = nxt[c]
    return order


def consecutive_ones_order(
    columns: Sequence[int],
    rows: Iterable[Iterable[int]],
) -> list[int] | None:
    """Order the columns so every row becomes consecutive, or return None.

    Columns with identical row membership form a group, and groups are
    numbered by their least column.  The result is the lexicographically
    first sequence of group numbers under which every row is consecutive,
    with each group's columns sorted, followed by the columns in no row,
    sorted.

    The test is polynomial and iterative.  It follows the overlap-component
    form of the PQ-tree (Hsu, "A simple test for the consecutive ones
    property", J. Algorithms 2002; McConnell, "A certifying algorithm for the
    consecutive-ones property", SODA 2004).  Two rows overlap if they
    intersect and neither contains the other.  Each overlap component fixes
    the order of its classes up to reversal.  The components' unions nest,
    and a component lies inside one class of the smallest component around
    it, so each class holds the components nested directly in it and its
    loose groups, in any order.  The lexicographically first order sorts
    those members by the least group each can start with and turns every
    component so that its end with the smaller such group comes first.
    """
    columns = list(columns)
    col_set = set(columns)
    patterns: dict[int, list[int]] = {c: [] for c in columns}
    for idx, row in enumerate(rows):
        members = set(row)
        if not members <= col_set:
            raise ValueError("row mentions a column outside the universe")
        for c in members:
            patterns[c].append(idx)

    groups: dict[frozenset[int], list[int]] = {}
    for c in columns:
        groups.setdefault(frozenset(patterns[c]), []).append(c)
    free = sorted(groups.pop(frozenset(), []))
    keys = sorted(groups, key=lambda key: min(groups[key]))
    g = len(keys)
    full = (1 << g) - 1
    masks: dict[int, int] = {}
    for i, key in enumerate(keys):
        for idx in key:
            masks[idx] = masks.get(idx, 0) | 1 << i
    # rows within one group or covering all groups impose nothing
    row_masks = list(dict.fromkeys(m for m in masks.values() if m != full and m & (m - 1)))

    # overlap components, each row listed after one it overlaps
    position = {m: r for r, m in enumerate(row_masks)}
    rows_with = [0] * g
    for i, key in enumerate(keys):
        for idx in key:
            if masks[idx] in position:
                rows_with[i] |= 1 << position[masks[idx]]
    unseen = (1 << len(row_masks)) - 1
    components = []
    for start, first_row in enumerate(row_masks):
        if not unseen >> start & 1:
            continue
        unseen ^= 1 << start
        comp = [first_row]
        for row in comp:
            near = 0
            for x in _bits(row):
                near |= rows_with[x]
            for r in _bits(near & unseen):
                other = row_masks[r]
                if other & ~row and row & ~other:
                    unseen ^= 1 << r
                    comp.append(other)
        classes = _ordered_classes(comp)
        if classes is None:
            return None
        # the classes are disjoint, so their sum is the component's union
        components.append((sum(classes), len(comp) > 1, classes))

    # nest the components: a larger union first, a single row before a
    # component of several rows with the same union
    components.sort(key=lambda comp: (-comp[0].bit_count(), comp[1]))
    root = (-1, 0)
    nested: dict[tuple[int, int], list[int]] = {root: []}
    covered = {root: 0}
    innermost: dict[int, tuple[int, int]] = {}
    for j, (union, _, classes) in enumerate(components):
        slot = innermost.get((union & -union).bit_length() - 1, root)
        nested[slot].append(j)
        covered[slot] |= union
        for ci, cls in enumerate(classes):
            nested[j, ci] = []
            covered[j, ci] = 0
            for x in _bits(cls):
                innermost[x] = (j, ci)

    # node i < g is group i, node g + j is component j; first[node] is the
    # least group the node's part of the order can start with
    first = list(range(g)) + [0] * len(components)

    def slot_nodes(slot: tuple[int, int], mask: int) -> list[int]:
        nodes = [g + j for j in nested[slot]] + list(_bits(mask & ~covered[slot]))
        nodes.sort(key=first.__getitem__)
        return nodes

    # inner components first; each one's slots in the order it is emitted
    emitted: list[list[list[int]]] = [[] for _ in components]
    for j in range(len(components) - 1, -1, -1):
        slots = [slot_nodes((j, ci), cls) for ci, cls in enumerate(components[j][2])]
        start, end = first[slots[0][0]], first[slots[-1][0]]
        first[g + j] = min(start, end)
        emitted[j] = slots[::-1] if end < start else slots

    order: list[int] = []
    stack = slot_nodes(root, full)[::-1]
    while stack:
        node = stack.pop()
        if node < g:
            order.extend(sorted(groups[keys[node]]))
        else:
            for nodes in reversed(emitted[node - g]):
                stack.extend(reversed(nodes))
    order.extend(free)
    return order


def find_convex_ordering(
    inst: ConflictInstance,
    bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
) -> ConvexOrdering | None:
    """Find an A-order witnessing convexity, or return None.

    Each connected component is 2-colored in one search.  With no
    bipartition given, the side holding the component's least vertex is
    tried as A first, then the other side.  Raises OrderingError on
    non-bipartite input.
    """
    fixed_a: frozenset[int] | None = None
    if bipartition is not None:
        fixed_a = frozenset(bipartition[0])
        fixed_b = frozenset(bipartition[1])
        if fixed_a & fixed_b:
            overlap = min(fixed_a & fixed_b)
            raise OrderingError(f"vertex {overlap + 1} on both sides of the bipartition")
        if fixed_a | fixed_b != frozenset(range(inst.n)):
            missing = min(frozenset(range(inst.n)) - (fixed_a | fixed_b))
            raise OrderingError(f"vertex {missing + 1} is on neither side")
        for u, v in inst.edges:
            if (u in fixed_a) == (v in fixed_a):
                raise OrderingError(f"edge ({u + 1},{v + 1}) does not cross the bipartition")

    adj = inst.adjacency()
    color = [-1] * inst.n
    a_order: list[int] = []
    b_side_all: list[int] = []
    for start in range(inst.n):
        if color[start] >= 0:
            continue
        # start is the component's least vertex; its side gets color 0
        color[start] = 0
        comp = [start]
        for v in comp:
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    comp.append(w)
                elif color[w] == color[v]:
                    raise OrderingError("graph is not bipartite: odd cycle found")
        if len(comp) == 1:
            if fixed_a is not None and start not in fixed_a:
                b_side_all.append(start)
            else:
                a_order.append(start)
            continue
        comp.sort()
        if fixed_a is not None:
            first = [v for v in comp if v in fixed_a]
            candidates = [(first, [v for v in comp if v not in fixed_a])]
        else:
            first = [v for v in comp if not color[v]]
            second = [v for v in comp if color[v]]
            candidates = [(first, second), (second, first)]
        for a_side, b_side in candidates:
            order = consecutive_ones_order(a_side, [adj[b] for b in b_side])
            if order is not None:
                a_order.extend(order)
                b_side_all.extend(b_side)
                break
        else:
            return None
    return validate_convex_ordering(inst, a_order, b_side_all)


@dataclass(frozen=True)
class StageStructure:
    """B-order and stage boundaries for the connected solver.

    b_order sorts B by (larger endpoint, smaller endpoint, vertex id); u lists
    the distinct larger endpoints ascending; v[j] is how many B-vertices have
    their larger endpoint at most u[j].
    """

    b_order: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]


def stage_structure(co: ConvexOrdering) -> StageStructure:
    """Sort B and compute the stage boundary arrays (requires no isolated B)."""
    for b in co.b_vertices:
        if b not in co.intervals:
            raise ValueError(f"vertex {b + 1} is isolated; route it to the edgeless path")
    b_order = tuple(
        sorted(co.b_vertices, key=lambda b: (co.intervals[b][1], co.intervals[b][0], b))
    )
    u = tuple(sorted({co.intervals[b][1] for b in co.b_vertices}))
    v = []
    idx = 0
    for bound in u:
        while idx < len(b_order) and co.intervals[b_order[idx]][1] <= bound:
            idx += 1
        v.append(idx)
    return StageStructure(b_order=b_order, u=u, v=tuple(v))


# One agent's choice at a stage: (id of its profit column, code of the
# profits of its guessed A-vertex, if new, and of mu, the stage-position bit
# of mu, or 0 if it takes no new B-vertex, and the (vertex, agent) pairs of
# that A-vertex and mu).
Option = tuple[int, int, int, tuple[tuple[int, int], ...]]


class _Node:
    """One node of a component's DP tree.

    make turns the children's tables into the node's steps (see
    profiles.Step).  The forward pass keeps them in steps, and the witness
    walk reads them back instead of building them again.
    """

    __slots__ = ("make", "children", "steps")

    def __init__(self, make: Callable[[list[Table]], list[Step]], *children: _Node):
        self.make = make
        self.children = children
        self.steps: list[Step] = []


def _children(node: _Node) -> tuple[_Node, ...]:
    return node.children


def _kept_steps(node: _Node, child_tables: list[Table]) -> list[Step]:
    return node.steps


def _tables(
    k: int, root: _Node, cap: int | None, prune: bool, stats: dict | None
) -> dict[int, Table]:
    """Every node's table, keyed by id(node); each node keeps the steps it was built from."""

    def node_table(node: _Node, child_tables: list[Table]) -> Table:
        node.steps = node.make(child_tables)
        return build_table(k, node.steps, child_tables, cap, prune)

    return run_tables(root, _children, node_table, stats)


def _vertex_chain(
    k: int, vertices: Sequence[int], rows: Mapping[Hashable, Sequence[Sequence[int]]]
) -> _Node:
    """Each key's edgeless part, a subset-sum over vertices: a leaf, then one node per vertex.

    The leaf holds {0} under every key of rows.  rows[key][i] is each
    agent's profit for vertices[i] in that key's part, and the i-th node
    keeps every key with the vertex unassigned or given to one agent whose
    profit is positive.
    """

    def vertex_steps(i: int, vertex: int, child_tables: list[Table]) -> list[Step]:
        steps: list[Step] = []
        for key in child_tables[0]:
            child_keys = (key,)
            steps.append((key, child_keys, 0, ()))
            for agent, p in enumerate(rows[key][i]):
                if p > 0:
                    steps.append((key, child_keys, unit_code(k, agent, p), ((vertex, agent),)))
        return steps

    node = _Node(lambda child_tables: [(key, (), 0, ()) for key in rows])
    for i, vertex in enumerate(vertices):
        node = _Node(partial(vertex_steps, i, vertex), node)
    return node


def _guesses(upper: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every key of a stage whose largest A-position is upper: no nonzero entry repeats."""
    for combo in itertools.product(range(upper + 1), repeat=k):
        nonzero = [x for x in combo if x > 0]
        if len(nonzero) == len(set(nonzero)):
            yield combo


class _Stage:
    """One stage's profit columns and choices, and the steps of its node kinds.

    Stage j adds the A-positions (u_prev, u_cur] and the B-positions
    (v_prev, v_cur]; vertices lists them, A first, and a mask over their
    indices is a set of stage positions.  options[l][g] holds agent l's
    Options when it guesses g as its largest A-position so far: one per new
    B-position mu not adjacent to g, then one with no mu.  A column entry is
    zeroed wherever taking the vertex would contradict the guessed largest
    A-vertex, the guessed first new B-vertex, or adjacency to either.  The
    first stage has no earlier B-vertices to guard, so its only option has
    no mu and its B-vertices are not restricted by it.  Each column is built
    once per stage and interned.

    A choice is one Option per agent and the mask of the positions its guess
    and mu take.  Its rows are its columns side by side with the taken
    positions zeroed, so equal choices of different guesses share one part.
    A stage is four node kinds: pred_steps unions the previous cells that
    agree with each guess wherever it names a position already passed; a
    vertex chain builds every choice's edgeless part; shift_steps adds each
    choice's delta, the profits its guess and mu take, and colors those
    vertices; and stage_steps adds each guess's predecessor union to its
    shifted parts.
    """

    def __init__(self, dp: _ConnectedConvexDP, j: int):
        ss, k = dp.ss, dp.k
        self.j, self.k = j, k
        u_prev = self.u_prev = ss.u[j - 1] if j else 0
        a_pos = range(u_prev + 1, ss.u[j] + 1)
        b_pos = range(ss.v[j - 1] + 1 if j else 1, ss.v[j] + 1)
        na = self.na = len(a_pos)
        self.vertices = [dp.co.a_order[i - 1] for i in a_pos] + [ss.b_order[m - 1] for m in b_pos]
        b_iv = [dp.b_interval[m - 1] for m in b_pos]
        ids: dict[tuple[int, ...], int] = {}  # column -> its index in columns

        def intern(col: list[int]) -> int:
            return ids.setdefault(tuple(col), len(ids))

        options: list[list[list[Option]]] = []
        for l, profits in enumerate(dp.inst.profits):
            pa = [profits[v] for v in self.vertices[:na]]
            pb = [profits[v] for v in self.vertices[na:]]
            per_guess = []
            for g in range(ss.u[j] + 1):
                own = unit_code(k, l, pa[g - u_prev - 1]) if g > u_prev else 0
                own_pair = ((self.vertices[g - u_prev - 1], l),) if g > u_prev else ()
                free = [g == 0 or not lo <= g <= hi for lo, hi in b_iv]
                a_col = [p if i <= g else 0 for i, p in zip(a_pos, pa)]
                if not j:
                    b_col = [p if f else 0 for p, f in zip(pb, free)]
                    per_guess.append([(intern(a_col + b_col), own, 0, own_pair)])
                    continue
                opts = []
                for x, (lo, hi) in enumerate(b_iv):
                    if free[x]:
                        col = [0 if lo <= i <= hi else p for i, p in zip(a_pos, a_col)]
                        col += [p if y >= x and free[y] else 0 for y, p in enumerate(pb)]
                        code = own + unit_code(k, l, pb[x])
                        pairs = own_pair + ((self.vertices[na + x], l),)
                        opts.append((intern(col), code, 1 << na + x, pairs))
                opts.append((intern(a_col + [0] * len(pb)), own, 0, own_pair))
                per_guess.append(opts)
            options.append(per_guess)
        columns = list(ids)

        zero = (0,) * k
        self.rows: dict[tuple[tuple[Option, ...], int], list[tuple[int, ...]]] = {}
        self.shifts: list[Step] = []
        for guess in _guesses(ss.u[j], k):
            taken = sum(1 << g - u_prev - 1 for g in guess if g > u_prev)
            for combo in itertools.product(*map(list.__getitem__, options, guess)):
                drop, delta, assigned = taken, 0, ()
                for _, code, bit, pairs in combo:
                    if drop & bit:
                        break  # two agents start at the same B-vertex
                    drop |= bit
                    delta += code
                    assigned += pairs
                else:
                    choice = (combo, drop)
                    if choice not in self.rows:
                        rows = zip(*(columns[opt[0]] for opt in combo))
                        self.rows[choice] = [
                            zero if drop >> p & 1 else row for p, row in enumerate(rows)
                        ]
                    self.shifts.append((guess, (choice,), delta, assigned))
        self.weights: dict[tuple[int, ...], int] = {}
        self.ops = 0

    def key(self, guess: tuple[int, ...]) -> tuple[int, ...]:
        """The guess's decided entries, -1 where it names a new A-vertex."""
        return tuple(g if g <= self.u_prev else -1 for g in guess)

    def pred_steps(self, child_tables: list[Table]) -> list[Step]:
        """Each previous cell into every key that hides at most na of its entries.

        Every such key is the key of some guess, which names distinct new
        A-positions in the hidden entries.  The first stage extends the
        empty prefix: a leaf whose every cell is {0}.
        """
        taus = child_tables[0] if child_tables else [(0,) * self.k]
        hidden = [h for h in itertools.product((False, True), repeat=self.k) if sum(h) <= self.na]
        return [
            (tuple(-1 if x else t for t, x in zip(tau, h)), (tau,) if child_tables else (), 0, ())
            for tau in taus
            for h in hidden
        ]

    def shift_steps(self, child_tables: list[Table]) -> list[Step]:
        """Each choice's part, moved by its delta into its guess's cell.

        Also weighs each guess for profile-ops: the size of its parts, each
        times its residual row count at the first stage, whose pred is {0}.
        """
        parts = child_tables[0]
        for guess, (choice,), _, _ in self.shifts:
            rows = 1 if self.j else len(self.vertices) - choice[1].bit_count()
            self.weights[guess] = self.weights.get(guess, 0) + rows * len(parts[choice])
        return self.shifts

    def stage_steps(self, child_tables: list[Table]) -> list[Step]:
        """pred ⊕ ∪_mu (part_mu + delta_mu) per guess that has a predecessor.

        Vector addition distributes over union, so each guess merges its
        predecessor union once with its shifted parts.  profile-ops counts
        |pred| * |part_mu| per mu, the work of merging per mu.
        """
        pred, shifted = child_tables
        steps: list[Step] = []
        for guess in shifted:
            key = self.key(guess)
            if key in pred:
                steps.append((guess, (key, guess), 0, ()))
                self.ops += len(pred[key]) * self.weights[guess]
        return steps


class _ConnectedConvexDP:
    """The stage tables of one connected component, as a tree of node kinds.

    Stage j's node has a predecessor-union child, over stage j - 1's node,
    and a shift child over its vertex chain; tables holds the stage nodes'
    tables and node_tables every node's.
    """

    def __init__(
        self,
        inst: ConflictInstance,
        co: ConvexOrdering,
        cap: int | None = None,
        prune: bool = False,
        stats: dict | None = None,
    ):
        if inst.n < 2 or not inst.edges:
            raise ValueError("connected solver needs at least one edge")
        self.inst = inst
        self.co = co
        self.cap = cap
        self.prune = prune
        self.stats = stats if stats is not None else {}
        self.k = inst.k
        self.ss = stage_structure(co)
        if self.ss.u[-1] != len(co.a_order) or self.ss.v[-1] != len(co.b_vertices):
            raise ValueError("ordering does not describe a connected graph")
        # (lo, hi) per b_order position, 1-based
        self.b_interval = [co.intervals[b] for b in self.ss.b_order]
        self.stages = [_Stage(self, j) for j in range(len(self.ss.u))]
        self.stage_nodes: list[_Node] = []
        for stage in self.stages:
            pred = _Node(stage.pred_steps, *self.stage_nodes[-1:])
            shift = _Node(stage.shift_steps, _vertex_chain(self.k, stage.vertices, stage.rows))
            self.stage_nodes.append(_Node(stage.stage_steps, pred, shift))
        self.root = self.stage_nodes[-1]
        self.tables: list[Table] = []
        self.node_tables: dict[int, Table] = {}

    def run(self) -> ProfileSet:
        """Build every node's table; the result is the union of the last stage's cells."""
        self.node_tables = _tables(self.k, self.root, self.cap, self.prune, self.stats)
        self.tables = [self.node_tables[id(node)] for node in self.stage_nodes]
        ops = sum(stage.ops for stage in self.stages)
        self.stats["profile-ops"] = self.stats.get("profile-ops", 0) + ops
        return union_cells(self.k, self.tables[-1].values(), self.cap, self.prune)


def solve_connected_convex(
    inst: ConflictInstance,
    co: ConvexOrdering,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Full profile set of one connected convex bipartite instance."""
    return _ConnectedConvexDP(inst, co, cap=cap, stats=stats).run()


def _restrict_ordering(co: ConvexOrdering, vertices: set[int], mapping: dict[int, int],
                       sub: ConflictInstance) -> ConvexOrdering:
    a_sub = [mapping[a] for a in co.a_order if a in vertices]
    b_sub = [mapping[b] for b in co.b_vertices if b in vertices]
    return validate_convex_ordering(sub, a_sub, b_sub)


def _merged_components(
    inst: ConflictInstance,
    ordering: ConvexOrdering | None,
    cap: int | None,
    prune: bool,
    stats: dict | None,
):
    """Per-component profile sets and their running vector-sum merges.

    Each part carries its DP tree's root and tables for the witness walk;
    an edgeless component is a vertex chain under the one key ().  The last
    running merge is the profile set of the whole instance.
    """
    co = ordering if ordering is not None else find_convex_ordering(inst)
    if co is None:
        raise OrderingError("graph admits no convex bipartite ordering")
    parts = []
    for comp in connected_components(inst):
        sub = comp.instance
        if not sub.edges:
            rows = [tuple(sub.profits[j][v] for j in range(sub.k)) for v in range(sub.n)]
            root = _vertex_chain(sub.k, range(sub.n), {(): rows})
            tables = _tables(sub.k, root, cap, prune, stats)
            pset = tables[id(root)][()]
        else:
            mapping = comp.to_sub()
            sub_co = _restrict_ordering(co, set(comp.vertices), mapping, sub)
            dp = _ConnectedConvexDP(sub, sub_co, cap=cap, prune=prune, stats=stats)
            pset = dp.run()
            root, tables = dp.root, dp.node_tables
        parts.append((comp, pset, root, tables))
    running = [ProfileSet.zero(inst.k)]
    for _, pset, _, _ in parts:
        running.append(merge_profile_sets(running[-1], pset, cap=cap))
    return parts, running


def convex_profile_set(
    inst: ConflictInstance,
    ordering: ConvexOrdering | None = None,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set of a convex bipartite instance (no pruning)."""
    return _merged_components(inst, ordering, cap, False, stats)[1][-1]


def _witness(k: int, parts: list, running: list[ProfileSet], target: int) -> Coloring:
    """A coloring whose profile is the code target, a member of running[-1].

    The target is split over the components from the last one back, at
    each component's smallest member that leaves a member of the running
    merge before it (a difference with a negative field is no member, see
    profiles.extract_coloring), and each component's share is walked back
    through its DP tree.
    """
    classes: list[set[int]] = [set() for _ in range(k)]
    for idx in range(len(parts) - 1, -1, -1):
        comp, pset, root, tables = parts[idx]
        share = next((q for q in sorted(pset.codes) if target - q in running[idx].codes), None)
        if share is None:
            raise AssertionError("component decomposition lost the target profile")
        target -= share
        root_table = tables[id(root)]
        key = next(key for key in sorted(root_table) if share in root_table[key].codes)
        sub_witness = extract_coloring(k, root, key, share, _children, _kept_steps, tables)
        for agent, members in enumerate(sub_witness):
            classes[agent].update(comp.to_parent[v] for v in members)
    return tuple(frozenset(c) for c in classes)


def solve_convex(
    inst: ConflictInstance,
    ordering: ConvexOrdering | None = None,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, its profile, and a validated witness."""
    parts, running = _merged_components(inst, ordering, cap, prune, stats)
    optimum, profile = best_profile(running[-1])
    witness = _witness(inst.k, parts, running, encode(profile, inst.k))
    validate_coloring(inst, witness)
    return optimum, profile, witness

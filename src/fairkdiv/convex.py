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
from typing import Iterable, Iterator, Sequence

from .model import Coloring, ConflictInstance, Profile, connected_components, validate_coloring
from .profiles import (
    ProfileSet,
    add_sums,
    best_profile,
    count_table,
    dominance_prune,
    edgeless_assignment,
    edgeless_profiles_unchecked,
    encode,
    merge_profile_sets,
    store_cells,
    union_cells,
)


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


INF = None  # sentinel for "agent takes no new B-vertex this stage"


class _ConnectedConvexDP:
    """Stage tables and witness extraction for one connected component."""

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
        self.s = len(co.a_order)
        self.t = len(co.b_vertices)
        if self.ss.u[-1] != self.s or self.ss.v[-1] != self.t:
            raise ValueError("ordering does not describe a connected graph")
        # (lo, hi) per b_order position, 1-based
        self.b_interval = [co.intervals[b] for b in self.ss.b_order]
        self.tables: list[dict[tuple[int, ...], ProfileSet]] = []

    def _a_vertex(self, i: int) -> int:
        return self.co.a_order[i - 1]

    def _b_vertex(self, m: int) -> int:
        return self.ss.b_order[m - 1]

    def _adjacent(self, a_pos: int, b_pos: int) -> bool:
        lo, hi = self.b_interval[b_pos - 1]
        return lo <= a_pos <= hi

    def _profit_a(self, agent: int, a_pos: int) -> int:
        return self.inst.profits[agent][self._a_vertex(a_pos)]

    def _profit_b(self, agent: int, b_pos: int) -> int:
        return self.inst.profits[agent][self._b_vertex(b_pos)]

    def _guesses(self, upper: int):
        for combo in itertools.product(range(upper + 1), repeat=self.k):
            nonzero = [x for x in combo if x > 0]
            if len(nonzero) == len(set(nonzero)):
                yield combo

    def _m_candidates(self, guess: tuple[int, ...], v_prev: int, v_cur: int) -> list[list[int | None]]:
        cands: list[list[int | None]] = []
        for i_l in guess:
            options: list[int | None] = [
                m
                for m in range(v_prev + 1, v_cur + 1)
                if i_l == 0 or not self._adjacent(i_l, m)
            ]
            options.append(INF)
            cands.append(options)
        return cands

    def _stage_rows(
        self,
        guess: tuple[int, ...],
        mu: tuple[int | None, ...],
        u_prev: int,
        u_cur: int,
        v_prev: int,
        v_cur: int,
        restrict_b: bool = True,
    ) -> list[tuple[str, int, tuple[int, ...]]]:
        """Vertices of the stage's residual graph with adjusted profits.

        Each entry is (kind, position, per-agent profits); profits are zeroed
        wherever taking the vertex would contradict the guessed largest
        A-vertex, the guessed first new B-vertex, or adjacency to either.
        The first stage has no earlier B-vertices to guard, so it skips the
        first-new-B restriction (restrict_b=False).
        """
        taken_a = {i for i in guess if i > u_prev}
        taken_b = {m for m in mu if m is not INF}
        rows = []
        for i in range(u_prev + 1, u_cur + 1):
            if i in taken_a:
                continue
            per_agent = []
            for l in range(self.k):
                i_l, m_l = guess[l], mu[l]
                if i > max(i_l, u_prev):
                    per_agent.append(0)
                elif m_l is not INF and self._adjacent(i, m_l):
                    per_agent.append(0)
                else:
                    per_agent.append(self._profit_a(l, i))
            rows.append(("a", i, tuple(per_agent)))
        for m in range(v_prev + 1, v_cur + 1):
            if m in taken_b:
                continue
            per_agent = []
            for l in range(self.k):
                i_l, m_l = guess[l], mu[l]
                if restrict_b and (m_l is INF or m < m_l):
                    per_agent.append(0)
                elif i_l > 0 and self._adjacent(i_l, m):
                    per_agent.append(0)
                else:
                    per_agent.append(self._profit_b(l, m))
            rows.append(("b", m, tuple(per_agent)))
        return rows

    def _delta(
        self, guess: tuple[int, ...], mu: tuple[int | None, ...], u_prev: int
    ) -> Profile:
        out = []
        for l in range(self.k):
            d = 0
            if guess[l] > u_prev:
                d += self._profit_a(l, guess[l])
            if mu[l] is not INF:
                d += self._profit_b(l, mu[l])
            out.append(d)
        return tuple(out)

    def _predecessors(self, guess: tuple[int, ...], u_prev: int, table: dict):
        """Previous-stage guesses consistent with the current one.

        Coordinates already decided at the previous stage (guess <= u_prev)
        must match; coordinates pointing at a new A-vertex are unconstrained.
        """
        for tau in table:
            if all(t == g for t, g in zip(tau, guess) if g <= u_prev):
                yield tau

    def run(self) -> ProfileSet:
        prev: dict[tuple[int, ...], ProfileSet] = {}
        u_prev = v_prev = 0
        for j in range(len(self.ss.u)):
            u_cur, v_cur = self.ss.u[j], self.ss.v[j]
            raw: dict[tuple[int, ...], set[int]] = {}
            for guess in self._guesses(u_cur):
                if j == 0:
                    mu0 = (INF,) * self.k
                    rows = self._stage_rows(guess, mu0, 0, u_cur, 0, v_cur, restrict_b=False)
                    base = edgeless_profiles_unchecked(self.k, [r[2] for r in rows], cap=self.cap)
                    self.stats["profile-ops"] = self.stats.get("profile-ops", 0) + len(
                        rows
                    ) * len(base)
                    delta = encode(self._delta(guess, mu0, 0), self.k)
                    cell = add_sums(set(), base.codes, (delta,), cap=self.cap)
                else:
                    pred_union: set[int] = set()
                    for tau in self._predecessors(guess, u_prev, prev):
                        pred_union.update(prev[tau].codes)
                    pred = ProfileSet.from_codes(self.k, pred_union)
                    cell = set()
                    for mu in itertools.product(
                        *self._m_candidates(guess, v_prev, v_cur)
                    ):
                        finite = [m for m in mu if m is not INF]
                        if len(finite) != len(set(finite)):
                            continue
                        rows = self._stage_rows(guess, mu, u_prev, u_cur, v_prev, v_cur)
                        part = edgeless_profiles_unchecked(
                            self.k, [r[2] for r in rows], cap=self.cap
                        )
                        self.stats["profile-ops"] = self.stats.get("profile-ops", 0) + len(
                            pred
                        ) * len(part)
                        combined = merge_profile_sets(pred, part, cap=self.cap)
                        delta = encode(self._delta(guess, mu, u_prev), self.k)
                        add_sums(cell, combined.codes, (delta,), cap=self.cap)
                raw[guess] = cell
            cur = store_cells(self.k, raw, self.cap, self.prune)
            count_table(self.stats, cur)
            self.tables.append(cur)
            prev = cur
            u_prev, v_prev = u_cur, v_cur
        return union_cells(self.k, prev.values(), self.cap, self.prune)

    def extract(self, target: Profile) -> list[set[int]]:
        """Backward walk recovering one coloring with the target profile."""
        final = self.tables[-1]
        start = next(
            g for g in sorted(final) if target in final[g]
        )
        classes: list[set[int]] = [set() for _ in range(self.k)]
        guess, want = start, target
        for j in range(len(self.ss.u) - 1, 0, -1):
            u_cur, v_cur = self.ss.u[j], self.ss.v[j]
            u_prev, v_prev = self.ss.u[j - 1], self.ss.v[j - 1]
            prev_table = self.tables[j - 1]
            found = None
            for mu in itertools.product(*self._m_candidates(guess, v_prev, v_cur)):
                finite = [m for m in mu if m is not INF]
                if len(finite) != len(set(finite)):
                    continue
                delta = self._delta(guess, mu, u_prev)
                rest = tuple(w - d for w, d in zip(want, delta))
                if any(x < 0 for x in rest):
                    continue
                rows = self._stage_rows(guess, mu, u_prev, u_cur, v_prev, v_cur)
                part = edgeless_profiles_unchecked(self.k, [r[2] for r in rows], cap=self.cap)
                for q_new in part.sorted_profiles():
                    q_old = tuple(r - x for r, x in zip(rest, q_new))
                    if any(x < 0 for x in q_old):
                        continue
                    for tau in sorted(self._predecessors(guess, u_prev, prev_table)):
                        if q_old in prev_table[tau]:
                            found = (mu, rows, q_new, tau, q_old)
                            break
                    if found:
                        break
                if found:
                    break
            if found is None:
                raise AssertionError("stage decomposition lost the target profile")
            mu, rows, q_new, tau, q_old = found
            self._record_stage(classes, guess, mu, rows, q_new, u_prev)
            guess, want = tau, q_old
        mu0 = (INF,) * self.k
        rows = self._stage_rows(guess, mu0, 0, self.ss.u[0], 0, self.ss.v[0], restrict_b=False)
        q_new = tuple(w - d for w, d in zip(want, self._delta(guess, mu0, 0)))
        self._record_stage(classes, guess, mu0, rows, q_new, 0)
        return classes

    def _record_stage(
        self,
        classes: list[set[int]],
        guess: tuple[int, ...],
        mu: tuple[int | None, ...],
        rows: list[tuple[str, int, tuple[int, ...]]],
        q_new: Profile,
        u_prev: int,
    ) -> None:
        for l in range(self.k):
            if guess[l] > u_prev:
                classes[l].add(self._a_vertex(guess[l]))
            if mu[l] is not INF:
                classes[l].add(self._b_vertex(mu[l]))
        assignment = edgeless_assignment(self.k, [r[2] for r in rows], q_new)
        for (kind, pos, _), agent in zip(rows, assignment):
            if agent > 0:
                vertex = self._a_vertex(pos) if kind == "a" else self._b_vertex(pos)
                classes[agent - 1].add(vertex)


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

    Each part carries the hooks witness extraction needs; the last running
    merge is the profile set of the whole instance.
    """
    co = ordering if ordering is not None else find_convex_ordering(inst)
    if co is None:
        raise OrderingError("graph admits no convex bipartite ordering")
    parts = []
    for comp in connected_components(inst):
        sub = comp.instance
        if not sub.edges:
            rows = [tuple(sub.profits[j][v] for j in range(sub.k)) for v in range(sub.n)]
            pset = edgeless_profiles_unchecked(sub.k, rows, cap=cap)
            if prune:
                pset = dominance_prune(pset)
            parts.append((comp, pset, None, rows))
        else:
            mapping = comp.to_sub()
            sub_co = _restrict_ordering(co, set(comp.vertices), mapping, sub)
            dp = _ConnectedConvexDP(sub, sub_co, cap=cap, prune=prune, stats=stats)
            pset = dp.run()
            parts.append((comp, pset, dp, None))
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

    classes: list[set[int]] = [set() for _ in range(inst.k)]
    target = profile
    for idx in range(len(parts) - 1, -1, -1):
        comp, pset, dp, rows = parts[idx]
        before = running[idx]
        pick = None
        for q in pset.sorted_profiles():
            remainder = tuple(t - x for t, x in zip(target, q))
            if all(x >= 0 for x in remainder) and remainder in before:
                pick = (q, remainder)
                break
        if pick is None:
            raise AssertionError("component decomposition lost the target profile")
        q, target = pick
        if dp is None:
            assignment = edgeless_assignment(inst.k, rows, q)
            for local, agent in enumerate(assignment):
                if agent > 0:
                    classes[agent - 1].add(comp.to_parent[local])
        else:
            sub_classes = dp.extract(q)
            for agent, members in enumerate(sub_classes):
                classes[agent].update(comp.to_parent[v] for v in members)
    witness = tuple(frozenset(c) for c in classes)
    validate_coloring(inst, witness)
    return optimum, profile, witness

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
from typing import Iterable, Sequence

from .model import Coloring, ConflictInstance, Profile, connected_components, validate_coloring
from .profiles import (
    ProfileSet,
    add_sums,
    best_profile,
    count_table,
    dominance_prune,
    edgeless_assignment,
    edgeless_profiles,
    encode,
    merge_profile_sets,
    store_cells,
    union_cells,
)

DEFAULT_RECOGNITION_CAP = 1 << 18


class OrderingError(ValueError):
    """The graph or a proposed ordering is not convex bipartite."""


class RecognitionCapError(RuntimeError):
    """Ordering search exceeded its state cap; supply an ordering instead."""


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


def consecutive_ones_order(
    columns: Sequence[int],
    rows: Iterable[Iterable[int]],
    state_cap: int = DEFAULT_RECOGNITION_CAP,
) -> list[int] | None:
    """Order the columns so every row becomes consecutive, or return None.

    Columns with identical row membership are interchangeable and collapsed
    first; the remaining search places one column class at a time, left to
    right, rejecting any step that strands a started-but-unfinished row.
    Exact but exponential in the worst case, hence the state cap.
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
        if len(dead) > state_cap:
            raise RecognitionCapError(
                f"consecutive-ones search exceeded {state_cap} states"
            )
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


def _two_color(inst: ConflictInstance, comp: Sequence[int]) -> tuple[set[int], set[int]] | None:
    adj = inst.adjacency()
    color: dict[int, int] = {}
    for start in comp:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return None
    side0 = {v for v in comp if color[v] == 0}
    side1 = {v for v in comp if color[v] == 1}
    return side0, side1


def find_convex_ordering(
    inst: ConflictInstance,
    bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
    state_cap: int = DEFAULT_RECOGNITION_CAP,
) -> ConvexOrdering | None:
    """Search for an A-order witnessing convexity, or return None.

    With no bipartition given, each component is 2-colored and both side
    choices are tried.  Raises OrderingError on non-bipartite input.
    """
    adj = inst.adjacency()

    def component_order(a_side: list[int], b_side: list[int]) -> list[int] | None:
        rows = [adj[b] for b in b_side]
        return consecutive_ones_order(a_side, rows, state_cap=state_cap)

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

    a_order: list[int] = []
    b_side_all: list[int] = []
    for comp in connected_components(inst):
        verts = list(comp.vertices)
        if len(verts) == 1:
            if fixed_a is not None and verts[0] not in fixed_a:
                b_side_all.append(verts[0])
            else:
                a_order.append(verts[0])
            continue
        if fixed_a is not None:
            candidates = [(sorted(set(verts) & fixed_a), sorted(set(verts) - fixed_a))]
        else:
            sides = _two_color(inst, verts)
            if sides is None:
                raise OrderingError("graph is not bipartite: odd cycle found")
            side0, side1 = sides
            first, second = (side0, side1) if min(verts) in side0 else (side1, side0)
            candidates = [
                (sorted(first), sorted(second)),
                (sorted(second), sorted(first)),
            ]
        order = None
        for a_side, b_side in candidates:
            order = component_order(a_side, b_side)
            if order is not None:
                a_order.extend(order)
                b_side_all.extend(b_side)
                break
        if order is None:
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
                    base = edgeless_profiles(self.k, [r[2] for r in rows], cap=self.cap)
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
                        part = edgeless_profiles(self.k, [r[2] for r in rows], cap=self.cap)
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
                part = edgeless_profiles(self.k, [r[2] for r in rows], cap=self.cap)
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
            pset = edgeless_profiles(sub.k, rows, cap=cap)
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

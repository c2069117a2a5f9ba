"""Solver for convex bipartite conflict graphs.

A bipartite graph G = (A ∪ B, E) is convex if A can be ordered so that every
B-vertex's neighborhood is an interval of consecutive A-vertices.  The solver
sweeps the graph in stages, one per distinct larger interval endpoint.  At
stage j it conditions on, per agent, the largest A-vertex g assigned so far.
Every new B-vertex ends at the stage's last A-position, so under that guess
an agent may take exactly those whose interval starts after g; the
candidates left form an independent set, and each stage reduces to the
edgeless enumeration.  Later B-vertices read g by the same test, so stage j
keys its cells by rep_j(g), the largest later B-start at most g (0 if none):
equal reps have one future.  Components are solved separately and merged
by vector addition.  Finding the A-order is the recognition module's work.
"""
from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .model import Coloring, ConflictInstance, Profile, connected_components, validate_coloring
from .profiles import (
    ProfileSet,
    Run,
    Step,
    Table,
    best_profile,
    encode,
    merge_profile_sets,
    unit_code,
)
# unused here: kept only as the module attribute the benchmark tracer wraps
from .profiles import dominance_prune  # noqa: F401
from .recognition import (
    ConvexOrdering,
    OrderingError,
    find_convex_ordering,
    validate_convex_ordering,
)


class _StageStructure(NamedTuple):
    """B-order and stage boundaries of one connected component.

    b_order sorts B by (larger endpoint, smaller endpoint, vertex id); u lists
    the distinct larger endpoints ascending; v[j] is how many B-vertices have
    their larger endpoint at most u[j].
    """

    b_order: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]


def _stage_structure(co: ConvexOrdering) -> _StageStructure:
    """Sort B and compute the stage boundary arrays (every B-vertex has an interval)."""
    b_order = sorted(co.b_vertices, key=lambda b: (co.intervals[b][1], co.intervals[b][0], b))
    # u[j] -> v[j]: each larger endpoint, ascending as in b_order, to its last B-position
    last = {co.intervals[b][1]: m for m, b in enumerate(b_order, 1)}
    return _StageStructure(tuple(b_order), u=tuple(last), v=tuple(last.values()))


class _Node:
    """One node of a component's DP tree.

    make turns the children's tables into the node's steps (see
    profiles.Step).
    """

    __slots__ = ("make", "children")

    def __init__(self, make: Callable[[list[Table]], list[Step]], *children: _Node):
        self.make = make
        self.children = children


def _children(node: _Node) -> tuple[_Node, ...]:
    return node.children


def _table(run: Run, node: _Node, child_tables: list[Table]) -> Table:
    return run.table(node, node.make(child_tables), child_tables)


def _vertex_chain(
    k: int, vertices: Sequence[int], parts: Sequence[tuple[tuple[int, ...], ...]]
) -> _Node:
    """Each part's edgeless subset-sum: a leaf, then a node per vertex some part can take.

    A part is its rows: part[i] is each agent's profit for vertices[i].  A
    cell's key is its part's index in parts.  The leaf holds {0} under every
    part, and the i-th vertex's node keeps every part with the vertex
    unassigned or given to one agent whose profit is positive.  A vertex
    whose rows are all zero gets no node: it would only pass cells through.
    """

    def vertex_steps(i: int, vertex: int, child_tables: list[Table]) -> list[Step]:
        steps: list[Step] = []
        for pid in child_tables[0]:
            child_keys = (pid,)
            steps.append((pid, child_keys, 0, ()))
            for agent, p in enumerate(parts[pid][i]):
                if p > 0:
                    steps.append((pid, child_keys, unit_code(k, agent, p), ((vertex, agent),)))
        return steps

    node = _Node(lambda child_tables: [(pid, (), 0, ()) for pid in range(len(parts))])
    for i, vertex in enumerate(vertices):
        if any(max(part[i]) > 0 for part in parts):
            node = _Node(partial(vertex_steps, i, vertex), node)
    return node


class _Stage:
    """One stage's profit columns and parts, and the steps of its node kinds.

    Stage j adds the A-positions (u_prev, u_cur] and the B-positions
    (v_prev, v_cur]; vertices lists them, A first.  Under a guess g, an
    agent's largest A-position so far, its column keeps its profits on the
    stage's A-positions up to g and on the new B-vertices whose interval
    starts after g.  Every new B-vertex ends at u_cur >= g, so it meets one
    of the agent's A-vertices iff its interval starts at or before g, and no
    earlier B-vertex reaches a new A-position: each agent may take any of
    its column's vertices, whatever the others take.  The table is keyed by
    rep_j of each entry, the largest start at most g of a B-vertex after
    v_cur (0 if none): only those are left, and each meets the agent iff it
    starts at or before g, so equal reps have one future and share a cell;
    the last stage's one key is (0,) * k.  A passed entry is thus a rep of
    stage j - 1, which keeps every start a new B-vertex tests, and may equal
    another; a new entry is a distinct A-position in (u_prev, u_cur].

    A part is its rows: the agents' columns under a guess side by side, with
    the new A-positions the guess names zeroed.  parts lists each distinct
    part once, in order of first use, and a step names its part by its
    index there, so equal parts of different guesses share one chain cell.
    A stage is three node kinds: pred_steps unions the previous cells that
    agree with each guess wherever it names a position already passed; a
    vertex chain builds every part's edgeless subset-sum; and stage_steps
    adds each guess's predecessor union to its part plus delta, the profits
    of the new A-vertices the guess names, and colors those vertices.
    """

    def __init__(self, dp: _ConnectedConvexDP, j: int):
        ss, k = dp.ss, dp.k
        self.j, self.k = j, k
        u_prev = self.u_prev = ss.u[j - 1] if j else 0
        v_prev = ss.v[j - 1] if j else 0
        a_pos = range(u_prev + 1, ss.u[j] + 1)
        b_pos = range(v_prev + 1, ss.v[j] + 1)
        na = self.na = len(a_pos)
        self.vertices = [dp.co.a_order[i - 1] for i in a_pos] + [ss.b_order[m - 1] for m in b_pos]
        b_lo = [dp.b_interval[m - 1][0] for m in b_pos]
        values = sorted({0}.union(lo for lo, _ in dp.b_interval[v_prev:] if lo <= u_prev))
        values += a_pos
        later = {0}.union(lo for lo, _ in dp.b_interval[ss.v[j] :])
        rep = {g: max(lo for lo in later if lo <= g) for g in values}
        columns = []  # columns[l][g]: agent l's column under guess value g
        for profits in dp.inst.profits:
            columns.append({
                g: [profits[v] if i <= g else 0 for i, v in zip(a_pos, self.vertices)]
                + [profits[v] if g < lo else 0 for lo, v in zip(b_lo, self.vertices[na:])]
                for g in values
            })

        zero = (0,) * k
        ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self.steps: list[Step] = []
        for guess in itertools.product(values, repeat=k):
            new = [g for g in guess if g > u_prev]
            if len(new) > len(set(new)):
                continue
            rows = list(zip(*map(dict.__getitem__, columns, guess)))
            delta, assigned = 0, ()
            for l, g in enumerate(guess):
                if g > u_prev:
                    vertex = self.vertices[g - u_prev - 1]
                    rows[g - u_prev - 1] = zero
                    delta += unit_code(k, l, dp.inst.profits[l][vertex])
                    assigned += ((vertex, l),)
            pid = ids.setdefault(tuple(rows), len(ids))
            target = tuple([rep[g] for g in guess])
            self.steps.append((target, (self.key(guess), pid), delta, assigned))
        self.parts = list(ids)
        self.ops = 0

    def key(self, guess: tuple[int, ...]) -> tuple[int, ...]:
        """The guess's decided entries, -1 where it names a new A-vertex."""
        return tuple([g if g <= self.u_prev else -1 for g in guess])

    def pred_steps(self, child_tables: list[Table]) -> list[Step]:
        """Each previous cell into every key that hides at most na of its entries.

        Every such key is the key of some guess, which names distinct new
        A-positions in the hidden entries.  The first stage extends the
        empty prefix: a leaf whose every cell is {0}.
        """
        taus = child_tables[0] if child_tables else [(0,) * self.k]
        hidden = [h for h in itertools.product((False, True), repeat=self.k) if sum(h) <= self.na]
        return [
            (tuple([-1 if x else t for t, x in zip(tau, h)]), (tau,) if child_tables else (), 0, ())
            for tau in taus
            for h in hidden
        ]

    def stage_steps(self, child_tables: list[Table]) -> list[Step]:
        """pred + part + delta per guess that has a predecessor.

        profile-ops counts |pred| * |part| per guess, each part times its
        residual row count at the first stage, whose pred is {0}.
        """
        pred, parts = child_tables
        steps = [step for step in self.steps if step[1][0] in pred]
        for _, (key, pid), _, assigned in steps:
            rows = 1 if self.j else len(self.vertices) - len(assigned)
            self.ops += len(pred[key]) * rows * len(parts[pid])
        return steps


class _ConnectedConvexDP:
    """The stage tables of one connected component, as a tree of node kinds.

    co orders that component alone, in inst's vertex ids.  Stage j's node
    has two children: a predecessor union over stage j - 1's node, and its
    vertex chain.
    """

    def __init__(self, inst: ConflictInstance, co: ConvexOrdering):
        self.inst = inst
        self.co = co
        self.k = inst.k
        self.ss = _stage_structure(co)
        # (lo, hi) per b_order position, 1-based
        self.b_interval = [co.intervals[b] for b in self.ss.b_order]
        self.stages = [_Stage(self, j) for j in range(len(self.ss.u))]
        self.stage_nodes: list[_Node] = []
        for stage in self.stages:
            pred = _Node(stage.pred_steps, *self.stage_nodes[-1:])
            chain = _vertex_chain(self.k, stage.vertices, stage.parts)
            self.stage_nodes.append(_Node(stage.stage_steps, pred, chain))
        self.root = self.stage_nodes[-1]

    def profile_set(self, run: Run) -> ProfileSet:
        """Every node's table, into run.tables; the union of the last stage's cells."""
        pset = run.root_set(self.root, _children, partial(_table, run))
        ops = sum(stage.ops for stage in self.stages)
        run.stats["profile-ops"] = run.stats.get("profile-ops", 0) + ops
        return pset


def _merged_components(inst: ConflictInstance, ordering: ConvexOrdering | None, run: Run):
    """Per-component profile sets and their running vector-sum merges, all in one run.

    Components are solved in the instance's own vertex ids.  One with
    edges runs the stage DP on its block of the one validated ordering:
    its B-intervals chain together, so its A-vertices fill one run of the
    A-order, and the block's intervals count from the run's start.  An
    isolated vertex is a vertex chain over its one part, its row.  Each
    part carries its DP tree's root for the witness walk.  The last running
    merge is the profile set of the whole instance.  The run is made from
    the whole instance's totals, so unpruned every component is held on
    its grid when it is small enough, and the merges are shift-ORs too.
    """
    if ordering is None:
        co = find_convex_ordering(inst)
        if co is None:
            raise OrderingError("graph admits no convex bipartite ordering")
    else:
        co = validate_convex_ordering(inst, ordering.a_order, ordering.b_vertices)
    parts = []
    for comp in connected_components(inst):
        if len(comp) == 1:
            root = _vertex_chain(inst.k, comp, [(tuple([row[comp[0]] for row in inst.profits]),)])
            pset = run.root_set(root, _children, partial(_table, run))
        else:
            b_side = [b for b in comp if b in co.intervals]
            s = min(co.intervals[b][0] for b in b_side) - 1
            block = ConvexOrdering(
                co.a_order[s : s + len(comp) - len(b_side)],
                tuple(b_side),
                {b: (co.intervals[b][0] - s, co.intervals[b][1] - s) for b in b_side},
            )
            dp = _ConnectedConvexDP(inst, block)
            pset, root = dp.profile_set(run), dp.root
        parts.append((pset, root))
    running = [run.zero()]
    for pset, _ in parts:
        running.append(merge_profile_sets(running[-1], pset, cap=run.cap))
    return parts, running


def convex_profile_set(
    inst: ConflictInstance,
    ordering: ConvexOrdering | None = None,
    cap: int | None = None,
    stats: dict | None = None,
) -> ProfileSet:
    """Exact full profile set of a convex bipartite instance (no pruning)."""
    return _merged_components(inst, ordering, Run(inst.total_profits(), cap, stats=stats))[1][-1]


def _witness(run: Run, parts: list, running: list[ProfileSet], target: int) -> Coloring:
    """A coloring whose profile is the code target, a member of running[-1].

    The target is split over the components from the last one back, at
    each component's smallest member that leaves a member of the running
    merge before it (a difference with a negative field is no member, see
    profiles.Run.walk), and each component's share is walked back through
    its DP tree.
    """
    classes: list[set[int]] = [set() for _ in range(run.k)]
    for idx in range(len(parts) - 1, -1, -1):
        pset, root = parts[idx]
        share = next((q for q in sorted(pset.codes) if target - q in running[idx].codes), None)
        if share is None:
            raise AssertionError("component decomposition lost the target profile")
        target -= share
        for agent, members in enumerate(run.walk(root, _children, share)):
            classes[agent].update(members)
    return tuple(frozenset(c) for c in classes)


def solve_convex(
    inst: ConflictInstance,
    ordering: ConvexOrdering | None = None,
    cap: int | None = None,
    prune: bool = True,
    stats: dict | None = None,
) -> tuple[int, Profile, Coloring]:
    """Optimum satisfaction level, its profile, and a validated witness."""
    run = Run(inst.total_profits(), cap, prune, stats, walk=True)
    parts, running = _merged_components(inst, ordering, run)
    optimum, profile = best_profile(running[-1])
    witness = _witness(run, parts, running, encode(profile, inst.k))
    validate_coloring(inst, witness)
    return optimum, profile, witness

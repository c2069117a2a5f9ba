"""One function per documented invariant, parametrized by case count.

Module test files run these at modest counts for quick iteration; the
acceptance suite re-runs every one of them at 1000 cases.  Each function
raises AssertionError on the first violated case.
"""
from __future__ import annotations

import random

import support

from fairkdiv.approx import fptas
from fairkdiv.cliquewidth import (
    EtaNode,
    RhoNode,
    UnionNode,
    VertexNode,
    _walk,
    cliquewidth_profile_set,
    cw_run,
    dp_node,
    evaluate_expression,
    label_bits,
    live_masks,
    solve_cliquewidth,
)
from fairkdiv.convex import (
    _ConnectedConvexDP,
    _merged_components,
    _stage_structure,
    _witness,
    convex_profile_set,
    solve_convex,
    validate_convex_ordering,
)
from fairkdiv.generators import gen_convex_bipartite, gen_partial_ktree
from fairkdiv.model import (
    ConflictInstance,
    connected_components,
    max_total_profit,
    parse_instance,
    profile_of,
    satisfaction_level,
    satisfaction_upper_bound,
    serialize_instance,
    validate_coloring,
)
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.bitgrid import Grid
from fairkdiv.profiles import (
    ProfileSet,
    Run,
    best_satisfaction,
    decode,
    dominance_prune,
    encode,
    merge_profile_sets,
    unit_code,
)
from fairkdiv.chordal import clique_tree_of_chordal
from fairkdiv.treeindep import (
    TreeDecomposition,
    _tree_adjacency,
    make_nice,
    solve_tin,
    tin_profile_set,
    tin_run,
    trim_td,
    validate_td,
)


def _node_tables(dp, inst: ConflictInstance, tree, prune: bool = False) -> dict:
    """Every node's table of one run of dp(inst, tree, run), keyed by id(node)."""
    run = Run(inst.total_profits(), prune=prune)
    dp(inst, tree, run)
    return run.tables


# ---------------------------------------------------------------- core model

def prop_roundtrip(cases: int, seed: int = 101) -> None:
    """parse(serialize(inst)) == inst for random instances."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(0, 9), rng.randint(1, 3), 9)
        assert parse_instance(serialize_instance(inst)) == inst


def prop_permutation_invariance(cases: int, seed: int = 102) -> None:
    """profile_of is unchanged under consistent vertex relabeling."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 8)
        inst = support.random_instance(rng, n, rng.randint(1, 3), 9)
        _, witness = brute_force_optimum(inst)
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = ConflictInstance.build(
            n=n,
            k=inst.k,
            edges=[(perm[u], perm[v]) for u, v in inst.edges],
            profits=[
                [inst.profits[j][perm.index(v)] for v in range(n)]
                for j in range(inst.k)
            ],
        )
        mapped_witness = [frozenset(perm[v] for v in cls) for cls in witness]
        assert profile_of(mapped, mapped_witness) == profile_of(inst, witness)


def prop_empty_coloring_zero(cases: int, seed: int = 103) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(0, 8), rng.randint(1, 3), 9)
        empty = [frozenset() for _ in range(inst.k)]
        assert profile_of(inst, empty) == (0,) * inst.k


def prop_components_cover(cases: int, seed: int = 104) -> None:
    """Components partition the vertices; edgeless component merge agrees."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_edgeless_instance(rng, rng.randint(0, 8), rng.randint(1, 3), 6)
        comps = connected_components(inst)
        seen: set[int] = set()
        for comp in comps:
            assert not (seen & set(comp))
            seen |= set(comp)
        assert seen == set(range(inst.n))
        merged = ProfileSet.zero(inst.k)
        for comp in comps:
            part = ConflictInstance.build(
                len(comp), inst.k, [], [[row[v] for v in comp] for row in inst.profits]
            )
            merged = merge_profile_sets(merged, convex_profile_set(part))
        assert merged == convex_profile_set(inst)


# --------------------------------------------------------------- profile set

def prop_edgeless_oracle(cases: int, seed: int = 201) -> None:
    """The edgeless enumeration, convex's vertex chain, equals brute force on <= 8 vertices."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_edgeless_instance(rng, rng.randint(0, 8), rng.randint(1, 3), 10)
        assert convex_profile_set(inst) == brute_force_profiles(inst)


def prop_merge_algebra(cases: int, seed: int = 202) -> None:
    """merge is commutative and associative; the zero set is its identity."""
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        sets = [
            ProfileSet(
                k,
                {
                    tuple(rng.randint(0, 6) for _ in range(k))
                    for _ in range(rng.randint(1, 5))
                },
            )
            for _ in range(3)
        ]
        s1, s2, s3 = sets
        assert merge_profile_sets(s1, s2) == merge_profile_sets(s2, s1)
        assert merge_profile_sets(merge_profile_sets(s1, s2), s3) == merge_profile_sets(
            s1, merge_profile_sets(s2, s3)
        )
        assert merge_profile_sets(s1, ProfileSet.zero(k)) == s1


def prop_merge_monotone(cases: int, seed: int = 203) -> None:
    """Merging zero-containing sets cannot lower the best satisfaction."""
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        zero = (0,) * k
        s1 = ProfileSet(
            k, {zero} | {tuple(rng.randint(0, 6) for _ in range(k)) for _ in range(4)}
        )
        s2 = ProfileSet(
            k, {zero} | {tuple(rng.randint(0, 6) for _ in range(k)) for _ in range(4)}
        )
        assert best_satisfaction(merge_profile_sets(s1, s2)) >= max(
            best_satisfaction(s1), best_satisfaction(s2)
        )


def prop_prune_preserves_best(cases: int, seed: int = 204) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        s = ProfileSet(
            k,
            {tuple(rng.randint(0, 8) for _ in range(k)) for _ in range(rng.randint(1, 12))},
        )
        pruned = dominance_prune(s)
        assert best_satisfaction(pruned) == best_satisfaction(s)
        assert set(pruned) <= set(s)


def prop_grid_forms_agree(cases: int, seed: int = 206) -> None:
    """merge_profile_sets and a root's read-out give equal sets whichever form their operands have.

    Operands are code-backed, held on one grid, or held on two equal grids
    (two objects, so they are added as codes).  The read-out (Run.root_set,
    one unary build_table step per root key) gets the root's cells as a
    table holds them: on the run's grid, or else as code sets.  Members go
    up to half the totals, so every sum fits the grid.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        totals = [rng.choice((0, 1, 3, 6)) for _ in range(k)]
        grids = (Grid(totals), Grid(totals))
        sets = [
            ProfileSet(k, {
                tuple(rng.randint(0, t // 2) for t in totals) for _ in range(rng.randint(0, 6))
            })
            for _ in range(2)
        ]
        forms = [[s, support.on_grid(grids[0], s), support.on_grid(grids[1], s)] for s in sets]
        want_sum = merge_profile_sets(*sets)
        want_union = ProfileSet.from_codes(k, sets[0].codes | sets[1].codes)
        for x in forms[0]:
            for y in forms[1]:
                run = Run(totals)
                run.grid = x.grid if x.grid is not None and x.grid is y.grid else None
                cells = [x, y] if run.grid is not None else [x.codes, y.codes]
                got_sum = merge_profile_sets(x, y)
                root = dict(enumerate(cells))  # a one-node tree: its root's table
                got_union = run.root_set(root, lambda node: (), lambda node, _: node)
                assert got_sum == want_sum and got_sum.dump() == want_sum.dump()
                assert got_union == want_union and got_union.dump() == want_union.dump()
                assert len(got_sum) == len(want_sum) and len(got_union) == len(want_union)
                assert got_sum.grid is got_union.grid is run.grid


def prop_pruned_cells_are_fronts(cases: int, seed: int = 207) -> None:
    """Every cell of a pruned tin, cw and convex table is its own Pareto front.

    A cell that one shifted unary step fills is stored without pruning
    again, so this checks that shortcut too.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        inst, td = _random_td_instance(rng, k_max=3, pmax=9)
        tables = _node_tables(tin_run, inst, make_nice(td), prune=True)
        node_tables = [(inst.k, t) for t in tables.values()]
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 3), 9)
        node_tables += [(inst.k, t) for t in _node_tables(cw_run, inst, expr, prune=True).values()]
        parts = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        inst = support.shuffled_convex_instance(rng, parts, rng.randint(1, 3), 9)
        tables = _node_tables(_merged_components, inst, None, prune=True)
        node_tables += [(inst.k, t) for t in tables.values()]
        for k, table in node_tables:
            for cell in table.values():
                pset = ProfileSet.from_codes(k, cell)
                assert dominance_prune(pset) == pset


def prop_pruned_merges_are_fronts(cases: int, seed: int = 207) -> None:
    """Every running component merge of a pruned convex run is its own Pareto front.

    Three or four parts give at least two merges of nonzero sets, so a
    merge kept as the full vector sum of two fronts shows.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        parts = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(3, 4))]
        inst = support.shuffled_convex_instance(rng, parts, rng.randint(1, 3), 9)
        run = Run(inst.total_profits(), prune=True, walk=True)
        _, running = _merged_components(inst, None, run)
        for merged in running:
            assert dominance_prune(merged) == merged


def prop_profiles_bounded(cases: int, seed: int = 205) -> None:
    """Every produced profile is componentwise at most the total profits."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(0, 7), rng.randint(1, 2), 7)
        bound = inst.total_profits()
        for q in brute_force_profiles(inst):
            assert all(x <= b for x, b in zip(q, bound))


# -------------------------------------------------------------------- oracle

def prop_oracle_witness_valid(cases: int, seed: int = 301) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(0, 7), rng.randint(1, 3), 8)
        value, witness = brute_force_optimum(inst)
        validate_coloring(inst, witness)
        assert satisfaction_level(profile_of(inst, witness)) == value


def prop_oracle_mis_agreement(cases: int, seed: int = 302) -> None:
    """For k = 1 the largest profile coordinate equals the MIS optimum."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(0, 8), 1, 9)
        pset = brute_force_profiles(inst)
        assert max(q[0] for q in pset) == support.mis_weight(inst, list(inst.profits[0]))


def prop_oracle_edge_monotone(cases: int, seed: int = 303) -> None:
    """Adding an edge never enlarges the profile set."""
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(2, 7)
        inst = support.random_instance(rng, n, rng.randint(1, 2), 6)
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in set(inst.edges)
        ]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        denser = ConflictInstance.build(
            n=n, k=inst.k, edges=list(inst.edges) + [extra], profits=inst.profits
        )
        assert set(brute_force_profiles(denser)) <= set(brute_force_profiles(inst))


# -------------------------------------------------------------------- convex

def _later_starts(dp: _ConnectedConvexDP, j: int) -> list[int]:
    """The interval starts of the B-vertices after stage j, in any order."""
    return [dp.co.intervals[b][0] for b in dp.ss.b_order[dp.ss.v[j] :]]


def _stage_oracle_check(inst: ConflictInstance, co) -> None:
    """Check every stage cell against per-stage enumeration (soundness and
    completeness of the staged tables for the induced prefix subgraphs).

    An assignment is filed under rep_j of each agent's largest A-position
    g: the largest start of a B-vertex after stage j that is at most g, or 0.
    """
    dp = _ConnectedConvexDP(inst, co)
    run = Run(inst.total_profits())
    dp.profile_set(run)
    pos = {a: i + 1 for i, a in enumerate(co.a_order)}
    for j, node in enumerate(dp.stage_nodes):
        table = run.tables[id(node)]
        u_j, v_j = dp.ss.u[j], dp.ss.v[j]
        later = _later_starts(dp, j)
        vertices = [co.a_order[i] for i in range(u_j)] + [
            dp.ss.b_order[m] for m in range(v_j)
        ]
        sub_index = {v: i for i, v in enumerate(vertices)}
        adj = inst.adjacency()
        want: dict[tuple[int, ...], set] = {}
        assignment = [0] * len(vertices)

        def enumerate_all(i: int) -> None:
            if i == len(vertices):
                guess = []
                for agent in range(inst.k):
                    taken_a = [
                        pos[v]
                        for v, a in zip(vertices, assignment)
                        if a == agent + 1 and v in pos
                    ]
                    g = max(taken_a) if taken_a else 0
                    guess.append(max([lo for lo in later if lo <= g], default=0))
                q = tuple(
                    sum(
                        inst.profits[agent][v]
                        for v, a in zip(vertices, assignment)
                        if a == agent + 1
                    )
                    for agent in range(inst.k)
                )
                want.setdefault(tuple(guess), set()).add(encode(q, inst.k))
                return
            v = vertices[i]
            for color in range(inst.k + 1):
                if color > 0 and any(
                    assignment[sub_index[w]] == color
                    for w in adj[v]
                    if w in sub_index and sub_index[w] < i
                ):
                    continue
                assignment[i] = color
                enumerate_all(i + 1)
            assignment[i] = 0

        enumerate_all(0)
        got = {g: set(cell.codes) for g, cell in table.items() if cell}
        assert got == want, f"stage {j + 1} tables disagree with enumeration"


def prop_convex_stage_tables(cases: int, seed: int = 401) -> None:
    """Stage-table soundness and completeness against per-stage brute force."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        # k = 3 only where the enumeration stays within 4^7 assignments
        k = rng.randint(1, 3 if na + nb <= 7 else 2)
        inst = support.random_convex_instance(rng, na, nb, k, 4)
        comps = connected_components(inst)
        if len(comps) != 1 or not inst.edges:
            continue
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        _stage_oracle_check(inst, co)
        done += 1


def prop_convex_completeness(cases: int, seed: int = 402) -> None:
    """Union of final-stage cells equals the brute-force profile set."""
    rng = random.Random(seed)
    for _ in range(cases):
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        inst = support.random_convex_instance(rng, na, nb, rng.randint(1, 2), 5)
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        assert convex_profile_set(inst, co) == brute_force_profiles(inst)


def prop_convex_structure_properties(cases: int, seed: int = 403) -> None:
    """Stage prefixes nest; neighborhoods nest inside each stage slice."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        inst = support.random_convex_instance(rng, na, nb, 1, 1)
        if len(connected_components(inst)) != 1 or not inst.edges:
            continue
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        ss = _stage_structure(co)
        assert list(ss.u) == sorted(set(ss.u)) and ss.u[-1] == len(co.a_order)
        assert list(ss.v) == sorted(set(ss.v)) and ss.v[-1] == len(ss.b_order)
        # B-order sorted by (larger, smaller) endpoint
        keys = [co.intervals[b] for b in ss.b_order]
        assert keys == sorted(keys, key=lambda t: (t[1], t[0]))
        adj = inst.adjacency()
        u_prev = v_prev = 0
        for u_cur, v_cur in zip(ss.u, ss.v):
            b_slice = [ss.b_order[m] for m in range(v_prev, v_cur)]
            a_slice = [co.a_order[i - 1] for i in range(u_prev + 1, u_cur + 1)]
            scope = set(b_slice) | {
                ss.b_order[m] for m in range(v_cur)
            } | {co.a_order[i] for i in range(u_cur)}
            # new A-vertices: neighborhoods within the stage graph nest and
            # stay inside the new B-slice
            hoods = [adj[a] & scope for a in a_slice]
            for h in hoods:
                assert h <= set(b_slice)
            for first, second in zip(hoods, hoods[1:]):
                assert first <= second
            # new B-vertices: neighborhoods within the stage graph nest downward
            b_hoods = [adj[b] & scope for b in b_slice]
            for first, second in zip(b_hoods, b_hoods[1:]):
                assert second <= first
            u_prev, v_prev = u_cur, v_cur
        done += 1


def prop_convex_mis_agreement(cases: int, seed: int = 404) -> None:
    """k = 1 optimum equals the independent MIS oracle on convex instances."""
    rng = random.Random(seed)
    for _ in range(cases):
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        inst = support.random_convex_instance(rng, na, nb, 1, 9)
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        opt, _, _ = solve_convex(inst, co)
        assert opt == support.mis_weight(inst, list(inst.profits[0]))


def prop_convex_guess_hygiene(cases: int, seed: int = 405) -> None:
    """Every key entry is 0 or a later B-start at most u_j; the last stage has one key, all 0."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        inst = support.random_convex_instance(rng, na, nb, 2, 3)
        if len(connected_components(inst)) != 1 or not inst.edges:
            continue
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        dp = _ConnectedConvexDP(inst, co)
        run = Run(inst.total_profits())
        dp.profile_set(run)
        for j, node in enumerate(dp.stage_nodes):
            allowed = {0} | {lo for lo in _later_starts(dp, j) if lo <= dp.ss.u[j]}
            for key in run.tables[id(node)]:
                assert len(key) == inst.k and set(key) <= allowed
        assert list(run.tables[id(dp.stage_nodes[-1])]) == [(0,) * inst.k]
        done += 1


def prop_convex_walk_realizes_every_member(cases: int, seed: int = 406) -> None:
    """Unpruned, the witness walk realizes every member of the profile set, not just the best."""
    rng = random.Random(seed)
    for _ in range(cases):
        # a part without B-vertices, or with A-vertices no interval covers, has isolated vertices
        parts = [(rng.randint(1, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
        inst = support.shuffled_convex_instance(rng, parts, rng.randint(1, 3), 2)
        run = Run(inst.total_profits(), walk=True)
        merged, running = _merged_components(inst, None, run)
        for code in running[-1].codes:
            witness = _witness(run, merged, running, code)
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == decode(code, inst.k)


# --------------------------------------------------------------- clique-width

def _cw_node_check(expr, inst) -> None:
    """Every node's table equals direct enumeration over the evaluated subgraph.

    A key holds only the labels live at its node (see live_masks).
    """
    tables = _node_tables(cw_run, inst, expr)
    bits = label_bits(expr.root)
    live = live_masks(expr.root, bits)

    def subgraph_table(node):
        node_live = live[id(node)]
        sub = evaluate_expression(
            type(expr)(root=node, num_labels=expr.num_labels, vertex_ids=expr.vertex_ids)
        )
        vertices = sorted(sub.labels)
        edges = {(u, v) for u, v in sub.edges}
        want: dict = {}
        assignment = {}

        def enumerate_all(i: int) -> None:
            if i == len(vertices):
                key = []
                profile = []
                for agent in range(inst.k):
                    mask = 0
                    total = 0
                    for v in vertices:
                        if assignment[v] == agent + 1:
                            mask |= bits[sub.labels[v]]
                            total += inst.profits[agent][v - 1]
                    key.append(mask & node_live)
                    profile.append(total)
                want.setdefault(tuple(key), set()).add(tuple(profile))
                return
            v = vertices[i]
            for color in range(inst.k + 1):
                if color > 0 and any(
                    assignment[w] == color
                    for w in vertices[:i]
                    if (min(v, w), max(v, w)) in edges
                ):
                    continue
                assignment[v] = color
                enumerate_all(i + 1)
            del assignment[v]

        enumerate_all(0)
        return want

    for node in _walk(expr.root):
        got = {
            support.cw_key_masks(key, inst.k, len(bits)): set(cell)
            for key, cell in tables[id(node)].items()
        }
        assert got == subgraph_table(node), "node table disagrees with enumeration"


def prop_cw_node_soundness(cases: int, seed: int = 501) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        # three agents on at most 5 leaves keep the enumeration at 4**5 colorings
        expr = support.random_expression(rng, 6 if k < 3 else 5, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, k, 4)
        _cw_node_check(expr, inst)


def prop_cw_root_completeness(cases: int, seed: int = 502) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 3), 5)
        assert cliquewidth_profile_set(inst, expr) == brute_force_profiles(inst)


def prop_cw_eta_filter(cases: int, seed: int = 503) -> None:
    """After an edge-add between labels i and j, no key holds both.

    The checked eta sits under a second eta i j, so i and j stay live there,
    and i labels a vertex of its child, so some key is nonzero.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 5, 3)
        i = rng.choice(sorted(set(evaluate_expression(expr).labels.values())))
        j = rng.choice([label for label in (1, 2, 3) if label != i])
        checked = EtaNode(i, j, expr.root)
        wrapped = type(expr)(
            root=EtaNode(i, j, checked),
            num_labels=expr.num_labels,
            vertex_ids=expr.vertex_ids,
        )
        inst = support.instance_for_expression(wrapped, rng, rng.randint(1, 3), 3)
        tables = _node_tables(cw_run, inst, wrapped)
        bits = label_bits(wrapped.root)
        pair = bits[i] | bits[j]
        keys = [support.cw_key_masks(key, inst.k, len(bits)) for key in tables[id(checked)]]
        assert any(any(key) for key in keys)
        for key in keys:
            assert all((mask & pair) != pair for mask in key)


def prop_cw_rho_filter(cases: int, seed: int = 504) -> None:
    """After relabeling i to j, no key mentions label i.

    The checked rho sits under an eta i j, so i and j stay live there, and i
    labels a vertex of its child, so some key holds j.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 5, 3)
        i = rng.choice(sorted(set(evaluate_expression(expr).labels.values())))
        j = rng.choice([label for label in (1, 2, 3) if label != i])
        checked = RhoNode(i, j, expr.root)
        wrapped = type(expr)(
            root=EtaNode(i, j, checked),
            num_labels=expr.num_labels,
            vertex_ids=expr.vertex_ids,
        )
        inst = support.instance_for_expression(wrapped, rng, rng.randint(1, 3), 3)
        tables = _node_tables(cw_run, inst, wrapped)
        bits = label_bits(wrapped.root)
        keys = [support.cw_key_masks(key, inst.k, len(bits)) for key in tables[id(checked)]]
        assert any(mask & bits[j] for key in keys for mask in key)
        for key in keys:
            assert all(not (mask & bits[i]) for mask in key)


def prop_cw_dead_labels(cases: int, seed: int = 506) -> None:
    """On expressions with dead labels, masked keys keep every result.

    The full set equals the oracle's, the pruned optimum equals the oracle's
    with a valid witness, and every key lies within its node's live mask.
    """
    rng = random.Random(seed)
    dead_leaves = 0
    for _ in range(cases):
        expr = support.dead_label_expression(rng, 6, rng.randint(3, 4))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 2), 4)
        run = Run(inst.total_profits())
        assert cw_run(inst, expr, run) == brute_force_profiles(inst)
        optimum, profile, witness = solve_cliquewidth(inst, expr)
        assert optimum == brute_force_optimum(inst)[0]
        validate_coloring(inst, witness)
        assert profile_of(inst, witness) == profile
        bits = label_bits(expr.root)
        live = live_masks(expr.root, bits)
        for node in _walk(expr.root):
            mask = live[id(node)]
            keys = [support.cw_key_masks(key, inst.k, len(bits)) for key in run.tables[id(node)]]
            assert all(not m & ~mask for key in keys for m in key)
            dead_leaves += isinstance(node, VertexNode) and not bits[node.label] & mask
    assert cases == 0 or dead_leaves > 0


def prop_cw_union_symmetric(cases: int, seed: int = 505) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        left = support.random_expression(rng, 3, 2)
        counter = max(left.vertex_ids, default=0)
        right_raw = support.random_expression(rng, 3, 2)

        def shift_ids(node):
            if isinstance(node, UnionNode):
                return UnionNode(shift_ids(node.left), shift_ids(node.right))
            if isinstance(node, EtaNode):
                return EtaNode(node.i, node.j, shift_ids(node.child))
            if isinstance(node, RhoNode):
                return RhoNode(node.i, node.j, shift_ids(node.child))
            return type(node)(label=node.label, vertex=node.vertex + counter)

        right_root = shift_ids(right_raw.root)
        ids = left.vertex_ids | {v + counter for v in right_raw.vertex_ids}
        ab = type(left)(root=UnionNode(left.root, right_root), num_labels=2, vertex_ids=ids)
        ba = type(left)(root=UnionNode(right_root, left.root), num_labels=2, vertex_ids=ids)
        inst = support.instance_for_expression(ab, rng, rng.randint(1, 2), 4)
        run = Run(inst.total_profits())
        bits = label_bits(ab.root)
        live = sum(bits.values())  # every label live: keys are whole footprints
        left_table = _tables_for(inst, left.root, run, bits, live)
        right_table = _tables_for(inst, right_root, run, bits, live)
        t1 = dp_node(ab.root, [left_table, right_table], inst, run, bits, live)
        t2 = dp_node(ba.root, [right_table, left_table], inst, run, bits, live)
        assert t1 == t2


def _tables_for(inst, node, run, bits, live):
    children = []
    if isinstance(node, UnionNode):
        children = [
            _tables_for(inst, node.left, run, bits, live),
            _tables_for(inst, node.right, run, bits, live),
        ]
    elif isinstance(node, (EtaNode, RhoNode)):
        children = [_tables_for(inst, node.child, run, bits, live)]
    return dp_node(node, children, inst, run, bits, live)


# ---------------------------------------------------------- tree-independence

def _random_td_instance(rng, n_max=8, width_max=3, k_max=2, pmax=6):
    n = rng.randint(0, n_max)
    width = 0 if n <= 1 else rng.randint(1, min(width_max, n - 1))
    seed = rng.randrange(1 << 30)
    delete = rng.choice([0.0, 0.3, 0.6])
    return gen_partial_ktree(n, width, rng.randint(1, k_max), pmax, seed,
                             delete_prob=delete)


def prop_tin_node_soundness(cases: int, seed: int = 601) -> None:
    """Every nice node's table matches enumeration over its subtree graph.

    A profile counts only the subtree's vertices outside the node's bag:
    a vertex's profit is booked when it is forgotten.
    """
    rng = random.Random(seed)
    for case in range(cases):
        # every other case may have three agents, and then at most 6 vertices
        wide = case % 2 == 1
        inst, td = _random_td_instance(rng, n_max=6 if wide else 7, k_max=3 if wide else 2)
        nice = make_nice(td)
        tables = _node_tables(tin_run, inst, nice)
        adj = inst.adjacency()

        def check(node):
            for child in node.children:
                check(child)
            subtree: set[int] = set()

            def collect(x):
                subtree.update(x.bag)
                for c in x.children:
                    collect(c)

            collect(node)
            vertices = sorted(subtree)
            bag_sorted = sorted(node.bag)
            want: dict = {}
            assignment = {}

            def enumerate_all(i: int) -> None:
                if i == len(vertices):
                    key = tuple(assignment[v] for v in bag_sorted)
                    q = tuple(
                        sum(
                            inst.profits[agent][v]
                            for v in vertices
                            if assignment[v] == agent + 1 and v not in node.bag
                        )
                        for agent in range(inst.k)
                    )
                    want.setdefault(key, set()).add(q)
                    return
                v = vertices[i]
                for color in range(inst.k + 1):
                    if color > 0 and any(
                        assignment.get(w) == color for w in adj[v] if w in assignment
                    ):
                        continue
                    assignment[v] = color
                    enumerate_all(i + 1)
                del assignment[v]

            enumerate_all(0)
            got = {
                support.tin_key_colors(key, inst.k, len(bag_sorted)): set(cell)
                for key, cell in tables[id(node)].items()
            }
            assert got == want, f"{node.kind} node table disagrees with enumeration"

        check(nice.root)


def prop_tin_single_bag(cases: int, seed: int = 602) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 3)
        # three agents on at most 5 vertices keep the one bag at 4**5 colorings
        inst = support.random_instance(rng, rng.randint(1, 7 if k < 3 else 5), k, 6)
        td = TreeDecomposition(n=inst.n, bags={1: frozenset(range(inst.n))}, edges=())
        opt, _, _ = solve_tin(inst, td)
        want, _ = brute_force_optimum(inst)
        assert opt == want


def prop_tin_chordal_route(cases: int, seed: int = 603) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 9)
        width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
        inst, _ = gen_partial_ktree(n, width, rng.randint(1, 2), 6,
                                    rng.randrange(1 << 30), delete_prob=0.0)
        td = clique_tree_of_chordal(inst)
        assert td is not None
        _, ell = validate_td(inst, td)
        assert ell <= 1
        opt, _, _ = solve_tin(inst, td)
        want, _ = brute_force_optimum(inst)
        assert opt == want


def _with_isolated(rng, inst, td):
    """inst plus up to three isolated vertices, each in a bag and some of its tree neighbours."""
    extra = rng.randint(1, 3)
    n = inst.n + extra
    profits = [list(row) + [rng.randint(0, 6) for _ in range(extra)] for row in inst.profits]
    bags = {bag_id: set(bag) for bag_id, bag in td.bags.items()}
    neigh = _tree_adjacency(td.bags, td.edges)
    for v in range(inst.n, n):
        home = rng.choice(sorted(bags))
        for bag_id in [home] + [c for c in neigh[home] if rng.random() < 0.7]:
            bags[bag_id].add(v)
    wider = ConflictInstance.build(n, inst.k, inst.edges, profits)
    return wider, TreeDecomposition(n, {b: frozenset(bag) for b, bag in bags.items()}, td.edges)


def prop_tin_trim(cases: int, seed: int = 605) -> None:
    """The trimmed decomposition only shrinks bags, stays valid and trimmed, and keeps the set.

    Cases cycle through partial k-trees with edge deletion 0, 0.3 and 0.7,
    clique trees of chordal graphs, and decompositions with isolated
    vertices held by several bags.
    """
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randint(1, 8)
        width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
        delete = (0.0, 0.3, 0.7, 0.0, 0.3)[case % 5]
        inst, td = gen_partial_ktree(n, width, rng.randint(1, 2), 6,
                                     rng.randrange(1 << 30), delete_prob=delete)
        if case % 5 == 3:
            td = clique_tree_of_chordal(inst)
        elif case % 5 == 4:
            inst, td = _with_isolated(rng, inst, td)
        trimmed = trim_td(inst, td)
        assert trimmed.bags.keys() == td.bags.keys() and trimmed.edges == td.edges
        assert all(trimmed.bags[b] <= bag for b, bag in td.bags.items())
        width, ell = validate_td(inst, td)
        trimmed_width, trimmed_ell = validate_td(inst, trimmed)
        assert trimmed_width <= width and trimmed_ell <= ell
        assert trim_td(inst, trimmed).bags == trimmed.bags, "one pass is a fixpoint"
        assert tin_profile_set(inst, td) == brute_force_profiles(inst)


def prop_step_offsets_are_assigned_profits(cases: int, seed: int = 604) -> None:
    """Every kept step of tin, cw and convex, pruned or not, adds exactly the profit it assigns."""
    rng = random.Random(seed)
    for _ in range(cases):
        tin_inst, td = _random_td_instance(rng, n_max=7)
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        cw_inst = support.instance_for_expression(expr, rng, rng.randint(1, 2), 5)
        parts = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 2))]
        convex_inst = support.shuffled_convex_instance(rng, parts, rng.randint(1, 3), 6)
        runs = [
            (tin_inst, lambda run: tin_run(tin_inst, make_nice(td), run)),
            (cw_inst, lambda run: cw_run(cw_inst, expr, run)),
            (convex_inst, lambda run: _merged_components(convex_inst, None, run)),
        ]
        for dp_inst, dp in runs:
            for prune in (False, True):
                run = Run(dp_inst.total_profits(), prune=prune, walk=True)
                dp(run)
                for steps in run.kept.values():
                    for _, _, offset, assigned in steps:
                        assert offset == sum(
                            unit_code(dp_inst.k, agent, dp_inst.profits[agent][v])
                            for v, agent in assigned
                        ), (offset, assigned)


def prop_packed_key_order(cases: int, seed: int = 606) -> None:
    """Packed tin and cw keys sort as the bag colorings and label masks they stand for.

    Run.walk tries root keys and each node's steps in sorted key order, so
    this order is what makes a walk pick the same witness as over tuple keys.
    """
    rng = random.Random(seed)
    for _ in range(cases):
        inst, td = _random_td_instance(rng, n_max=7, k_max=3)
        nice = make_nice(td)
        tables = _node_tables(tin_run, inst, nice)
        decoded = [
            [support.tin_key_colors(key, inst.k, len(node.bag)) for key in sorted(tables[id(node)])]
            for node in nice.nodes()
        ]
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 3), 4)
        width = len(label_bits(expr.root))
        decoded += [
            [support.cw_key_masks(key, inst.k, width) for key in sorted(table)]
            for table in _node_tables(cw_run, inst, expr).values()
        ]
        for keys in decoded:
            assert keys == sorted(keys), "packed key order differs from tuple order"


# -------------------------------------------------------------------- approx

def _convex_exact(ordering):
    def run(scaled):
        return solve_convex(scaled, ordering, prune=True)

    return run


def prop_fptas_guarantee(cases: int, seed: int = 701) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        inst, ordering = gen_convex_bipartite(na, nb, rng.randint(1, 2), 9,
                                              rng.randrange(1 << 30))
        eps = rng.choice(["1/10", "1/4", "1/2"])
        result = fptas(inst, eps, _convex_exact(ordering))
        validate_coloring(inst, result.witness)
        opt, _ = brute_force_optimum(inst)
        from fractions import Fraction

        assert result.value >= (1 - Fraction(eps)) * opt


def prop_fptas_call_bound(cases: int, seed: int = 702) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        inst, ordering = gen_convex_bipartite(na, nb, rng.randint(1, 2), 9,
                                              rng.randrange(1 << 30))
        result = fptas(inst, "1/4", _convex_exact(ordering))
        big_q = max_total_profit(inst)
        # ceil(log2(Q+1)) == Q.bit_length() for Q >= 0
        assert result.solver_calls <= big_q.bit_length() + 1


def prop_fptas_exact_when_unscaled(cases: int, seed: int = 703) -> None:
    """Tiny epsilon forces scale factor 1, so the value is the exact optimum."""
    rng = random.Random(seed)
    for _ in range(cases):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        inst, ordering = gen_convex_bipartite(na, nb, rng.randint(1, 2), 6,
                                              rng.randrange(1 << 30))
        from fractions import Fraction

        eps = Fraction(1, max(2 * max_total_profit(inst) * max(inst.n, 1), 2) * 4)
        result = fptas(inst, eps, _convex_exact(ordering))
        opt, _ = brute_force_optimum(inst)
        assert result.value == opt


def prop_fptas_upper_bound(cases: int, seed: int = 704) -> None:
    """U bounds the optimum, bounds the calls, and starting there keeps the guarantee.

    Three families in turn: convex instances with k = 1-3; disjoint wishes
    with equal totals, where U = Q; and one agent that values nothing, where
    U = 0 and no exact call is made.
    """
    from fractions import Fraction

    rng = random.Random(seed)
    for case in range(cases):
        family = case % 3
        k = rng.randint(1, 3)
        size = 6 - k  # n <= 2 * size keeps (k+1)^n small for the oracle
        inst, ordering = gen_convex_bipartite(rng.randint(1, size), rng.randint(1, size),
                                              k, 9, rng.randrange(1 << 30))
        if family == 1:
            # agent j values only its own block of vertices, all blocks alike
            block = inst.n // k
            values = [rng.randint(1, 9) for _ in range(block)]
            owned = rng.sample(range(inst.n), block * k)
            profits = [[0] * inst.n for _ in range(k)]
            for j in range(k):
                for v, value in zip(owned[j * block:(j + 1) * block], rng.sample(values, block)):
                    profits[j][v] = value
            inst = ConflictInstance.build(inst.n, k, inst.edges, profits)
        elif family == 2:
            profits = [list(row) for row in inst.profits]
            profits[rng.randrange(k)] = [0] * inst.n
            inst = ConflictInstance.build(inst.n, k, inst.edges, profits)
        eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)])
        result = fptas(inst, eps, _convex_exact(ordering))
        bound = satisfaction_upper_bound(inst)
        assert result.upper_bound == bound
        if family == 1:
            assert bound == max_total_profit(inst)
        if family == 2:
            assert (bound, result.solver_calls, result.value) == (0, 0, 0)
            assert all(not cls for cls in result.witness)
        opt, _ = brute_force_optimum(inst)
        assert bound >= opt, f"case {case}: U = {bound} < OPT = {opt}"
        # ceil(log2(U+1)) == U.bit_length() for U >= 0
        assert result.solver_calls <= bound.bit_length() + 1
        validate_coloring(inst, result.witness)
        assert result.value >= (1 - eps) * opt


# ----------------------------------------------------------------------- cli

def prop_generator_outputs_valid(cases: int, seed: int = 801) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        which = rng.random() < 0.5
        if which:
            inst, ordering = gen_convex_bipartite(
                rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 3), 8,
                rng.randrange(1 << 30)
            )
            reparsed = parse_instance(serialize_instance(inst))
            assert reparsed == inst
            validate_convex_ordering(inst, ordering.a_order, ordering.b_vertices)
        else:
            n = rng.randint(0, 8)
            width = 0 if n <= 1 else rng.randint(1, min(3, n - 1))
            inst, td = gen_partial_ktree(n, width, rng.randint(1, 3), 8,
                                         rng.randrange(1 << 30))
            reparsed = parse_instance(serialize_instance(inst))
            assert reparsed == inst
            validate_td(inst, td)


def prop_cli_json_schema(cases: int, seed: int = 802) -> None:
    import contextlib
    import io
    import json
    import os
    import tempfile

    from fairkdiv.cli import main

    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(cases):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            k = rng.randint(1, 2)
            path = os.path.join(tmp, f"i{i}.fkd")
            inst, _ = gen_convex_bipartite(na, nb, k, 5, rng.randrange(1 << 30))
            with open(path, "w") as handle:
                handle.write(serialize_instance(inst))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(["solve", "--method", "brute", path, "--json"])
            assert rc == 0
            support.check_result_schema(json.loads(buf.getvalue()), k)


def prop_cli_determinism(cases: int, seed: int = 803) -> None:
    """Same argv and seed give byte-identical output, elapsed-ms aside."""
    import contextlib
    import io
    import json
    import os
    import tempfile

    from fairkdiv.cli import main

    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(cases):
            seed_i = rng.randrange(1 << 20)
            argv = [
                "gen", "convex", "--na", str(rng.randint(1, 4)), "--nb",
                str(rng.randint(1, 4)), "--k", "2", "--max-profit", "6",
                "--seed", str(seed_i),
            ]
            first, second = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(first):
                assert main(argv) == 0
            with contextlib.redirect_stdout(second):
                assert main(argv) == 0
            assert first.getvalue() == second.getvalue()
            path = os.path.join(tmp, f"d{i}.fkd")
            with open(path, "w") as handle:
                handle.write(first.getvalue())
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(["solve", "--method", "brute", path, "--json"]) == 0
                payload = json.loads(buf.getvalue())
                del payload["stats"]["elapsed-ms"]
                outs.append(json.dumps(payload, sort_keys=True))
            assert outs[0] == outs[1]


ALL_PROPERTIES = [
    prop_roundtrip,
    prop_permutation_invariance,
    prop_empty_coloring_zero,
    prop_components_cover,
    prop_edgeless_oracle,
    prop_merge_algebra,
    prop_merge_monotone,
    prop_prune_preserves_best,
    prop_grid_forms_agree,
    prop_pruned_cells_are_fronts,
    prop_pruned_merges_are_fronts,
    prop_profiles_bounded,
    prop_oracle_witness_valid,
    prop_oracle_mis_agreement,
    prop_oracle_edge_monotone,
    prop_convex_stage_tables,
    prop_convex_completeness,
    prop_convex_structure_properties,
    prop_convex_mis_agreement,
    prop_convex_guess_hygiene,
    prop_convex_walk_realizes_every_member,
    prop_cw_node_soundness,
    prop_cw_root_completeness,
    prop_cw_eta_filter,
    prop_cw_rho_filter,
    prop_cw_union_symmetric,
    prop_cw_dead_labels,
    prop_tin_node_soundness,
    prop_tin_single_bag,
    prop_tin_chordal_route,
    prop_tin_trim,
    prop_step_offsets_are_assigned_profits,
    prop_packed_key_order,
    prop_fptas_guarantee,
    prop_fptas_call_bound,
    prop_fptas_exact_when_unscaled,
    prop_fptas_upper_bound,
    prop_generator_outputs_valid,
    prop_cli_json_schema,
    prop_cli_determinism,
]

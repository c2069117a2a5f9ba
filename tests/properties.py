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
    cliquewidth_profile_set,
    cw_tables,
    dp_node,
    evaluate_expression,
)
from fairkdiv.convex import (
    _ConnectedConvexDP,
    _merged_components,
    _witness,
    convex_profile_set,
    solve_convex,
    stage_structure,
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
from fairkdiv.profiles import (
    ProfileSet,
    best_satisfaction,
    decode,
    dominance_prune,
    edgeless_profiles,
    merge_profile_sets,
)
from fairkdiv.treeindep import (
    TreeDecomposition,
    clique_tree_of_chordal,
    make_nice,
    solve_tin,
    tin_tables,
    validate_td,
)


def _profit_rows(inst: ConflictInstance) -> list[tuple[int, ...]]:
    return [tuple(inst.profits[j][v] for j in range(inst.k)) for v in range(inst.n)]


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
            assert not (seen & set(comp.vertices))
            seen |= set(comp.vertices)
        assert seen == set(range(inst.n))
        merged = ProfileSet.zero(inst.k)
        for comp in comps:
            merged = merge_profile_sets(
                merged, edgeless_profiles(inst.k, _profit_rows(comp.instance))
            )
        assert merged == edgeless_profiles(inst.k, _profit_rows(inst))


# --------------------------------------------------------------- profile set

def prop_edgeless_oracle(cases: int, seed: int = 201) -> None:
    """edgeless_profiles equals brute force on instances with <= 8 vertices."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_edgeless_instance(rng, rng.randint(0, 8), rng.randint(1, 3), 10)
        assert edgeless_profiles(inst.k, _profit_rows(inst)) == brute_force_profiles(inst)


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

def _stage_oracle_check(inst: ConflictInstance, co) -> None:
    """Check every stage cell against per-stage enumeration (soundness and
    completeness of the staged tables for the induced prefix subgraphs)."""
    dp = _ConnectedConvexDP(inst, co)
    dp.run()
    pos = co.position_of()
    for j, table in enumerate(dp.tables):
        u_j, v_j = dp.ss.u[j], dp.ss.v[j]
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
                    guess.append(max(taken_a) if taken_a else 0)
                q = tuple(
                    sum(
                        inst.profits[agent][v]
                        for v, a in zip(vertices, assignment)
                        if a == agent + 1
                    )
                    for agent in range(inst.k)
                )
                want.setdefault(tuple(guess), set()).add(q)
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
        got = {g: set(cell) for g, cell in table.items() if len(cell)}
        assert got == want, f"stage {j + 1} tables disagree with enumeration"


def prop_convex_stage_tables(cases: int, seed: int = 401) -> None:
    """Stage-table soundness and completeness against per-stage brute force."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        inst = support.random_convex_instance(rng, na, nb, rng.randint(1, 2), 4)
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
        ss = stage_structure(co)
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
    """No stage-table key repeats a nonzero guess entry."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        inst = support.random_convex_instance(rng, na, nb, 2, 3)
        if len(connected_components(inst)) != 1 or not inst.edges:
            continue
        co = validate_convex_ordering(inst, range(na), range(na, na + nb))
        dp = _ConnectedConvexDP(inst, co)
        dp.run()
        for table in dp.tables:
            for key in table:
                nonzero = [x for x in key if x > 0]
                assert len(nonzero) == len(set(nonzero))
        done += 1


def prop_convex_walk_realizes_every_member(cases: int, seed: int = 406) -> None:
    """Unpruned, the witness walk realizes every member of the profile set, not just the best."""
    rng = random.Random(seed)
    for _ in range(cases):
        # a part without B-vertices, or with A-vertices no interval covers, has isolated vertices
        parts = [(rng.randint(1, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
        inst = support.shuffled_convex_instance(rng, parts, rng.randint(1, 3), 2)
        merged, running = _merged_components(inst, None, None, False, None)
        for code in running[-1].codes:
            witness = _witness(inst.k, merged, running, code)
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == decode(code, inst.k)


# --------------------------------------------------------------- clique-width

def _cw_node_check(expr, inst) -> None:
    """Every node's table equals direct enumeration over the evaluated subgraph."""
    tables = cw_tables(inst, expr)

    def subgraph_table(node):
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
                            mask |= 1 << (sub.labels[v] - 1)
                            total += inst.profits[agent][v - 1]
                    key.append(mask)
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

    from fairkdiv.cliquewidth import _walk

    for node in _walk(expr.root):
        got = {key: set(cell) for key, cell in tables[id(node)].items()}
        assert got == subgraph_table(node), "node table disagrees with enumeration"


def prop_cw_node_soundness(cases: int, seed: int = 501) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 2), 4)
        _cw_node_check(expr, inst)


def prop_cw_root_completeness(cases: int, seed: int = 502) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 6, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, rng.randint(1, 2), 5)
        assert cliquewidth_profile_set(inst, expr) == brute_force_profiles(inst)


def prop_cw_eta_filter(cases: int, seed: int = 503) -> None:
    """After an edge-add between labels i and j, no key holds both."""
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 5, 3)
        inner = expr.root
        i, j = rng.sample([1, 2, 3], 2)
        wrapped = type(expr)(
            root=EtaNode(i, j, inner),
            num_labels=expr.num_labels,
            vertex_ids=expr.vertex_ids,
        )
        inst = support.instance_for_expression(wrapped, rng, rng.randint(1, 2), 3)
        tables = cw_tables(inst, wrapped)
        pair = (1 << (i - 1)) | (1 << (j - 1))
        for key in tables[id(wrapped.root)]:
            assert all((mask & pair) != pair for mask in key)


def prop_cw_rho_filter(cases: int, seed: int = 504) -> None:
    """After relabeling i to j, no key mentions label i."""
    rng = random.Random(seed)
    for _ in range(cases):
        expr = support.random_expression(rng, 5, 3)
        i, j = rng.sample([1, 2, 3], 2)
        wrapped = type(expr)(
            root=RhoNode(i, j, expr.root),
            num_labels=expr.num_labels,
            vertex_ids=expr.vertex_ids,
        )
        inst = support.instance_for_expression(wrapped, rng, rng.randint(1, 2), 3)
        tables = cw_tables(inst, wrapped)
        bit = 1 << (i - 1)
        for key in tables[id(wrapped.root)]:
            assert all(not (mask & bit) for mask in key)


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
        t1 = dp_node(ab.root, [_tables_for(inst, left.root), _tables_for(inst, right_root)], inst)
        t2 = dp_node(ba.root, [_tables_for(inst, right_root), _tables_for(inst, left.root)], inst)
        assert t1 == t2


def _tables_for(inst, node):
    children = []
    if isinstance(node, UnionNode):
        children = [_tables_for(inst, node.left), _tables_for(inst, node.right)]
    elif isinstance(node, (EtaNode, RhoNode)):
        children = [_tables_for(inst, node.child)]
    return dp_node(node, children, inst)


# ---------------------------------------------------------- tree-independence

def _random_td_instance(rng, n_max=8, width_max=3, k_max=2, pmax=6):
    n = rng.randint(0, n_max)
    width = 0 if n <= 1 else rng.randint(1, min(width_max, n - 1))
    seed = rng.randrange(1 << 30)
    delete = rng.choice([0.0, 0.3, 0.6])
    return gen_partial_ktree(n, width, rng.randint(1, k_max), pmax, seed,
                             delete_prob=delete)


def prop_tin_node_soundness(cases: int, seed: int = 601) -> None:
    """Every nice node's table matches enumeration over its subtree graph."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst, td = _random_td_instance(rng, n_max=7)
        nice = make_nice(td)
        tables = tin_tables(inst, nice)
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
                            if assignment[v] == agent + 1
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
            got = {key: set(cell) for key, cell in tables[id(node)].items()}
            assert got == want, f"{node.kind} node table disagrees with enumeration"

        check(nice.root)


def prop_tin_single_bag(cases: int, seed: int = 602) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        inst = support.random_instance(rng, rng.randint(1, 7), rng.randint(1, 2), 6)
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


def prop_tin_join_correction(cases: int, seed: int = 604) -> None:
    """Join-node profiles stay >= the shared-bag contribution per agent."""
    rng = random.Random(seed)
    for _ in range(cases):
        inst, td = _random_td_instance(rng, n_max=7)
        nice = make_nice(td)
        tables = tin_tables(inst, nice)
        for node in nice.nodes():
            if node.kind != "join":
                continue
            bag_sorted = sorted(node.bag)
            for key, pset in tables[id(node)].items():
                w = [0] * inst.k
                for v, color in zip(bag_sorted, key):
                    if color > 0:
                        w[color - 1] += inst.profits[color - 1][v]
                for q in pset:
                    assert all(a >= b for a, b in zip(q, w))


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
    prop_tin_node_soundness,
    prop_tin_single_bag,
    prop_tin_chordal_route,
    prop_tin_join_correction,
    prop_fptas_guarantee,
    prop_fptas_call_bound,
    prop_fptas_exact_when_unscaled,
    prop_fptas_upper_bound,
    prop_generator_outputs_valid,
    prop_cli_json_schema,
    prop_cli_determinism,
]

import random
import time

import pytest

import properties
import support
from conftest import FIXTURE_B_MINUS, FIXTURE_B_PLUS

from fairkdiv.convex import (
    OrderingError,
    consecutive_ones_order,
    convex_profile_set,
    find_convex_ordering,
    solve_connected_convex,
    solve_convex,
    stage_structure,
    validate_convex_ordering,
)
from fairkdiv.generators import gen_convex_bipartite
from fairkdiv.model import ConflictInstance, profile_of, validate_coloring
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.profiles import ProfileCapError


def path_a1_b1_a2_b2(k=2, profits=None):
    """a1-b1-a2-b2: A = {0, 1} (a1=0, a2=1), B = {2, 3} (b1=2, b2=3)."""
    rows = profits or [[1] * 4] * k
    return ConflictInstance.build(4, k, [(0, 2), (1, 2), (1, 3)], rows)


class TestValidateOrdering:
    def test_path_endpoints(self):
        inst = path_a1_b1_a2_b2()
        co = validate_convex_ordering(inst, [0, 1], [2, 3])
        assert co.intervals[2] == (1, 2)
        assert co.intervals[3] == (2, 2)

    def test_c4_endpoints(self):
        inst = ConflictInstance.build(
            4, 1, [(0, 2), (0, 3), (1, 2), (1, 3)], [[1] * 4]
        )
        co = validate_convex_ordering(inst, [0, 1], [2, 3])
        assert co.intervals[2] == (1, 2) and co.intervals[3] == (1, 2)

    def test_non_interval_rejected(self):
        # b adjacent to a1 and a3 but not a2
        inst = ConflictInstance.build(4, 1, [(0, 3), (2, 3)], [[1] * 4])
        with pytest.raises(OrderingError, match="not an interval"):
            validate_convex_ordering(inst, [0, 1, 2], [3])

    def test_edge_inside_side_rejected(self):
        inst = ConflictInstance.build(3, 1, [(0, 1)], [[1] * 3])
        with pytest.raises(OrderingError, match="inside the A side"):
            validate_convex_ordering(inst, [0, 1], [2])


class TestFindOrdering:
    def test_star_any_order_works(self):
        inst = ConflictInstance.build(4, 1, [(0, 3), (1, 3), (2, 3)], [[1] * 4])
        co = find_convex_ordering(inst, bipartition=([0, 1, 2], [3]))
        assert co is not None
        assert sorted(co.a_order) == [0, 1, 2]

    def test_tucker_style_obstruction(self):
        # rows {1,2},{3,4},{1,3},{2,4} over four columns admit no ordering
        rows = [{0, 1}, {2, 3}, {0, 2}, {1, 3}]
        assert consecutive_ones_order([0, 1, 2, 3], rows) is None
        edges = [(a, 4 + i) for i, row in enumerate(rows) for a in row]
        inst = ConflictInstance.build(8, 1, edges, [[1] * 8])
        assert find_convex_ordering(inst) is None

    def test_non_bipartite_raises(self):
        inst = ConflictInstance.build(3, 1, [(0, 1), (1, 2), (0, 2)], [[1] * 3])
        with pytest.raises(OrderingError, match="not bipartite"):
            find_convex_ordering(inst)

    def test_example_graph_table_reproduced(self, example_graph):
        co = find_convex_ordering(example_graph)
        assert co is not None
        table = sorted(co.intervals[b] for b in co.b_vertices)
        want = sorted(zip(FIXTURE_B_MINUS, FIXTURE_B_PLUS))
        reflected = sorted((14 - hi, 14 - lo) for lo, hi in want)
        assert table in (want, reflected)

    def test_c1p_against_exhaustive(self):
        rng = random.Random(31)
        for _ in range(200):
            ncols = rng.randint(1, 6)
            rows = [
                set(rng.sample(range(ncols), rng.randint(0, ncols)))
                for _ in range(rng.randint(0, 5))
            ]
            got = consecutive_ones_order(list(range(ncols)), rows)
            exists = support.c1p_by_permutations(list(range(ncols)), rows)
            if got is None:
                assert not exists
            else:
                pos = {c: i for i, c in enumerate(got)}
                for r in rows:
                    if r:
                        ps = sorted(pos[c] for c in r)
                        assert ps[-1] - ps[0] + 1 == len(ps)

    def test_row_outside_the_columns_raises(self):
        with pytest.raises(ValueError, match="outside the universe"):
            consecutive_ones_order([1, 2, 3], [{1, 2}, {3, 4}])

    def test_c1p_order_matches_the_search(self):
        # the lexicographically first group sequence, as the search defines it
        rng = random.Random(41)
        outcomes = {True: 0, False: 0}
        for case in range(2400):
            ncols = rng.randint(0, 12)
            columns = rng.sample(range(-20, 60), ncols)
            hidden = columns[:]
            rng.shuffle(hidden)
            rows = []
            for _ in range(rng.randint(0, 10)):
                if case % 2 == 0 and ncols:
                    lo = rng.randrange(ncols)
                    rows.append(set(hidden[lo:rng.randint(lo + 1, ncols)]))
                else:
                    rows.append(set(rng.sample(columns, rng.randint(0, ncols))))
            want = support.c1p_first_by_search(columns, rows)
            assert consecutive_ones_order(columns, rows) == want, (columns, rows)
            outcomes[want is not None] += 1
        assert min(outcomes.values()) >= 300, outcomes

    def test_ordering_matches_the_search_on_shuffled_parts(self):
        rng = random.Random(43)
        for _ in range(40):
            parts = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
            inst = support.shuffled_convex_instance(rng, parts, 1, 3)
            co = find_convex_ordering(inst)
            assert co is not None
            assert co == support.convex_ordering_by_search(inst)


class TestRecognitionScale:
    def test_shuffled_160_plus_160(self):
        inst, _ = gen_convex_bipartite(160, 160, 2, 10, seed=5)
        perm = list(range(inst.n))
        random.Random(5).shuffle(perm)
        profits = [[0] * inst.n for _ in range(inst.k)]
        for j, row in enumerate(inst.profits):
            for v, p in enumerate(row):
                profits[j][perm[v]] = p
        shuffled = ConflictInstance.build(
            inst.n, inst.k, [(perm[u], perm[v]) for u, v in inst.edges], profits
        )
        start = time.perf_counter()
        co = find_convex_ordering(shuffled)
        elapsed = time.perf_counter() - start
        assert co is not None
        validate_convex_ordering(shuffled, co.a_order, co.b_vertices)
        assert elapsed < 1.0, elapsed

    def test_path_of_5000_vertices(self):
        n = 5000
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(n - 1)], [[1] * n])
        co = find_convex_ordering(inst)
        assert co is not None
        assert co.a_order == tuple(range(0, n, 2))
        validate_convex_ordering(inst, co.a_order, co.b_vertices)


class TestStageStructure:
    def test_example_table(self, example_graph):
        co = validate_convex_ordering(example_graph, range(13), range(13, 27))
        ss = stage_structure(co)
        assert ss.u == (4, 6, 11, 13)
        assert ss.v == (3, 8, 10, 14)
        for i, b in enumerate(ss.b_order):
            assert co.intervals[b] == (FIXTURE_B_MINUS[i], FIXTURE_B_PLUS[i])

    def test_single_edge(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[1, 1]])
        co = validate_convex_ordering(inst, [0], [1])
        ss = stage_structure(co)
        assert ss.u == (1,) and ss.v == (1,)

    def test_k22(self):
        inst = ConflictInstance.build(
            4, 1, [(0, 2), (0, 3), (1, 2), (1, 3)], [[1] * 4]
        )
        ss = stage_structure(validate_convex_ordering(inst, [0, 1], [2, 3]))
        assert ss.u == (2,) and ss.v == (2,)


class TestConnectedSolver:
    def test_path_unit_profits(self):
        inst = path_a1_b1_a2_b2()
        co = validate_convex_ordering(inst, [0, 1], [2, 3])
        pset = solve_connected_convex(inst, co)
        assert pset == brute_force_profiles(inst)
        assert max(min(q) for q in pset) == 2

    def test_single_edge_profiles(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[3, 7]])
        co = validate_convex_ordering(inst, [0], [1])
        assert set(solve_connected_convex(inst, co)) == {(0,), (3,), (7,)}

    def test_example_graph_frontier_vs_oracle(self, example_graph):
        # full enumeration of the 27-vertex fixture is out of reach; compare
        # the Pareto frontiers of the DP set and an independent greedy bound
        co = validate_convex_ordering(example_graph, range(13), range(13, 27))
        pset = convex_profile_set(example_graph, co)
        opt, profile, witness = solve_convex(example_graph, co)
        validate_coloring(example_graph, witness)
        assert profile_of(example_graph, witness) == profile
        assert max(min(q) for q in pset) == opt


class TestSolveConvex:
    def test_two_disjoint_edges(self):
        inst = ConflictInstance.build(4, 2, [(0, 2), (1, 3)], [[1] * 4] * 2)
        opt, profile, witness = solve_convex(inst)
        assert opt == 2
        validate_coloring(inst, witness)

    def test_single_vertex_two_agents(self):
        inst = ConflictInstance.build(1, 2, [], [[5], [5]])
        opt, profile, witness = solve_convex(inst)
        assert opt == 0

    def test_t1_plus_edge_matches_oracle(self):
        inst = ConflictInstance.build(
            4, 2, [(2, 3)], [[3, 1, 1, 1], [2, 2, 1, 1]]
        )
        opt, profile, witness = solve_convex(inst)
        want, _ = brute_force_optimum(inst)
        assert opt == want
        validate_coloring(inst, witness)
        assert profile_of(inst, witness) == profile

    def test_full_set_equals_oracle_small(self):
        rng = random.Random(7)
        for _ in range(40):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = support.random_convex_instance(rng, na, nb, rng.randint(1, 2), 5)
            assert convex_profile_set(inst) == brute_force_profiles(inst)

    def test_pruned_mode_same_optimum(self):
        rng = random.Random(8)
        for _ in range(30):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = support.random_convex_instance(rng, na, nb, 2, 5)
            opt_full, _, _ = solve_convex(inst, prune=False)
            opt_pruned, profile, witness = solve_convex(inst, prune=True)
            assert opt_full == opt_pruned
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == profile

    def test_three_agents_match_the_oracle(self):
        # k = 3 reaches all 2^3 patterns of decided guess entries
        rng = random.Random(10)
        for case in range(100):
            if rng.random() < 0.5:
                parts = [(rng.randint(1, 4), rng.randint(1, 3))]
            else:
                parts = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(2)]
            inst = support.shuffled_convex_instance(rng, parts, 3, 4)
            assert convex_profile_set(inst) == brute_force_profiles(inst), case
            opt, profile, witness = solve_convex(inst, prune=True)
            assert opt == brute_force_optimum(inst)[0], case
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == profile

    def test_stage_cells_respect_the_cap(self):
        # the full set holds 254 profiles and one stage cell holds 72
        inst, co = gen_convex_bipartite(4, 4, 2, 9, seed=3)
        assert len(solve_connected_convex(inst, co)) == 254
        with pytest.raises(ProfileCapError):
            solve_connected_convex(inst, co, cap=48)
        with pytest.raises(ProfileCapError):
            convex_profile_set(inst, co, cap=48)


class TestInvariants:
    def test_stage_tables_sound_and_complete(self):
        properties.prop_convex_stage_tables(60)

    def test_completeness(self):
        properties.prop_convex_completeness(100)

    def test_structure_properties(self):
        properties.prop_convex_structure_properties(150)

    def test_mis_agreement(self):
        properties.prop_convex_mis_agreement(100)

    def test_guess_key_hygiene(self):
        properties.prop_convex_guess_hygiene(60)

    def test_walk_realizes_every_member(self):
        properties.prop_convex_walk_realizes_every_member(100)

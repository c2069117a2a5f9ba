import itertools
import random
import time
from collections import Counter

import pytest

import properties
import support
from conftest import FIXTURE_B_MINUS, FIXTURE_B_PLUS

from fairkdiv import convex
from fairkdiv.convex import (
    _ConnectedConvexDP,
    _stage_structure,
    convex_profile_set,
    solve_convex,
)
from fairkdiv.recognition import (
    ConvexOrdering,
    OrderingError,
    consecutive_ones_order,
    find_convex_ordering,
    parse_ordering_file,
    validate_convex_ordering,
)
from fairkdiv.generators import gen_convex_bipartite
from fairkdiv.model import ConflictInstance, profile_of, validate_coloring
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.profiles import ProfileCapError, Run, decode


def path_a1_b1_a2_b2(k=2, profits=None):
    """a1-b1-a2-b2: A = {0, 1} (a1=0, a2=1), B = {2, 3} (b1=2, b2=3)."""
    rows = profits or [[1] * 4] * k
    return ConflictInstance.build(4, k, [(0, 2), (1, 2), (1, 3)], rows)


def _chain(node):
    """A vertex chain's nodes from its top node down to its leaf."""
    nodes = [node]
    while nodes[-1].children:
        (child,) = nodes[-1].children
        nodes.append(child)
    return nodes


def _colored(run, node):
    """The vertices a chain node's kept steps give to an agent."""
    return {vertex for *_, assigned in run.kept[id(node)] for vertex, _ in assigned}


def _rep(dp, m, g):
    """The largest interval start at most g of the B-positions after m, or 0."""
    starts = [dp.co.intervals[b][0] for b in dp.ss.b_order[m:]]
    return max([lo for lo in starts if lo <= g], default=0)


def _guess(stage, step):
    """The guess a stage step was made from: its predecessor key, with each
    hidden entry the A-position of the new vertex the step gives that agent."""
    new = {agent: stage.u_prev + 1 + stage.vertices.index(vertex) for vertex, agent in step[3]}
    return tuple(new.get(agent, g) for agent, g in enumerate(step[1][0]))


STRUCTURED = ("nested", "repeated", "shared-ends", "covering", "mixed")


def _intervals(kind: str, rng: random.Random, ncols: int) -> list[tuple[int, int]]:
    """Slices [lo, hi) of a hidden order of ncols columns, shaped by kind.

    nested: a chain, each inside the one before; repeated: a few intervals,
    each several times; shared-ends: intervals that start or end at the same
    few points; covering: rows over all columns among short ones; mixed:
    all of these together.
    """
    if kind == "mixed":
        return [iv for sub in STRUCTURED[:-1] for iv in _intervals(sub, rng, ncols)[:3]]
    if kind == "nested":
        lo, hi, out = 0, ncols, []
        while lo < hi:
            out.append((lo, hi))
            if rng.random() < 0.5:
                lo += 1
            else:
                hi -= 1
        return out
    if kind == "repeated":
        base = [_interval(rng, ncols) for _ in range(rng.randint(1, 3))]
        return [iv for iv in base for _ in range(rng.randint(2, 3))]
    if kind == "shared-ends":
        points = rng.sample(range(ncols + 1), min(3, ncols + 1))
        out = []
        for _ in range(rng.randint(2, 6)):
            a, b = sorted(rng.sample(points, 2)) if rng.random() < 0.5 else _interval(rng, ncols)
            out.append((a, b) if a < b else _interval(rng, ncols))
        return out
    return [(0, ncols)] * rng.randint(1, 2) + [_interval(rng, ncols) for _ in range(3)]


def _interval(rng: random.Random, ncols: int) -> tuple[int, int]:
    lo = rng.randrange(ncols)
    return lo, rng.randint(lo + 1, ncols)


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
        co = find_convex_ordering(inst)
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

    @pytest.mark.parametrize("rows", [
        # {3, 4, 7} overlaps the components {1, 2, 3} and {4, 5, 6}, both in one class of {1..7}
        [{1, 2, 3, 4, 5, 6, 7}, {7, 8, 9}, {1, 2, 3}, {4, 5, 6}, {3, 4, 7}],
        # {3, 4, 7} overlaps three components of the top class
        [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {3, 4, 7}],
    ], ids=["two-in-one-class", "three-at-the-top"])
    def test_row_overlapping_too_many_components(self, rows):
        columns = list(range(1, 10))
        assert support.c1p_first_by_search(columns, rows) is None
        assert consecutive_ones_order(columns, rows) is None

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
        # structured families: each kind of row over a hidden order, then
        # the same rows with one random row added
        kinds = {kind: 0 for kind in STRUCTURED}
        for case in range(1200):
            kind = STRUCTURED[case % len(STRUCTURED)]
            ncols = rng.randint(2, 12)
            columns = rng.sample(range(-20, 60), ncols)
            hidden = columns[:]
            rng.shuffle(hidden)
            rows = [set(hidden[lo:hi]) for lo, hi in _intervals(kind, rng, ncols)]
            rng.shuffle(rows)
            for extra in ([], [set(rng.sample(columns, rng.randint(1, ncols)))]):
                case_rows = rows + extra
                want = support.c1p_first_by_search(columns, case_rows)
                assert consecutive_ones_order(columns, case_rows) == want, (columns, case_rows)
            kinds[kind] += want is not None
        assert min(kinds.values()) >= 20, kinds

    def test_ordering_matches_the_search_on_shuffled_parts(self):
        rng = random.Random(43)
        for _ in range(40):
            parts = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
            inst = support.shuffled_convex_instance(rng, parts, 1, 3)
            co = find_convex_ordering(inst)
            assert co is not None
            assert co == support.convex_ordering_by_search(inst)


def _shuffled(inst: ConflictInstance, seed: int) -> ConflictInstance:
    perm = list(range(inst.n))
    random.Random(seed).shuffle(perm)
    profits = [[0] * inst.n for _ in range(inst.k)]
    for j, row in enumerate(inst.profits):
        for v, p in enumerate(row):
            profits[j][perm[v]] = p
    return ConflictInstance.build(
        inst.n, inst.k, [(perm[u], perm[v]) for u, v in inst.edges], profits
    )


def _timed(call):
    start = time.process_time()
    result = call()
    return result, time.process_time() - start


def _is_consecutive(order: list[int], rows: list[set[int]]) -> bool:
    pos = {c: i for i, c in enumerate(order)}
    return all(max(pos[c] for c in r) - min(pos[c] for c in r) + 1 == len(r) for r in rows)


class TestRecognitionScale:
    def test_shuffled_800_plus_800(self):
        inst, _ = gen_convex_bipartite(800, 800, 2, 10, seed=5)
        shuffled = _shuffled(inst, 5)
        co, elapsed = _timed(lambda: find_convex_ordering(shuffled))
        assert co is not None
        validate_convex_ordering(shuffled, co.a_order, co.b_vertices)
        assert elapsed < 1.0, elapsed

    def test_path_of_50000_vertices(self):
        n = 50000
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(n - 1)], [[1] * n])
        co = find_convex_ordering(inst)
        assert co is not None
        assert co.a_order == tuple(range(0, n, 2))
        validate_convex_ordering(inst, co.a_order, co.b_vertices)

    def test_nested_family_of_1500_rows(self):
        # each row inside the next: no two overlap, so each is its own component
        rng = random.Random(7)
        columns = rng.sample(range(10**6), 1500)
        rows = [set(columns[:i + 1]) for i in range(1500)]
        rng.shuffle(rows)
        order, elapsed = _timed(lambda: consecutive_ones_order(columns, rows))
        assert sorted(order) == sorted(columns)
        assert _is_consecutive(order, rows)
        assert elapsed < 1.0, elapsed

    def test_overlapping_family_of_1000_rows_of_width_1000(self):
        # every two rows overlap: one component whose classes are single columns
        rng = random.Random(8)
        columns = rng.sample(range(10**6), 1999)
        rows = [set(columns[i:i + 1000]) for i in range(1000)]
        rng.shuffle(rows)
        order, elapsed = _timed(lambda: consecutive_ones_order(columns, rows))
        assert order in (columns, columns[::-1])
        assert _is_consecutive(order, rows)
        assert elapsed < 1.0, elapsed


class TestStageStructure:
    def test_example_table(self, example_graph):
        co = validate_convex_ordering(example_graph, range(13), range(13, 27))
        ss = _stage_structure(co)
        assert ss.u == (4, 6, 11, 13)
        assert ss.v == (3, 8, 10, 14)
        for i, b in enumerate(ss.b_order):
            assert co.intervals[b] == (FIXTURE_B_MINUS[i], FIXTURE_B_PLUS[i])

    def test_single_edge(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[1, 1]])
        co = validate_convex_ordering(inst, [0], [1])
        ss = _stage_structure(co)
        assert ss.u == (1,) and ss.v == (1,)

    def test_k22(self):
        inst = ConflictInstance.build(
            4, 1, [(0, 2), (0, 3), (1, 2), (1, 3)], [[1] * 4]
        )
        ss = _stage_structure(validate_convex_ordering(inst, [0, 1], [2, 3]))
        assert ss.u == (2,) and ss.v == (2,)


class TestConnectedSolver:
    def test_path_unit_profits(self):
        inst = path_a1_b1_a2_b2()
        co = validate_convex_ordering(inst, [0, 1], [2, 3])
        pset = convex_profile_set(inst, co)
        assert pset == brute_force_profiles(inst)
        assert max(min(q) for q in pset) == 2

    def test_single_edge_profiles(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[3, 7]])
        co = validate_convex_ordering(inst, [0], [1])
        assert set(convex_profile_set(inst, co)) == {(0,), (3,), (7,)}

    def test_example_graph_frontier_vs_oracle(self, example_graph):
        # full enumeration of the 27-vertex fixture is out of reach; compare
        # the Pareto frontiers of the DP set and an independent greedy bound
        co = validate_convex_ordering(example_graph, range(13), range(13, 27))
        pset = convex_profile_set(example_graph, co)
        opt, profile, witness = solve_convex(example_graph, co)
        validate_coloring(example_graph, witness)
        assert profile_of(example_graph, witness) == profile
        assert max(min(q) for q in pset) == opt

    def test_stage_node_joins_pred_and_chain_once_per_guess(self):
        inst, co = gen_convex_bipartite(4, 4, 2, 9, seed=3)
        run = Run(inst.total_profits(), walk=True)
        dp = _ConnectedConvexDP(inst, co, False)
        dp.profile_set(run)
        for j, (stage, node) in enumerate(zip(dp.stages, dp.stage_nodes)):
            pred, chain = node.children
            assert pred.children == tuple(dp.stage_nodes[j - 1 : j])
            # the chain is one node per stage vertex that a part can take,
            # over a leaf keyed by the parts' ids; no two ids name equal rows
            assert len(set(stage.parts)) == len(stage.parts)
            assert {step[1][1] for step in stage.steps} == set(range(len(stage.parts)))
            takeable = [
                {vertex}
                for i, vertex in enumerate(stage.vertices)
                if any(max(part[i]) > 0 for part in stage.parts)
            ]
            *nodes, leaf = _chain(chain)
            assert [_colored(run, n) for n in reversed(nodes)] == takeable
            assert list(run.tables[id(leaf)]) == list(range(len(stage.parts)))
            # a passed entry is a rep of stage j - 1, a new one a distinct
            # new A-position; each step is keyed by its guess's reps
            pred_table = run.tables[id(pred)]
            u_prev = stage.u_prev
            passed = {_rep(dp, dp.ss.v[j - 1] if j else 0, g) for g in range(u_prev + 1)}
            values = sorted(passed) + list(range(u_prev + 1, dp.ss.u[j] + 1))
            guesses = [
                g
                for g in itertools.product(values, repeat=inst.k)
                if len({x for x in g if x > u_prev}) == sum(x > u_prev for x in g)
                and stage.key(g) in pred_table
            ]
            kept = run.kept[id(node)]
            assert [_guess(stage, step) for step in kept] == guesses
            for guess, (target, (key, pid), _, _) in zip(guesses, kept):
                assert key == stage.key(guess) and 0 <= pid < len(stage.parts)
                assert target == tuple(_rep(dp, dp.ss.v[j], g) for g in guess)

    @pytest.mark.parametrize("b1, first_chain", [(0, [{0}]), (9, [{1}, {0}])])
    def test_equal_parts_share_a_cell_and_a_vertex_no_part_takes_has_no_node(
        self, b1, first_chain
    ):
        # the path a1-b1-a2-b2-a3 (ids 0..4)
        profits = [[3, b1, 4, 6, 5], [2, 0, 1, 8, 7]]
        inst = ConflictInstance.build(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)], profits)
        co = validate_convex_ordering(inst, [0, 2, 4], [1, 3])
        run = Run(inst.total_profits(), walk=True)
        dp = _ConnectedConvexDP(inst, co, False)
        dp.profile_set(run)
        first, second = dp.stages
        assert first.vertices == [0, 2, 1] and second.vertices == [4, 3]
        # a stage's last A-vertex is taken only by the guess that names it,
        # so a2 and a3 never get a node; b1 gets one only if it is worth
        # something to an agent
        chains = [_chain(node.children[1]) for node in dp.stage_nodes]
        assert [_colored(run, n) for n in chains[0][:-1]] == first_chain
        assert [_colored(run, n) for n in chains[1][:-1]] == [{3}]
        # the first agent's guess a2 (passed) or a3 (taken) leaves it
        # nothing in this stage, so both guesses name one part; the last
        # stage keys both by (0, 0)
        steps = {_guess(second, step): step for step in run.kept[id(dp.stage_nodes[1])]}
        pid = steps[(2, 0)][1][1]
        assert steps[(3, 0)][1][1] == pid and second.parts[pid] == ((0, 0), (0, 8))
        assert steps[(2, 0)][0] == steps[(3, 0)][0] == (0, 0)
        opt, profile, witness = solve_convex(inst, co)
        assert opt == brute_force_optimum(inst)[0]
        assert profile_of(inst, witness) == profile

    def test_edgeless_component_with_zero_profit_has_no_vertex_node(self):
        inst = ConflictInstance.build(4, 2, [(0, 1)], [[1, 2, 3, 0], [2, 1, 0, 0]])
        run = Run(inst.total_profits(), walk=True)
        parts, _ = convex._merged_components(inst, None, run)
        # components (0, 1), (2,), (3,): each isolated vertex is a chain of its own
        root2, root3 = [root for _, root in parts[1:]]
        assert [_colored(run, n) for n in _chain(root2)[:-1]] == [{2}]
        assert _chain(root3) == [root3]
        # its leaf is keyed by the id of its one part
        assert list(run.tables[id(root3)]) == [0]
        assert solve_convex(inst)[0] == brute_force_optimum(inst)[0]


class TestFutureQuotient:
    @staticmethod
    def _solved(k=2):
        # A = a1..a4 (ids 0..3); b1 (id 4) on [1, 2], b2 (id 5) on [2, 4]
        profits = [[1, 2, 0, 0, 4, 0], [8, 16, 0, 0, 32, 0]][:k]
        edges = [(0, 4), (1, 4), (1, 5), (2, 5), (3, 5)]
        inst = ConflictInstance.build(6, k, edges, profits)
        co = validate_convex_ordering(inst, [0, 1, 2, 3], [4, 5])
        run = Run(inst.total_profits(), walk=True)
        dp = _ConnectedConvexDP(inst, co, False)
        pset = dp.profile_set(run)
        return inst, run, dp, pset

    def test_guesses_with_no_later_start_between_share_a_cell(self):
        inst, run, dp, _ = self._solved()
        assert dp.ss.u == (2, 4) and dp.ss.v == (1, 2)
        first = dp.stage_nodes[0]
        # b2 starts at 2, so after stage 1 the guesses 0 and 1 (a1) read
        # the same future, and 2 (a2) another
        targets = {_guess(dp.stages[0], step): step[0] for step in run.kept[id(first)]}
        assert targets == {
            (0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0),
            (0, 2): (0, 2), (1, 2): (0, 2), (2, 0): (2, 0), (2, 1): (2, 0),
        }
        table = run.tables[id(first)]
        assert sorted(table) == [(0, 0), (0, 2), (2, 0)]
        # the (0, 0) cell unions guesses (0, 0), (1, 0) and (0, 1): a1 and b1 to
        # different agents or not at all, a2 kept by neither
        want = {(0, 0), (4, 0), (0, 32), (1, 0), (1, 32), (0, 8), (4, 8)}
        assert {decode(c, 2) for c in table[(0, 0)].codes} == want

    @pytest.mark.parametrize("k", [1, 2])
    def test_last_stage_has_the_one_zero_key(self, k):
        inst, run, dp, pset = self._solved(k)
        table = run.tables[id(dp.stage_nodes[-1])]
        assert list(table) == [(0,) * k]
        assert set(table[(0,) * k]) == set(pset) == set(brute_force_profiles(inst))

    def test_multi_component_with_an_isolated_vertex_matches_the_oracle(self):
        rng = random.Random(27)
        for case in range(60):
            k = rng.randint(1, 3)
            size = 2 if k == 3 else 3
            parts = [(rng.randint(1, size), rng.randint(1, size)) for _ in range(2)] + [(1, 0)]
            inst = support.shuffled_convex_instance(rng, parts, k, 5)
            assert convex_profile_set(inst) == brute_force_profiles(inst), case
            opt, profile, witness = solve_convex(inst, prune=True)
            assert opt == brute_force_optimum(inst)[0], case
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == profile


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

    def test_caller_ordering_is_validated_against_the_whole_instance(self):
        # restricted to each component this A-order is convex, but in the
        # whole order vertex 6 meets positions 2 and 4 and not 3
        inst = ConflictInstance.build(7, 1, [(0, 1), (2, 5), (4, 5), (3, 6)], [[1] * 7])
        ordering = ConvexOrdering((0, 2, 3, 4), (1, 5, 6), {})
        message = (
            "neighborhood of vertex 6 is not an interval: "
            "gap at position 3 between positions 2 and 4"
        )
        for call in (solve_convex, convex_profile_set):
            with pytest.raises(OrderingError) as err:
                call(inst, ordering)
            assert str(err.value) == message
        # the same ordering as a file, as the CLI reads it
        with pytest.raises(OrderingError) as err:
            parse_ordering_file("A: 1 3 4 5\nB: 2 6 7\n", inst)
        assert str(err.value) == message

    def test_caller_ordering_with_isolated_vertices_between_runs(self):
        # components (0, 1, 2), (5, 6, 7, 8) and the isolated 3, 4 and 9:
        # the second component's run comes first, then the isolated A-vertices
        # 3 and 4, then the first component's run; 9 is on the B side
        edges = [(0, 2), (1, 2), (5, 7), (6, 7), (6, 8)]
        profits = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [2, 7, 1, 8, 2, 8, 1, 8, 2, 8]]
        inst = ConflictInstance.build(10, 2, edges, profits)
        co = validate_convex_ordering(inst, [6, 5, 3, 4, 1, 0], [2, 7, 8, 9])
        assert co.intervals == {2: (5, 6), 7: (1, 2), 8: (1, 1)}
        assert convex_profile_set(inst, co) == brute_force_profiles(inst)
        for prune in (True, False):
            opt, profile, witness = solve_convex(inst, co, prune=prune)
            assert opt == brute_force_optimum(inst)[0]
            assert profile_of(inst, witness) == profile

    @pytest.mark.parametrize("prune", [True, False])
    def test_steps_are_built_once_per_node(self, monkeypatch, prune):
        # the witness walk reads the steps the forward pass kept, in every
        # component: here three with edges and two isolated vertices
        calls: Counter = Counter()
        nodes = []

        class Counted(convex._Node):
            __slots__ = ()

            def __init__(self, make, *children):
                nodes.append(self)

                def counted(child_tables):
                    calls[id(self)] += 1
                    return make(child_tables)

                super().__init__(counted, *children)

        monkeypatch.setattr(convex, "_Node", Counted)
        inst = support.shuffled_convex_instance(random.Random(4), [(3, 3), (2, 2), (1, 0)], 2, 9)
        _, profile, witness = solve_convex(inst, prune=prune)
        assert profile_of(inst, witness) == profile
        assert calls == Counter({id(node): 1 for node in nodes})

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

    def test_three_or_more_components_match_the_oracle(self):
        # the pruned witness splits its target over two or more pruned merges
        rng = random.Random(11)
        for case in range(60):
            parts = [(rng.randint(1, 2), rng.randint(0, 1)) for _ in range(rng.randint(3, 4))]
            k = 3 if sum(map(sum, parts)) <= 8 else 2
            inst = support.shuffled_convex_instance(rng, parts, k, 4)
            assert convex_profile_set(inst) == brute_force_profiles(inst), case
            opt, profile, witness = solve_convex(inst, prune=True)
            assert opt == brute_force_optimum(inst)[0], case
            validate_coloring(inst, witness)
            assert profile_of(inst, witness) == profile

    def test_stage_cells_respect_the_cap(self):
        # the full set holds 254 profiles and one stage cell holds 72
        inst, co = gen_convex_bipartite(4, 4, 2, 9, seed=3)
        assert len(convex_profile_set(inst, co)) == 254
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

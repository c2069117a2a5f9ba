import random
import time
from collections import Counter

import pytest

import properties
import support

from fairkdiv import treeindep
from fairkdiv.chordal import clique_tree_of_chordal, maximum_cardinality_search
from fairkdiv.generators import gen_partial_ktree
from fairkdiv.model import ConflictInstance, connected_components, profile_of, validate_coloring
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.profiles import ProfileSet, Run
from fairkdiv.treeindep import (
    AlphaCapError,
    DecompositionError,
    NiceNode,
    TreeDecomposition,
    make_nice,
    parse_tree_decomposition,
    serialize_tree_decomposition,
    solve_tin,
    tin_dp_node,
    tin_profile_set,
    trim_td,
    validate_td,
)

P3_TD_TEXT = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def p3_instance(k=2):
    return ConflictInstance.build(3, k, [(0, 1), (1, 2)], [[1, 1, 1]] * k)


class TestParse:
    def test_p3_decomposition(self):
        td = parse_tree_decomposition(P3_TD_TEXT)
        assert td.bags == {1: frozenset({0, 1}), 2: frozenset({1, 2})}
        assert td.edges == ((1, 2),)

    def test_single_empty_bag(self):
        td = parse_tree_decomposition("s td 1 0 0\nb 1\n")
        assert td.bags == {1: frozenset()}

    def test_disconnected_tree_rejected(self):
        with pytest.raises(DecompositionError, match="tree edges"):
            parse_tree_decomposition("s td 2 1 2\nb 1 1\nb 2 2\n")

    def test_duplicate_bag_rejected(self):
        with pytest.raises(DecompositionError, match="duplicate bag"):
            parse_tree_decomposition("s td 2 1 2\nb 1 1\nb 1 2\n1 1\n")

    def test_roundtrip(self):
        td = parse_tree_decomposition(P3_TD_TEXT)
        again = parse_tree_decomposition(serialize_tree_decomposition(td))
        assert again.bags == td.bags and set(again.edges) == set(td.edges)


class TestValidate:
    def test_p3(self):
        td = parse_tree_decomposition(P3_TD_TEXT)
        width, ell = validate_td(p3_instance(), td)
        assert width == 1 and ell == 1

    def test_k22_single_bag(self):
        inst = ConflictInstance.build(
            4, 1, [(0, 2), (0, 3), (1, 2), (1, 3)], [[1] * 4]
        )
        td = TreeDecomposition(n=4, bags={1: frozenset(range(4))}, edges=())
        width, ell = validate_td(inst, td)
        assert width == 3 and ell == 2

    def test_missing_edge_coverage(self):
        inst = ConflictInstance.build(3, 1, [(0, 2)], [[1] * 3])
        td = parse_tree_decomposition(P3_TD_TEXT)
        with pytest.raises(DecompositionError, match="axiom 2"):
            validate_td(inst, td)

    def test_uncovered_vertex(self):
        inst = ConflictInstance.build(3, 1, [], [[1] * 3])
        td = TreeDecomposition(n=3, bags={1: frozenset({0, 1})}, edges=())
        with pytest.raises(DecompositionError, match="axiom 1"):
            validate_td(inst, td)

    def test_disconnected_vertex_subtree(self):
        inst = ConflictInstance.build(3, 1, [], [[1] * 3])
        bags = {1: frozenset({0}), 2: frozenset({1}), 3: frozenset({0, 2})}
        td = TreeDecomposition(n=3, bags=bags, edges=((1, 2), (2, 3)))
        with pytest.raises(DecompositionError, match="axiom 3"):
            validate_td(inst, td)

    def test_bag_of_1100_disjoint_edges(self):
        # every vertex has one neighbour, so the search takes one per edge
        # without branching
        n = 2200
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(0, n, 2)], [[1] * n])
        td = TreeDecomposition(n=n, bags={1: frozenset(range(n))}, edges=())
        start = time.process_time()
        assert validate_td(inst, td) == (n - 1, 1100)
        elapsed = time.process_time() - start
        assert elapsed < 1.0, elapsed

    def test_bag_of_1100_disjoint_triangles(self):
        # no vertex has fewer than two neighbours, but each triangle is its
        # own component, searched apart from the others
        n = 3300
        edges = [(v + i, v + j) for v in range(0, n, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
        inst = ConflictInstance.build(n, 1, edges, [[1] * n])
        td = TreeDecomposition(n=n, bags={1: frozenset(range(n))}, edges=())
        start = time.process_time()
        assert validate_td(inst, td) == (n - 1, 1100)
        elapsed = time.process_time() - start
        assert elapsed < 1.0, elapsed

    def test_deep_bag_hits_the_node_cap(self, monkeypatch):
        # a 20 x 20 grid in one bag: connected, so splitting into components
        # cannot help, and every vertex has two to four neighbours, so the
        # search branches far past the cap
        side = 20
        n = side * side
        edges = [(v, v + 1) for v in range(n) if v % side < side - 1]
        edges += [(v, v + side) for v in range(n - side)]
        inst = ConflictInstance.build(n, 1, edges, [[1] * n])
        td = TreeDecomposition(n=n, bags={1: frozenset(range(n))}, edges=())
        monkeypatch.setattr(treeindep, "DEFAULT_ALPHA_NODE_CAP", 2000)
        start = time.process_time()
        with pytest.raises(AlphaCapError, match="exceeded 2000 nodes"):
            validate_td(inst, td)
        elapsed = time.process_time() - start
        assert elapsed < 2.0, elapsed

    def test_path_of_20000_vertices(self):
        # per-vertex holder lists keep the axiom checks linear in the bags
        n = 20000
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(n - 1)], [[1] * n])
        bags = {i: frozenset({i, i + 1}) for i in range(n - 1)}
        td = TreeDecomposition(n=n, bags=bags, edges=tuple((i, i + 1) for i in range(n - 2)))
        start = time.process_time()
        assert validate_td(inst, td) == (1, 1)
        elapsed = time.process_time() - start
        assert elapsed < 2.0, elapsed


class TestMakeNice:
    def test_p3_chain(self):
        td = parse_tree_decomposition(P3_TD_TEXT)
        nice = make_nice(td)
        kinds = [node.kind for node in nice.nodes()]
        assert kinds[0] == "leaf" and nice.root.bag == frozenset()
        assert "join" not in kinds  # path decomposition stays a chain
        # output is itself a valid decomposition with the same coverage
        bags = {i + 1: node.bag for i, node in enumerate(nice.nodes())}
        inst = p3_instance()
        covered = frozenset().union(*bags.values())
        assert covered == frozenset(range(3))

    def test_single_empty_bag(self):
        td = TreeDecomposition(n=0, bags={1: frozenset()}, edges=())
        nice = make_nice(td)
        assert nice.root.kind == "leaf"

    def test_revalidates_with_same_or_smaller_ell(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 8)
            width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
            from fairkdiv.generators import gen_partial_ktree

            inst, td = gen_partial_ktree(n, width, 1, 3, rng.randrange(1 << 30))
            _, ell = validate_td(inst, td)
            nice = make_nice(td)
            nodes = nice.nodes()
            # node count stays O(n * bags)
            assert len(nodes) <= 4 * (n + 1) * (len(td.bags) + 1)
            for node in nodes:
                node.check()
                assert any(node.bag <= bag for bag in td.bags.values())

    def test_roots_at_the_least_degree_bag(self):
        # a star of bags: bag 1 in the middle, bags 2-4 around it
        bags = {1: frozenset({0, 1}), 2: frozenset({0, 2}), 3: frozenset({1, 3}), 4: frozenset({1, 4})}
        nice = make_nice(TreeDecomposition(n=5, bags=bags, edges=((1, 2), (1, 3), (1, 4))))
        node = nice.root
        while node.kind == "forget":
            (node,) = node.children
        assert node.bag == bags[2] and node.kind != "join"
        assert [x.kind for x in nice.nodes()].count("join") == 1


class TestTrim:
    def test_drops_a_vertex_whose_edges_the_next_bag_holds(self):
        # path 0-1-2-3 in bags {0,1}, {0,1,2}, {2,3}: edge 01 is in bag 1 too
        inst = ConflictInstance.build(4, 1, [(0, 1), (1, 2), (2, 3)], [[1] * 4])
        td = TreeDecomposition(
            n=4, bags={1: frozenset({0, 1}), 2: frozenset({0, 1, 2}), 3: frozenset({2, 3})},
            edges=((1, 2), (2, 3)),
        )
        trimmed = trim_td(inst, td)
        assert trimmed.bags == {1: frozenset({0, 1}), 2: frozenset({1, 2}), 3: frozenset({2, 3})}
        assert trimmed.edges == td.edges
        assert validate_td(inst, trimmed) == (1, 1)

    def test_keeps_an_edge_only_one_bag_holds(self):
        # edge 02 is in bag 2 alone, so 0 and then 1 leave bag 1 instead
        inst = ConflictInstance.build(3, 1, [(0, 1), (0, 2)], [[1] * 3])
        td = TreeDecomposition(
            n=3, bags={1: frozenset({0, 1}), 2: frozenset({0, 1, 2})}, edges=((1, 2),)
        )
        assert trim_td(inst, td).bags == {1: frozenset(), 2: frozenset({0, 1, 2})}

    def test_isolated_vertex_keeps_one_holder(self):
        inst = ConflictInstance.build(2, 1, [], [[1, 1]])
        bags = {1: frozenset({0, 1}), 2: frozenset({0, 1}), 3: frozenset({0, 1})}
        trimmed = trim_td(inst, TreeDecomposition(n=2, bags=bags, edges=((1, 2), (2, 3))))
        for v in (0, 1):
            assert sum(v in bag for bag in trimmed.bags.values()) == 1
        validate_td(inst, trimmed)

    def test_solvers_run_on_the_trimmed_decomposition(self, monkeypatch):
        inst, td = gen_partial_ktree(12, 2, 2, 9, seed=5, delete_prob=0.3)
        seen = []
        nice = treeindep.make_nice

        def recorded(decomposition):
            seen.append(decomposition.bags)
            return nice(decomposition)

        monkeypatch.setattr(treeindep, "make_nice", recorded)
        solve_tin(inst, td)
        tin_profile_set(inst, td)
        assert seen == [trim_td(inst, td).bags] * 2
        assert sum(map(len, seen[0].values())) < sum(map(len, td.bags.values()))


class TestEnumerateBagColorings:
    def test_edge_one_agent(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[1, 1]])
        assert support.enumerate_bag_colorings(inst, {0, 1}) == [(0, 0), (0, 1), (1, 0)]

    def test_empty_bag(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[1, 1]])
        assert support.enumerate_bag_colorings(inst, set()) == [()]

    def test_independent_pair_two_agents(self):
        inst = ConflictInstance.build(2, 2, [], [[1, 1]] * 2)
        assert len(support.enumerate_bag_colorings(inst, {0, 1})) == 9


class TestDpNode:
    """Unpruned cells are held on the instance's grid; they compare as ProfileSets.

    With k = 1 a key's digits are single bits; tables are compared decoded.
    """

    @staticmethod
    def colors(table, size):
        return {support.tin_key_colors(key, 1, size): cell for key, cell in table.items()}

    def test_introduce_into_empty_bag(self):
        inst = ConflictInstance.build(1, 1, [], [[5]])
        run = Run(inst.total_profits())
        leaf = NiceNode(kind="leaf", bag=frozenset())
        intro = NiceNode(kind="introduce", bag=frozenset({0}), vertex=0, children=(leaf,))
        leaf_table = tin_dp_node(leaf, [], inst, run)
        table = tin_dp_node(intro, [leaf_table], inst, run)
        # the profit is booked when the vertex is forgotten
        assert self.colors(table, 1) == {
            (0,): ProfileSet(1, {(0,)}),
            (1,): ProfileSet(1, {(0,)}),
        }

    def test_forget_unions_extensions(self):
        inst = ConflictInstance.build(1, 1, [], [[5]])
        run = Run(inst.total_profits())
        leaf = NiceNode(kind="leaf", bag=frozenset())
        intro = NiceNode(kind="introduce", bag=frozenset({0}), vertex=0, children=(leaf,))
        forget = NiceNode(kind="forget", bag=frozenset(), vertex=0, children=(intro,))
        table = tin_dp_node(
            forget, [tin_dp_node(intro, [tin_dp_node(leaf, [], inst, run)], inst, run)], inst, run
        )
        assert self.colors(table, 0) == {(): ProfileSet(1, {(0,), (5,)})}

    def test_join_adds_equal_keys(self):
        """Cells count forgotten vertices only, so the join adds them with no correction."""
        inst = ConflictInstance.build(1, 1, [], [[5]])
        run = Run(inst.total_profits())
        # keys of the bag {0}: 0 leaves vertex 0 uncolored, 1 gives it agent 1
        first = {
            0: support.on_grid(run.grid, ProfileSet(1, {(0,)})),
            1: support.on_grid(run.grid, ProfileSet(1, {(1,), (2,)})),
        }
        second = {1: support.on_grid(run.grid, ProfileSet(1, {(3,)}))}
        join = NiceNode(
            kind="join",
            bag=frozenset({0}),
            children=(
                NiceNode(kind="leaf", bag=frozenset({0})),  # placeholder children
                NiceNode(kind="leaf", bag=frozenset({0})),
            ),
        )
        table = tin_dp_node(join, [first, second], inst, run)
        assert self.colors(table, 1) == {(1,): ProfileSet(1, {(4,), (5,)})}


class TestSolve:
    def test_p3_two_agents(self):
        inst = p3_instance(k=2)
        td = parse_tree_decomposition(P3_TD_TEXT)
        opt, profile, witness = solve_tin(inst, td)
        assert opt == 1
        validate_coloring(inst, witness)
        assert profile_of(inst, witness) == profile

    def test_k4_single_bag(self):
        inst = ConflictInstance.build(
            4, 2,
            [(i, j) for i in range(4) for j in range(i + 1, 4)],
            [[4, 3, 2, 1], [4, 3, 2, 1]],
        )
        td = TreeDecomposition(n=4, bags={1: frozenset(range(4))}, edges=())
        opt, _, witness = solve_tin(inst, td)
        assert opt == 3
        validate_coloring(inst, witness)

    def test_two_triangles_sharing_edge(self):
        inst = ConflictInstance.build(
            4, 2, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [[1] * 4] * 2
        )
        td = clique_tree_of_chordal(inst)
        assert td is not None
        assert len(td.bags) == 2 and len(td.edges) == 1
        _, ell = validate_td(inst, td)
        assert ell == 1
        opt, _, witness = solve_tin(inst, td)
        want, _ = brute_force_optimum(inst)
        assert opt == want
        validate_coloring(inst, witness)

    @pytest.mark.parametrize("prune", [True, False])
    def test_steps_are_built_once_per_node(self, monkeypatch, prune):
        # the witness walk reads the steps the forward pass kept
        inst, td = gen_partial_ktree(12, 2, 2, 9, seed=5, delete_prob=0.3)
        calls: Counter = Counter()
        tin_steps = treeindep.tin_steps

        def counted(node, child_tables, inst):
            calls[id(node)] += 1
            return tin_steps(node, child_tables, inst)

        monkeypatch.setattr(treeindep, "tin_steps", counted)
        _, profile, witness = solve_tin(inst, td, prune=prune)
        assert profile_of(inst, witness) == profile
        assert len(calls) == len(make_nice(trim_td(inst, td)).nodes())
        assert set(calls.values()) == {1}

    def test_full_profile_set(self):
        rng = random.Random(13)
        for _ in range(30):
            inst = support.random_instance(rng, rng.randint(1, 7), rng.randint(1, 2), 5)
            td = TreeDecomposition(n=inst.n, bags={1: frozenset(range(inst.n))}, edges=())
            assert tin_profile_set(inst, td) == brute_force_profiles(inst)


def chordal_union(rng: random.Random, parts: int, isolated: int) -> ConflictInstance:
    """Disjoint k-trees and isolated vertices, relabelled by a random permutation."""
    edges = []
    n = 0
    for _ in range(parts):
        size = rng.randint(1, 4)
        width = 0 if size == 1 else rng.randint(1, min(3, size - 1))
        part, _ = gen_partial_ktree(size, width, 1, 3, rng.randrange(1 << 30), delete_prob=0.0)
        edges += [(u + n, v + n) for u, v in part.edges]
        n += size
    n += isolated
    label = list(range(n))
    rng.shuffle(label)
    return ConflictInstance.build(n, 1, [(label[u], label[v]) for u, v in edges], [[1] * n])


class TestCliqueTree:
    def test_triangle(self):
        inst = ConflictInstance.build(3, 1, [(0, 1), (1, 2), (0, 2)], [[1] * 3])
        td = clique_tree_of_chordal(inst)
        assert td is not None
        assert list(td.bags.values()) == [frozenset({0, 1, 2})]
        _, ell = validate_td(inst, td)
        assert ell == 1

    def test_c4_not_chordal(self):
        inst = ConflictInstance.build(4, 1, [(0, 1), (1, 2), (2, 3), (0, 3)], [[1] * 4])
        assert clique_tree_of_chordal(inst) is None

    def test_bags_are_the_maximal_cliques(self):
        # random graphs (mostly not chordal), k-trees, and disjoint k-trees
        # with isolated vertices under a random relabelling
        rng = random.Random(29)
        seen = {"not chordal": 0, "disconnected": 0, "empty": 0}
        for case in range(300):
            if case % 3 == 0:
                inst = support.random_instance(rng, rng.randint(0, 9), 1, 3, density=rng.random())
            else:
                inst = chordal_union(rng, parts=1 + case % 3, isolated=rng.randint(0, 2))
            td = clique_tree_of_chordal(inst)
            assert (td is None) == (not support.is_chordal_by_elimination(inst)), inst
            if td is None:
                seen["not chordal"] += 1
                continue
            if inst.n == 0:
                seen["empty"] += 1
                assert td.bags == {1: frozenset()} and td.edges == ()
                continue
            seen["disconnected"] += len(connected_components(inst)) > 1
            cliques = sorted(support.maximal_cliques_by_brute_force(inst), key=sorted)
            assert list(td.bags.items()) == list(enumerate(cliques, start=1)), inst
            assert validate_td(inst, td) == (max(map(len, cliques)) - 1, 1)
        assert min(seen.values()) > 0, seen

    def test_path_of_20000_vertices(self):
        # a spanning tree over all clique pairs, O(n^2 log n), would take
        # about 4 minutes here (2.3 s at 2,000 vertices, extrapolated)
        n = 20000
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(n - 1)], [[1] * n])
        start = time.process_time()
        td = clique_tree_of_chordal(inst)
        elapsed = time.process_time() - start
        assert td.bags == {i + 1: frozenset({i, i + 1}) for i in range(n - 1)}
        assert td.edges == tuple((i, i + 1) for i in range(1, n - 1))
        assert elapsed < 1.0, elapsed

    def test_bag_count_linear(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 9)
            width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
            from fairkdiv.generators import gen_partial_ktree

            inst, _ = gen_partial_ktree(n, width, 1, 3, rng.randrange(1 << 30),
                                        delete_prob=0.0)
            td = clique_tree_of_chordal(inst)
            assert td is not None and len(td.bags) <= max(n, 1)


class TestMaximumCardinalitySearch:
    def test_matches_linear_scan(self):
        from fairkdiv.generators import gen_partial_ktree

        rng = random.Random(23)
        for case in range(60):
            n = rng.randint(0, 30)
            if case % 2:
                # chordal: a k-tree with no edge deleted
                width = 0 if n <= 1 else rng.randint(1, min(4, n - 1))
                inst, _ = gen_partial_ktree(n, width, 1, 3, rng.randrange(1 << 30),
                                            delete_prob=0.0)
            else:
                inst = support.random_instance(rng, n, 1, 3, density=rng.random())
            assert maximum_cardinality_search(inst) == support.mcs_by_scan(inst), case

    def test_path_of_20000_vertices(self):
        # a linear scan per visit, O(n^2), would take about 40 s here (extrapolated)
        n = 20000
        inst = ConflictInstance.build(n, 1, [(v, v + 1) for v in range(n - 1)], [[1] * n])
        start = time.process_time()
        order = maximum_cardinality_search(inst)
        elapsed = time.process_time() - start
        assert order == list(range(n))
        assert elapsed < 1.0, elapsed


class TestInvariants:
    def test_node_soundness(self):
        properties.prop_tin_node_soundness(60)

    def test_single_bag_equals_oracle(self):
        properties.prop_tin_single_bag(150)

    def test_chordal_route(self):
        properties.prop_tin_chordal_route(100)

    def test_step_offsets_are_assigned_profits(self):
        properties.prop_step_offsets_are_assigned_profits(80)

    def test_trimmed_decomposition(self):
        properties.prop_tin_trim(150)

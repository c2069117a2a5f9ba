import contextlib
import io
import random

import pytest

import properties
import support

from fairkdiv.cli import main
from fairkdiv import cliquewidth as cliquewidth_module, profiles, treeindep as treeindep_module
from fairkdiv.generators import gen_convex_bipartite, gen_partial_ktree
from fairkdiv.cliquewidth import _walk, cliquewidth_profile_set, cw_run, label_bits, solve_cliquewidth
from fairkdiv.convex import convex_profile_set, solve_convex
from fairkdiv.model import (
    MAX_PROFIT_SUM,
    ConflictInstance,
    profile_of,
    serialize_instance,
    validate_coloring,
)
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.bitgrid import Grid
from fairkdiv.profiles import (
    GRID_MAX_BITS,
    ProfileCapError,
    ProfileSet,
    best_profile,
    best_satisfaction,
    dominance_prune,
    merge_profile_sets,
    Run,
    profile_grid,
)
from fairkdiv.treeindep import (
    TreeDecomposition,
    make_nice,
    serialize_tree_decomposition,
    solve_tin,
    tin_profile_set,
)

T1_ROWS = [(3, 2), (1, 2)]
T1_SET = {(0, 0), (1, 0), (3, 0), (4, 0), (0, 2), (0, 4), (1, 2), (3, 2)}
# coordinates that sit at and next to the edges of a packed field
EDGE_VALUES = (0, 1, 2, 7, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)


def random_profiles(rng: random.Random, k: int, size: int, values=EDGE_VALUES) -> set:
    return {tuple(rng.choice(values) for _ in range(k)) for _ in range(size)}


def edgeless_instance(k: int, rows: list) -> ConflictInstance:
    """The edgeless instance whose i-th vertex is worth rows[i][j] to agent j."""
    return ConflictInstance.build(len(rows), k, [], [[row[j] for row in rows] for j in range(k)])


def pareto_front(profiles: set) -> set:
    """The definition: members no other member is >= in every coordinate."""
    return {
        q for q in profiles
        if not any(p != q and all(a >= b for a, b in zip(p, q)) for p in profiles)
    }


class TestEdgeless:
    """The edgeless enumeration: convex's vertex chain on an instance without edges."""

    def test_single_vertex(self):
        assert set(convex_profile_set(edgeless_instance(2, [(5, 3)]))) == {(0, 0), (5, 0), (0, 3)}

    def test_empty_list(self):
        assert set(convex_profile_set(edgeless_instance(3, []))) == {(0, 0, 0)}

    def test_t1(self, t1_instance):
        # frozen from enumerating all 3^2 assignments of the two vertices
        got = convex_profile_set(edgeless_instance(2, T1_ROWS))
        assert set(got) == T1_SET
        assert got == brute_force_profiles(t1_instance)

    def test_cap(self):
        with pytest.raises(ProfileCapError):
            convex_profile_set(edgeless_instance(1, [(1,), (2,), (4,), (8,)]), cap=3)


class TestMerge:
    def test_identity(self):
        s = ProfileSet(2, {(1, 2), (0, 0), (5, 1)})
        assert merge_profile_sets(ProfileSet.zero(2), s) == s

    def test_hand_enumeration(self):
        s = ProfileSet(2, {(1, 0), (0, 1)})
        assert set(merge_profile_sets(s, s)) == {(2, 0), (1, 1), (0, 2)}

    def test_edgeless_components_merge(self):
        left = convex_profile_set(edgeless_instance(2, [(3, 2)]))
        right = convex_profile_set(edgeless_instance(2, [(1, 2)]))
        assert set(merge_profile_sets(left, right)) == T1_SET


class TestBestSatisfaction:
    def test_examples(self):
        assert best_satisfaction(ProfileSet.zero(2)) == 0
        assert best_satisfaction(ProfileSet(2, T1_SET)) == 2
        assert best_satisfaction(ProfileSet(2, {(5, 1), (3, 3), (1, 5)})) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            best_satisfaction(ProfileSet(2, []))

    def test_best_profile_is_pareto_maximal(self):
        value, profile = best_profile(ProfileSet(2, T1_SET))
        assert value == 2 and profile == (3, 2)

    def test_best_profile_matches_tuple_formula(self):
        rng = random.Random(12)
        for _ in range(300):
            k = rng.randint(1, 3)
            members = random_profiles(rng, k, rng.randint(1, 12), values=range(6))
            best = max(min(q) for q in members)
            want = min(q for q in pareto_front(members) if min(q) == best)
            assert best_profile(ProfileSet(k, members)) == (best, want)


class TestDominancePrune:
    def test_dominated_pair(self):
        assert set(dominance_prune(ProfileSet(2, {(1, 1), (2, 2)}))) == {(2, 2)}

    def test_antichain_unchanged(self):
        anti = ProfileSet(2, {(5, 1), (3, 3), (1, 5)})
        assert dominance_prune(anti) == anti

    @pytest.mark.parametrize(
        "members", [{(4,)}, {(5, 1), (1, 5)}, {(3, 0, 1), (0, 3, 1), (1, 1, 1)}]
    )
    def test_front_is_returned_as_is(self, members):
        front = ProfileSet(len(next(iter(members))), members)
        assert dominance_prune(front) is front

    def test_t1_frontier(self):
        pruned = dominance_prune(ProfileSet(2, T1_SET))
        assert set(pruned) == {(4, 0), (3, 2), (0, 4)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_definition(self, k):
        rng = random.Random(100 + k)
        for _ in range(300):
            for values in (range(5), EDGE_VALUES):
                members = random_profiles(rng, k, rng.randint(0, 15), values)
                assert set(dominance_prune(ProfileSet(k, members))) == pareto_front(members)

    @pytest.mark.parametrize("k", [3, 4])
    def test_front_compares_codes_without_decoding(self, k, monkeypatch):
        rng = random.Random(200 + k)
        members = random_profiles(rng, k, 60, values=range(4))
        s = ProfileSet(k, members)
        want = ProfileSet(k, pareto_front(members)).codes
        assert len(want) < len(s)

        def no_decode(code, arity):
            raise AssertionError("a k >= 3 prune decoded a code")

        monkeypatch.setattr(profiles, "decode", no_decode)
        assert dominance_prune(s).codes == want


class TestCodeCellCap:
    @pytest.mark.parametrize(
        "steps, child_tables, front",
        [
            # two unary steps fill the cell with 0, 1, 2 and 5
            ([("c", ("a",), 0, ()), ("c", ("b",), 0, ())],
             [{"a": frozenset([0, 1]), "b": frozenset([2, 5])}], 5),
            # one binary step, through add_sums: {0, 1} + {0, 2} + 1 is 1, 2, 3 and 4
            ([("c", ("a", "b"), 1, ())], [{"a": frozenset([0, 1])}, {"b": frozenset([0, 2])}], 4),
        ],
        ids=["unary", "binary"],
    )
    def test_cap_counts_a_pruned_cell_before_its_prune(self, steps, child_tables, front):
        # k = 1: a code is its profit, and the front of a cell is its largest code
        with pytest.raises(ProfileCapError):
            profiles.build_table(1, steps, child_tables, cap=3, prune=True)
        table = profiles.build_table(1, steps, child_tables, cap=4, prune=True)
        assert table == {"c": frozenset([front])}


class TestDumpFormat:
    def test_sorted_lines(self):
        s = ProfileSet(2, {(3, 2), (0, 4), (1, 0)})
        assert s.dump() == "0 4\n1 0\n3 2"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dump_order_is_tuple_order(self, k):
        rng = random.Random(k)
        for _ in range(100):
            members = random_profiles(rng, k, rng.randint(0, 20))
            s = ProfileSet(k, members)
            assert s.sorted_profiles() == sorted(members)
            assert s.dump() == "\n".join(" ".join(map(str, q)) for q in sorted(members))


class TestPackedLayout:
    def test_rejects_profiles_that_do_not_fit(self):
        for bad in [(-1, 0), (0, -1), (2**64, 0), (0, 2**64), (1, 2, 3), (1,)]:
            with pytest.raises(ValueError):
                ProfileSet(2, [bad])
        assert set(ProfileSet(2, [(2**64 - 1, 2**64 - 1)])) == {(2**64 - 1, 2**64 - 1)}

    def test_membership_of_profiles_that_do_not_fit(self):
        # each probe would alias the member's code if it were packed unchecked
        assert (0, 2**64) not in ProfileSet(2, [(1, 0)])
        assert (1, -1) not in ProfileSet(2, [(0, 2**64 - 1)])
        assert (2**64,) not in ProfileSet(1, [(2**64 - 1,)])
        s = ProfileSet(2, [(0, 0), (3, 4)])
        for probe in [(-1, 0), (0, 0, 0), (3,), (2**64, 0), "ab", 7]:
            assert probe not in s
        assert (3, 4) in s

    def test_sums_up_to_the_field_limit(self):
        top = 2**64 - 1
        merged = merge_profile_sets(
            ProfileSet(2, [(2**63, 0), (0, 2**64 - 2)]), ProfileSet(2, [(2**63 - 1, 1), (0, 0)])
        )
        assert set(merged) == {(2**63, 0), (0, 2**64 - 2), (top, 1), (2**63 - 1, top)}

    @pytest.mark.parametrize("k", [2, 3])
    def test_agent_totals_at_the_limit(self, k):
        """Every field full to MAX_PROFIT_SUM: no sum may carry across fields."""
        row = [2**62, 2**61, 2**60, 2**59, 2**59 - 1]
        assert sum(row) == MAX_PROFIT_SUM
        profits = [row[j:] + row[:j] for j in range(k)]
        # a path on 0..3 plus the isolated vertex 4: convex, two components
        inst = ConflictInstance.build(5, k, [(0, 1), (1, 2), (2, 3)], profits)
        assert inst.total_profits() == (MAX_PROFIT_SUM,) * k
        # three children under bag 1 give join nodes
        td = TreeDecomposition(
            n=5,
            bags={1: frozenset({1, 2}), 2: frozenset({0, 1}), 3: frozenset({2, 3}), 4: frozenset({4})},
            edges=((1, 2), (1, 3), (1, 4)),
        )
        expr = support.whole_graph_expression(inst)
        want = brute_force_profiles(inst)
        assert convex_profile_set(inst) == want
        assert cliquewidth_profile_set(inst, expr) == want
        assert tin_profile_set(inst, td) == want
        optimum, _ = brute_force_optimum(inst)
        for solve, side in ((solve_convex, None), (solve_cliquewidth, expr), (solve_tin, td)):
            for prune in (False, True):
                got, profile, witness = solve(inst, side, prune=prune)
                validate_coloring(inst, witness)
                assert profile_of(inst, witness) == profile
                assert got == min(profile) == optimum, (solve.__name__, prune)


def path_with_isolated_vertex(k: int, profits) -> tuple[ConflictInstance, TreeDecomposition]:
    """A path on 0..3 plus the isolated vertex 4, and a decomposition with joins at bag {1, 2}.

    The graph is convex bipartite with two components; the three children
    of bag 1 give join nodes over vertices 1 and 2, whose profits are
    booked when the root's chain forgets them.
    """
    inst = ConflictInstance.build(5, k, [(0, 1), (1, 2), (2, 3)], profits)
    td = TreeDecomposition(
        n=5,
        bags={1: frozenset({1, 2}), 2: frozenset({0, 1}), 3: frozenset({2, 3}), 4: frozenset({4})},
        edges=((1, 2), (1, 3), (1, 4)),
    )
    return inst, td


class TestGrid:
    @pytest.mark.parametrize(
        "totals", [(0,), (9,), (4, 0), (0, 5), (3, 7), (2, 0, 3), (0, 0, 0), (1, 4, 2)]
    )
    def test_round_trip(self, totals):
        """codes -> grid -> codes keeps the members, the dump and the sorted form, empty set included."""
        rng = random.Random(sum(totals) * 10 + len(totals))
        grid = Grid(totals)
        assert grid.strides[-1] == 1
        for size in (0, 1, 3, 12, 40):
            members = {tuple(rng.randint(0, t) for t in totals) for _ in range(size)}
            codes = ProfileSet(len(totals), members)
            held = support.on_grid(grid, codes)
            assert held.grid is grid and len(held) == len(codes)
            assert held.dump() == codes.dump()
            assert held.sorted_profiles() == codes.sorted_profiles() == sorted(members)
            assert list(held) == sorted(members)
            assert held.codes == codes.codes
            assert held == codes and codes == held and hash(held) == hash(codes)
            for q in members:
                assert q in held
            # points just outside the box
            assert tuple(t + 1 for t in totals) not in held
            assert (-1,) + totals[1:] not in held

    @pytest.mark.parametrize(
        "profits", [[[3, 90000, 70000, 2, 5]], [[3, 200, 240, 2, 5], [1, 230, 250, 4, 0]]]
    )
    def test_tin_join_with_large_bag_profits(self, profits):
        """Forgetting a bag vertex of large profit g is a left shift by a large pos(g)."""
        # vertices 1 and 2, in every join bag, carry almost all the profit
        inst, td = path_with_isolated_vertex(len(profits), profits)
        assert any(node.kind == "join" for node in make_nice(td).nodes())
        got = tin_profile_set(inst, td)
        assert got.grid is not None
        assert got == brute_force_profiles(inst)
        assert got.dump() == brute_force_profiles(inst).dump()

    @pytest.mark.parametrize("method", ["cw", "tin", "convex"])
    @pytest.mark.parametrize("pmax", [60, 3000])
    def test_both_sides_of_the_size_constant(self, tmp_path, monkeypatch, method, pmax):
        """profiles --method equals brute force on a grid inside and far past GRID_MAX_BITS."""
        rng = random.Random(pmax)
        profits = [[rng.randint(pmax // 2, pmax) for _ in range(5)] for _ in range(2)]
        inst, td = path_with_isolated_vertex(2, profits)
        expr = support.whole_graph_expression(inst)
        on_grid = profile_grid(inst.total_profits()) is not None
        size = (inst.total_profits()[0] + 1) * (inst.total_profits()[1] + 1)
        assert on_grid == (size <= GRID_MAX_BITS) == (pmax == 60)
        (tmp_path / "p.fkd").write_text(serialize_instance(inst))
        (tmp_path / "p.td").write_text(serialize_tree_decomposition(td))
        (tmp_path / "p.cw").write_text(support.expression_text(expr))
        side = {"cw": ["--expression", "p.cw"], "tin": ["--td", "p.td"], "convex": []}[method]
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["profiles", "p.fkd", "--method", method, *side]) == 0
        assert out.getvalue() == brute_force_profiles(inst).dump() + "\n"
        library = {
            "cw": lambda: cliquewidth_profile_set(inst, expr),
            "tin": lambda: tin_profile_set(inst, td),
            "convex": lambda: convex_profile_set(inst),
        }[method]()
        assert (library.grid is not None) == on_grid

    @pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "codes"])
    def test_cap_on_grid_cells(self, monkeypatch, on_grid):
        """The cap trips at the same size on both forms: one below the largest cell.

        A cw root has one key, no live label, so its one cell is the whole set
        and is the largest cell: no cap fits every table but not the union.
        """
        rng = random.Random(7)
        expr = support.random_expression(rng, 8, 3)
        while len(expr.vertex_ids) < 6:
            expr = support.random_expression(rng, 8, 3)
        inst = support.instance_for_expression(expr, rng, 2, 6)
        with monkeypatch.context() as patch:
            # no grid is small enough: the run's tables are held on codes
            patch.setattr(profiles, "GRID_MAX_BITS", 0)
            code_run = Run(inst.total_profits())
            cw_run(inst, expr, code_run)
        assert code_run.grid is None
        cells = [cell for table in code_run.tables.values() for cell in table.values()]
        largest = max(map(len, cells))
        if not on_grid:
            monkeypatch.setattr(profiles, "GRID_MAX_BITS", 0)
        run = Run(inst.total_profits(), cap=largest - 1)
        with pytest.raises(ProfileCapError):
            cw_run(inst, expr, run)
        assert len(run.tables) < len(code_run.tables)
        # every table fits the cap, the root's one cell included
        run = Run(inst.total_profits(), cap=largest)
        full = cw_run(inst, expr, run)
        assert len(run.tables) == len(code_run.tables)
        cells = [cell for table in run.tables.values() for cell in table.values()]
        assert all(isinstance(cell, ProfileSet) == on_grid for cell in cells)
        width = len(label_bits(_walk(expr.root)))
        assert [support.cw_key_masks(key, 2, width) for key in run.tables[id(expr.root)]] == [(0, 0)]
        assert (full.grid is not None) == on_grid and len(full) == largest
        assert full == cliquewidth_profile_set(inst, expr)
        with pytest.raises(ProfileCapError):
            cliquewidth_profile_set(inst, expr, cap=len(full) - 1)
        assert cliquewidth_profile_set(inst, expr, cap=len(full)) == full


class TestGridCap:
    """Grid.table checks its largest cell against the cap, each cell sized by its popcount."""

    GRID = Grid([3, 3])

    def table(self, profiles, cap):
        # a leaf's steps: key 0 gets every profile, key 1 only the first
        steps = [(0, (), profiles_code, ()) for profiles_code in map(self.code, profiles)]
        steps.append((1, (), self.code(profiles[0]), ()))
        return self.GRID.table(steps, [], cap)

    @staticmethod
    def code(profile):
        return profiles.encode(profile, 2)

    def test_a_cell_at_the_cap_passes(self):
        table = self.table([(0, 0), (1, 0), (0, 2)], cap=3)
        assert [len(table[0]), len(table[1])] == [3, 1]
        assert set(table[0]) == {(0, 0), (1, 0), (0, 2)}

    def test_one_profile_more_raises(self):
        with pytest.raises(ProfileCapError):
            self.table([(0, 0), (1, 0), (0, 2), (3, 3)], cap=3)

    def test_cells_are_sized_by_their_bits(self):
        rng = random.Random(11)
        for _ in range(20):
            points = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 9))]
            leaf = self.table(points, cap=None)
            unary = self.GRID.table([(key, (key,), self.code((0, 1)), ()) for key in leaf], [leaf], None)
            binary = self.GRID.table([(0, (0, 1), 0, ())], [leaf, leaf], None)
            for cell in [*leaf.values(), *unary.values(), *binary.values()]:
                assert len(cell) == cell.bits.bit_count() == len(set(cell))


class TestOneWalk:
    """A DP run walks each of its trees at most once: the check, the masks and the DP share it.

    Every module that binds post_order has it wrapped; the clique-width
    walk (_walk) goes through cliquewidth.post_order.  A tin run walks its
    bag tree and its nice tree once each, and a convex run builds its node
    lists with its trees, so it walks none.
    """

    @staticmethod
    def walked(monkeypatch):
        roots = []
        for module in (profiles, cliquewidth_module, treeindep_module):
            original = module.post_order

            def counted(root, children_of, original=original):
                roots.append(root)
                return original(root, children_of)

            monkeypatch.setattr(module, "post_order", counted)
        return roots

    @pytest.mark.parametrize("prune", [None, False, True])
    def test_cliquewidth(self, monkeypatch, prune):
        rng = random.Random(5)
        for _ in range(10):
            expr = support.random_expression(rng, 6, 3)
            inst = support.instance_for_expression(expr, rng, 2, 5)
            roots = self.walked(monkeypatch)
            if prune is None:
                cliquewidth_profile_set(inst, expr)
            else:
                solve_cliquewidth(inst, expr, prune=prune)
            assert roots == [expr.root]
            monkeypatch.undo()

    @pytest.mark.parametrize("prune", [False, True])
    def test_tin(self, monkeypatch, prune):
        for seed in range(5):
            inst, td = gen_partial_ktree(9, 2, 2, 6, seed)
            roots = self.walked(monkeypatch)
            solve_tin(inst, td, prune=prune)
            nice_roots = [root for root in roots if isinstance(root, treeindep_module.NiceNode)]
            assert len(nice_roots) == 1 and len(roots) == 2
            monkeypatch.undo()

    @pytest.mark.parametrize("prune", [False, True])
    def test_convex(self, monkeypatch, prune):
        for seed in range(5):
            inst, _ = gen_convex_bipartite(3, 3, 2, 6, seed)
            roots = self.walked(monkeypatch)
            solve_convex(inst, prune=prune)
            assert roots == []
            monkeypatch.undo()


class TestInvariants:
    def test_edgeless_oracle_equivalence(self):
        properties.prop_edgeless_oracle(150)

    def test_packed_keys_sort_as_tuples(self):
        properties.prop_packed_key_order(150)

    def test_merge_algebra(self):
        properties.prop_merge_algebra(200)

    def test_merge_monotone(self):
        properties.prop_merge_monotone(200)

    def test_prune_preserves_best(self):
        properties.prop_prune_preserves_best(200)

    def test_grid_forms_agree(self):
        properties.prop_grid_forms_agree(200)

    def test_pruned_cells_are_fronts(self):
        properties.prop_pruned_cells_are_fronts(100)

    def test_pruned_merges_are_fronts(self):
        properties.prop_pruned_merges_are_fronts(200)

    def test_profiles_bounded(self):
        properties.prop_profiles_bounded(150)

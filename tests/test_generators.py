import pytest

import properties

from fairkdiv.chordal import clique_tree_of_chordal
from fairkdiv.convex import solve_convex, validate_convex_ordering
from fairkdiv.generators import gen_convex_bipartite, gen_partial_ktree
from fairkdiv.model import serialize_instance
from fairkdiv.oracle import brute_force_optimum
from fairkdiv.treeindep import solve_tin, validate_td


class TestGenConvex:
    def test_single_edge(self):
        inst, ordering = gen_convex_bipartite(1, 1, 1, 5, seed=0)
        assert inst.edges == ((0, 1),)
        assert ordering.a_order == (0,)

    def test_identity_order_validates(self):
        for seed in range(20):
            inst, ordering = gen_convex_bipartite(5, 6, 2, 7, seed=seed)
            validate_convex_ordering(inst, ordering.a_order, ordering.b_vertices)

    def test_seed_determinism(self):
        first = gen_convex_bipartite(6, 8, 2, 9, seed=7)
        second = gen_convex_bipartite(6, 8, 2, 9, seed=7)
        assert serialize_instance(first[0]) == serialize_instance(second[0])
        third = gen_convex_bipartite(6, 8, 2, 9, seed=8)
        assert serialize_instance(first[0]) != serialize_instance(third[0])

    def test_solved_matches_oracle(self):
        inst, ordering = gen_convex_bipartite(4, 4, 2, 6, seed=42)
        opt, _, _ = solve_convex(inst, ordering)
        want, _ = brute_force_optimum(inst)
        assert opt == want


class TestGenKtree:
    def test_forest_when_width_one(self):
        inst, td = gen_partial_ktree(8, 1, 1, 5, seed=5, delete_prob=0.0)
        _, ell = validate_td(inst, td)
        assert ell <= 1
        assert len(inst.edges) <= inst.n - 1

    def test_chordal_without_deletions(self):
        for seed in range(15):
            inst, _ = gen_partial_ktree(9, 3, 2, 5, seed=seed, delete_prob=0.0)
            assert clique_tree_of_chordal(inst) is not None

    def test_td_valid_after_deletions(self):
        for seed in range(15):
            inst, td = gen_partial_ktree(9, 3, 2, 5, seed=seed, delete_prob=0.5)
            validate_td(inst, td)

    def test_fixed_seed_matches_oracle(self):
        inst, td = gen_partial_ktree(9, 2, 2, 4, seed=11)
        opt, _, _ = solve_tin(inst, td)
        want, _ = brute_force_optimum(inst)
        assert opt == want

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            gen_partial_ktree(3, 3, 1, 5, seed=0)


class TestInvariants:
    def test_outputs_parse_and_validate(self):
        properties.prop_generator_outputs_valid(200)

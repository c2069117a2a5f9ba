from fractions import Fraction

import pytest

import properties

from fairkdiv.approx import fptas, scale_profits
from fairkdiv.convex import solve_convex
from fairkdiv.model import ConflictInstance, validate_coloring
from fairkdiv.oracle import brute_force_optimum


class TestScaleProfits:
    def test_identity(self, t1_instance):
        scaled = scale_profits(t1_instance, 1)
        assert scaled is t1_instance

    def test_floor_division(self):
        inst = ConflictInstance.build(3, 1, [], [[10, 7, 3]])
        scaled = scale_profits(inst, 5)
        assert scaled.profits == ((2, 1, 0),)
        assert scaled.edges == inst.edges

    def test_all_below_factor(self):
        inst = ConflictInstance.build(3, 1, [], [[4, 2, 1]])
        assert scale_profits(inst, 5).profits == ((0, 0, 0),)

    def test_bad_factor(self):
        inst = ConflictInstance.build(1, 1, [], [[1]])
        with pytest.raises(ValueError):
            scale_profits(inst, 0)


class TestFptas:
    def test_zero_optimum(self):
        inst = ConflictInstance.build(2, 2, [], [[0, 0], [0, 0]])
        result = fptas(inst, "1/2", lambda sub: solve_convex(sub))
        assert result.value == 0
        assert result.solver_calls == 0
        assert all(not cls for cls in result.witness)

    def test_t1_half_epsilon(self, t1_instance):
        result = fptas(t1_instance, "1/2", lambda sub: solve_convex(sub))
        assert result.value >= 1  # optimum is 2
        validate_coloring(t1_instance, result.witness)

    def test_epsilon_range_checked(self):
        inst = ConflictInstance.build(1, 1, [], [[1]])
        with pytest.raises(ValueError):
            fptas(inst, "0", lambda sub: solve_convex(sub))
        with pytest.raises(ValueError):
            fptas(inst, "1", lambda sub: solve_convex(sub))
        with pytest.raises(ValueError):
            fptas(inst, Fraction(3, 2), lambda sub: solve_convex(sub))

    def test_guarantee_on_small_convex(self):
        import random

        import support

        rng = random.Random(23)
        for _ in range(25):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = support.random_convex_instance(rng, na, nb, rng.randint(1, 2), 9)
            for eps in ("1/10", "3/10"):
                result = fptas(inst, eps, lambda sub: solve_convex(sub, prune=True))
                opt, _ = brute_force_optimum(inst)
                assert result.value >= (1 - Fraction(eps)) * opt
                validate_coloring(inst, result.witness)


class TestInvariants:
    def test_guarantee(self):
        properties.prop_fptas_guarantee(60)

    def test_call_bound(self):
        properties.prop_fptas_call_bound(60)

    def test_exact_when_unscaled(self):
        properties.prop_fptas_exact_when_unscaled(60)

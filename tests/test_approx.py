import random
from fractions import Fraction

import pytest

import properties
import support

from fairkdiv.approx import fptas, scale_profits
from fairkdiv.convex import solve_convex
from fairkdiv.model import (
    ConflictInstance,
    max_total_profit,
    satisfaction_upper_bound,
    validate_coloring,
)
from fairkdiv.oracle import brute_force_optimum, solve_brute


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
        rng = random.Random(23)
        for _ in range(25):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            inst = support.random_convex_instance(rng, na, nb, rng.randint(1, 2), 9)
            for eps in ("1/10", "3/10"):
                result = fptas(inst, eps, lambda sub: solve_convex(sub, prune=True))
                opt, _ = brute_force_optimum(inst)
                assert result.value >= (1 - Fraction(eps)) * opt
                validate_coloring(inst, result.witness)

    def test_agent_valuing_nothing_makes_no_call(self):
        inst = ConflictInstance.build(
            8, 2, [(0, 4), (1, 5), (2, 6), (3, 7)], [[900, 800, 700, 600, 500, 400, 300, 200], [0] * 8]
        )
        result = fptas(inst, "1/4", lambda sub: solve_convex(sub))
        assert (result.value, result.solver_calls, result.upper_bound) == (0, 0, 0)
        assert result.witness == (frozenset(), frozenset())

    def test_stops_after_an_unscaled_call(self):
        # U = 2 and K = 1: the first call is exact, although its value 0 is below (1 - eps) * 2
        inst = ConflictInstance.build(1, 2, [], [[5], [5]])
        result = fptas(inst, "1/4", lambda sub: solve_convex(sub))
        assert (result.value, result.solver_calls, result.upper_bound) == (0, 1, 2)
        validate_coloring(inst, result.witness)

    def test_rejected_guess_is_halved(self):
        # U = 1500; at K = 62 every scaled optimum gives each agent one vertex,
        # worth 1000 < (1 - eps) * 1500 = 1125, so the guess halves to 750
        inst = ConflictInstance.build(3, 2, [(0, 1), (1, 2), (0, 2)], [[1000] * 3] * 2)
        result = fptas(inst, Fraction(1, 4), solve_brute)
        assert (result.solver_calls, result.value, result.upper_bound) == (2, 1000, 1500)
        validate_coloring(inst, result.witness)

    def test_bench_shaped_instance_takes_one_call(self):
        # three convex parts of 6+6 vertices, k = 2, profits up to 1000
        inst = support.shuffled_convex_instance(random.Random(0), [(6, 6)] * 3, 2, 1000)
        eps = Fraction(1, 4)
        bound = satisfaction_upper_bound(inst)
        # a first guess at Q can never be accepted: every value is <= OPT <= U < (1 - eps) * Q
        assert bound < (1 - eps) * max_total_profit(inst)
        result = fptas(inst, eps, lambda sub: solve_convex(sub))
        assert result.solver_calls == 1
        assert result.upper_bound == bound
        validate_coloring(inst, result.witness)
        assert result.value >= (1 - eps) * solve_convex(inst)[0]


class TestInvariants:
    def test_guarantee(self):
        properties.prop_fptas_guarantee(60)

    def test_call_bound(self):
        properties.prop_fptas_call_bound(60)

    def test_exact_when_unscaled(self):
        properties.prop_fptas_exact_when_unscaled(60)

    def test_upper_bound(self):
        properties.prop_fptas_upper_bound(150)

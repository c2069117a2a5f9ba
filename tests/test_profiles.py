import random

import pytest

import properties
import support

from fairkdiv.cliquewidth import cliquewidth_profile_set, solve_cliquewidth
from fairkdiv.convex import convex_profile_set, solve_convex
from fairkdiv.model import MAX_PROFIT_SUM, ConflictInstance, profile_of, validate_coloring
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.profiles import (
    ProfileCapError,
    ProfileSet,
    best_profile,
    best_satisfaction,
    dominance_prune,
    edgeless_profiles,
    merge_profile_sets,
    shift,
)
from fairkdiv.treeindep import TreeDecomposition, solve_tin, tin_profile_set

T1_ROWS = [(3, 2), (1, 2)]
T1_SET = {(0, 0), (1, 0), (3, 0), (4, 0), (0, 2), (0, 4), (1, 2), (3, 2)}
# coordinates that sit at and next to the edges of a packed field
EDGE_VALUES = (0, 1, 2, 7, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)


def random_profiles(rng: random.Random, k: int, size: int, values=EDGE_VALUES) -> set:
    return {tuple(rng.choice(values) for _ in range(k)) for _ in range(size)}


def pareto_front(profiles: set) -> set:
    """The definition: members no other member is >= in every coordinate."""
    return {
        q for q in profiles
        if not any(p != q and all(a >= b for a, b in zip(p, q)) for p in profiles)
    }


class TestEdgeless:
    def test_single_vertex(self):
        assert set(edgeless_profiles(2, [(5, 3)])) == {(0, 0), (5, 0), (0, 3)}

    def test_empty_list(self):
        assert set(edgeless_profiles(3, [])) == {(0, 0, 0)}

    def test_t1(self, t1_instance):
        # frozen from enumerating all 3^2 assignments of the two vertices
        got = edgeless_profiles(2, T1_ROWS)
        assert set(got) == T1_SET
        assert got == brute_force_profiles(t1_instance)

    def test_cap(self):
        with pytest.raises(ProfileCapError):
            edgeless_profiles(1, [(1,), (2,), (4,), (8,)], cap=3)


class TestMerge:
    def test_identity(self):
        s = ProfileSet(2, {(1, 2), (0, 0), (5, 1)})
        assert merge_profile_sets(ProfileSet.zero(2), s) == s

    def test_hand_enumeration(self):
        s = ProfileSet(2, {(1, 0), (0, 1)})
        assert set(merge_profile_sets(s, s)) == {(2, 0), (1, 1), (0, 2)}

    def test_edgeless_components_merge(self):
        left = edgeless_profiles(2, [(3, 2)])
        right = edgeless_profiles(2, [(1, 2)])
        assert set(merge_profile_sets(left, right)) == T1_SET

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            merge_profile_sets(ProfileSet.zero(1), ProfileSet.zero(2))


class TestShift:
    def test_examples(self):
        assert set(shift(ProfileSet.zero(2), (2, 3))) == {(2, 3)}
        s = ProfileSet(2, {(1, 0), (0, 1)})
        assert shift(s, (0, 0)) == s
        assert set(shift(s, (1, 1))) == {(2, 1), (1, 2)}


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

    def test_t1_frontier(self):
        pruned = dominance_prune(ProfileSet(2, T1_SET))
        assert set(pruned) == {(4, 0), (3, 2), (0, 4)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_definition(self, k):
        rng = random.Random(100 + k)
        for _ in range(300):
            for values in (range(5), EDGE_VALUES):
                members = random_profiles(rng, k, rng.randint(0, 15), values)
                assert set(dominance_prune(ProfileSet(k, members))) == pareto_front(members)


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

    def test_sums_that_would_carry_raise(self):
        # each sum reaches 2**64 in coordinate 2, which packed codes would
        # carry into coordinate 1
        with pytest.raises(ValueError, match="coordinate 2"):
            merge_profile_sets(ProfileSet(2, [(0, 2**64 - 1)]), ProfileSet(2, [(0, 1)]))
        with pytest.raises(ValueError, match="coordinate 2"):
            shift(ProfileSet(2, [(0, 2**64 - 1)]), (0, 1))
        with pytest.raises(ValueError, match="agent 2"):
            edgeless_profiles(2, [(0, 2**63), (0, 2**63)])

    def test_sums_up_to_the_field_limit(self):
        top = 2**64 - 1
        merged = merge_profile_sets(
            ProfileSet(2, [(2**63, 0), (0, 2**64 - 2)]), ProfileSet(2, [(2**63 - 1, 1), (0, 0)])
        )
        assert set(merged) == {(2**63, 0), (0, 2**64 - 2), (top, 1), (2**63 - 1, top)}
        assert set(shift(ProfileSet(2, [(0, 2**63)]), (1, 2**63 - 1))) == {(1, top)}
        assert set(edgeless_profiles(2, [(0, 2**63), (5, 2**63 - 1)])) == {
            (0, 0), (0, 2**63), (0, 2**63 - 1), (0, top), (5, 0), (5, 2**63),
        }

    @pytest.mark.parametrize("k", [2, 3])
    def test_agent_totals_at_the_limit(self, k):
        """Every field full to MAX_PROFIT_SUM: no sum may carry across fields."""
        row = [2**62, 2**61, 2**60, 2**59, 2**59 - 1]
        assert sum(row) == MAX_PROFIT_SUM
        profits = [row[j:] + row[:j] for j in range(k)]
        # a path on 0..3 plus the isolated vertex 4: convex, two components
        inst = ConflictInstance.build(5, k, [(0, 1), (1, 2), (2, 3)], profits)
        assert inst.total_profits() == (MAX_PROFIT_SUM,) * k
        # three children under bag 1 give join nodes whose correction is subtracted
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


class TestInvariants:
    def test_edgeless_oracle_equivalence(self):
        properties.prop_edgeless_oracle(150)

    def test_merge_algebra(self):
        properties.prop_merge_algebra(200)

    def test_merge_monotone(self):
        properties.prop_merge_monotone(200)

    def test_prune_preserves_best(self):
        properties.prop_prune_preserves_best(200)

    def test_profiles_bounded(self):
        properties.prop_profiles_bounded(150)

import itertools
import sys

import pytest

import properties

from fairkdiv.convex import convex_profile_set
from fairkdiv.model import ConflictInstance, profile_of, validate_coloring
from fairkdiv.oracle import (
    EnumerationCapError,
    brute_force_optimum,
    brute_force_profiles,
)


def triangle(k=2, profits=(5, 4, 3)):
    rows = [list(profits) for _ in range(k)]
    return ConflictInstance.build(3, k, [(0, 1), (1, 2), (0, 2)], rows)


class TestBruteForceProfiles:
    def test_single_edge(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[3, 1]])
        assert set(brute_force_profiles(inst)) == {(0,), (3,), (1,)}

    def test_edgeless_matches_direct_enumeration(self, t1_instance):
        assert brute_force_profiles(t1_instance) == convex_profile_set(t1_instance)

    def test_triangle_no_shared_vertex(self):
        pset = brute_force_profiles(triangle())
        assert (5, 4) in pset
        # in a triangle each class holds at most one vertex
        assert all(q[0] in (0, 5, 4, 3) and q[1] in (0, 5, 4, 3) for q in pset)
        assert (5, 5) not in pset

    def test_cap(self):
        inst = ConflictInstance.build(4, 2, [], [[1] * 4, [1] * 4])
        with pytest.raises(EnumerationCapError):
            brute_force_profiles(inst, cap=10)


class TestBruteForceOptimum:
    def test_triangle(self):
        value, witness = brute_force_optimum(triangle())
        assert value == 4
        validate_coloring(triangle(), witness)
        assert min(profile_of(triangle(), witness)) == 4

    def test_path_unit_profits(self):
        # a1-b1-a2-b2 as a path on vertices 0..3
        inst = ConflictInstance.build(
            4, 2, [(0, 1), (1, 2), (2, 3)], [[1] * 4, [1] * 4]
        )
        value, witness = brute_force_optimum(inst)
        assert value == 2
        validate_coloring(inst, witness)

    def test_more_agents_than_items(self):
        inst = ConflictInstance.build(2, 3, [], [[4, 4]] * 3)
        value, _ = brute_force_optimum(inst)
        assert value == 0

    def test_witness_deterministic(self):
        inst = ConflictInstance.build(3, 2, [(0, 1)], [[2, 2, 2], [2, 2, 2]])
        first = brute_force_optimum(inst)
        second = brute_force_optimum(inst)
        assert first == second

    def test_search_deeper_than_the_recursion_limit(self):
        # a clique under k = 1 has n + 1 colorings, but the search goes n vertices deep
        n = 200
        inst = ConflictInstance.build(n, 1, itertools.combinations(range(n), 2), [range(1, n + 1)])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + n // 2)
        try:
            profiles = brute_force_profiles(inst, cap=2**n)
            optimum = brute_force_optimum(inst, cap=2**n)
        finally:
            sys.setrecursionlimit(limit)
        assert set(profiles) == {(p,) for p in range(n + 1)}
        assert optimum == (n, (frozenset({n - 1}),))


class TestInvariants:
    def test_witnesses_validate(self):
        properties.prop_oracle_witness_valid(200)

    def test_mis_cross_oracle(self):
        properties.prop_oracle_mis_agreement(150)

    def test_edge_monotonicity(self):
        properties.prop_oracle_edge_monotone(150)

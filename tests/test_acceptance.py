"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the report-only scaling figures.
"""
import random
import time
from fractions import Fraction

import properties
import support
from conftest import FIXTURE_B_MINUS, FIXTURE_B_PLUS, build_interval_instance

from fairkdiv.approx import fptas
from fairkdiv.cliquewidth import cliquewidth_profile_set, solve_cliquewidth
from fairkdiv.convex import (
    _stage_structure,
    convex_profile_set,
    solve_convex,
    validate_convex_ordering,
)
from fairkdiv.generators import gen_convex_bipartite, gen_partial_ktree
from fairkdiv.model import ConflictInstance, max_total_profit, validate_coloring
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.chordal import clique_tree_of_chordal
from fairkdiv.treeindep import TreeDecomposition, solve_tin, validate_td


def test_criterion_1_fixture_exactness():
    inst = build_interval_instance(FIXTURE_B_MINUS, FIXTURE_B_PLUS)
    co = validate_convex_ordering(inst, range(13), range(13, 27))
    _stage_structure(co)  # warm-up excluded from the timing
    start = time.perf_counter()
    ss = _stage_structure(co)
    elapsed = time.perf_counter() - start
    assert ss.u == (4, 6, 11, 13)
    assert ss.v == (3, 8, 10, 14)
    # B-order invariants: non-decreasing larger endpoints, ties by smaller
    keys = [co.intervals[b] for b in ss.b_order]
    assert keys == sorted(keys, key=lambda t: (t[1], t[0]))
    assert keys == list(zip(FIXTURE_B_MINUS, FIXTURE_B_PLUS))
    assert elapsed < 0.001
    print(f"\nPASS criterion 1: fixture u/v exact, {elapsed * 1e6:.0f} us")


def test_criterion_2_edgeless_oracle_equivalence():
    rng = random.Random(2002)
    start = time.perf_counter()
    for _ in range(200):
        n, k = rng.randint(0, 8), rng.randint(1, 3)
        inst = support.random_edgeless_instance(rng, n, k, 10)
        # the edgeless enumeration is convex's vertex chain
        assert convex_profile_set(inst) == brute_force_profiles(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 2: 200 edgeless instances match, {elapsed:.2f} s")


def test_criterion_3_convex_equivalence():
    rng = random.Random(2003)
    start = time.perf_counter()
    for trial in range(200):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(1, 2)
        inst, ordering = gen_convex_bipartite(na, nb, k, 8, rng.randrange(1 << 30))
        opt, profile, witness = solve_convex(inst, ordering)
        want, _ = brute_force_optimum(inst)
        assert opt == want, f"trial {trial}"
        validate_coloring(inst, witness)
    for trial in range(50):
        na = rng.randint(1, 5)
        nb = rng.randint(1, min(4, 9 - na))
        k = rng.randint(1, 2)
        inst, ordering = gen_convex_bipartite(na, nb, k, 8, rng.randrange(1 << 30))
        assert convex_profile_set(inst, ordering) == brute_force_profiles(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 3: 200 optima + 50 full sets match, {elapsed:.2f} s")


def test_criterion_4_cliquewidth_equivalence():
    rng = random.Random(2004)
    start = time.perf_counter()
    exprs = []
    for trial in range(200):
        k = rng.randint(1, 2)
        expr = support.random_expression(rng, 8, rng.randint(1, 3))
        inst = support.instance_for_expression(expr, rng, k, 7)
        opt, profile, witness = solve_cliquewidth(inst, expr)
        want, _ = brute_force_optimum(inst)
        assert opt == want, f"trial {trial}"
        validate_coloring(inst, witness)
        exprs.append((expr, inst))
    for expr, inst in exprs[:50]:
        assert cliquewidth_profile_set(inst, expr) == brute_force_profiles(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 4: 200 optima + 50 root sets match, {elapsed:.2f} s")


def test_criterion_5_tin_equivalence():
    rng = random.Random(2005)
    start = time.perf_counter()
    for trial in range(150):
        n = rng.randint(1, 10)
        width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
        k = rng.randint(1, 2)
        inst, td = gen_partial_ktree(
            n, width, k, 6, rng.randrange(1 << 30), delete_prob=rng.choice([0.2, 0.5])
        )
        opt, profile, witness = solve_tin(inst, td)
        want, _ = brute_force_optimum(inst)
        assert opt == want, f"trial {trial}"
        validate_coloring(inst, witness)
    chordal_done = 0
    while chordal_done < 50:
        n = rng.randint(1, 10)
        width = 0 if n == 1 else rng.randint(1, min(3, n - 1))
        k = rng.randint(1, 2)
        inst, _ = gen_partial_ktree(
            n, width, k, 6, rng.randrange(1 << 30), delete_prob=0.0
        )
        clique_tree = clique_tree_of_chordal(inst)
        assert clique_tree is not None
        _, ell = validate_td(inst, clique_tree)
        assert ell <= 1
        opt, _, witness = solve_tin(inst, clique_tree)
        want, _ = brute_force_optimum(inst)
        assert opt == want
        validate_coloring(inst, witness)
        chordal_done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 5: 200 decompositions match (50 chordal), {elapsed:.2f} s")


def test_criterion_6_cross_solver_agreement():
    rng = random.Random(2006)
    start = time.perf_counter()
    for trial in range(50):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(1, 2)
        inst, ordering = gen_convex_bipartite(na, nb, k, 6, rng.randrange(1 << 30))
        td = TreeDecomposition(
            n=inst.n, bags={1: frozenset(range(inst.n))}, edges=()
        )
        expr = support.whole_graph_expression(inst)
        o_convex, _, _ = solve_convex(inst, ordering)
        o_tin, _, _ = solve_tin(inst, td)
        o_cw, _, _ = solve_cliquewidth(inst, expr)
        assert o_convex == o_tin == o_cw, f"trial {trial}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: three solvers agree on 50 instances, {elapsed:.2f} s")


def test_criterion_7_fptas_guarantee():
    rng = random.Random(2007)
    start = time.perf_counter()
    epsilons = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]
    for trial in range(100):
        na, nb = rng.randint(1, 5), rng.randint(1, 4)
        k = rng.randint(1, 2)
        inst, ordering = gen_convex_bipartite(na, nb, k, 9, rng.randrange(1 << 30))
        opt, _ = brute_force_optimum(inst)
        big_q = max_total_profit(inst)
        for eps in epsilons:
            result = fptas(
                inst, eps, lambda sub: solve_convex(sub, ordering, prune=True)
            )
            validate_coloring(inst, result.witness)
            assert result.value >= (1 - eps) * opt, f"trial {trial} eps {eps}"
            assert result.solver_calls <= big_q.bit_length() + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: 100 x 3 epsilon guarantees hold, {elapsed:.2f} s")


def test_criterion_8_complexity_smoke():
    # fixed connected convex structure; profits drawn small, then doubled
    # (with a unit bump so scaled sums stay dense); the merge work should
    # grow by at most c * 2^(2k), c = 8
    intervals = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (3, 5)]
    na, nb = 5, len(intervals)
    edges = [
        (a - 1, na + i) for i, (lo, hi) in enumerate(intervals) for a in range(lo, hi + 1)
    ]
    rng = random.Random(2008)
    lines = []
    # the counts pin what profile-ops measures: |pred| * |part| per guess
    pinned = {1: [144, 197], 2: [4222, 6016]}
    for k in (1, 2):
        base = [[rng.randint(1, 5) for _ in range(na + nb)] for _ in range(k)]
        double = [[2 * p + rng.randint(0, 1) for p in row] for row in base]
        ratios = []
        for profits in (base, double):
            inst = ConflictInstance.build(na + nb, k, edges, profits)
            co = validate_convex_ordering(inst, range(na), range(na, na + nb))
            stats: dict = {}
            convex_profile_set(inst, co, stats=stats)
            ratios.append(stats["profile-ops"])
        assert ratios == pinned[k], ratios
        factor = ratios[1] / ratios[0]
        bound = 8 * 2 ** (2 * k)
        lines.append(f"k={k}: work {ratios[0]} -> {ratios[1]}, factor {factor:.2f} <= {bound}")
        assert factor <= bound
    print("\nPASS criterion 8: " + "; ".join(lines))


def test_criterion_9_invariant_suites():
    start = time.perf_counter()
    for prop in properties.ALL_PROPERTIES:
        t0 = time.perf_counter()
        prop(1000)
        print(f"  {prop.__name__}: 1000 cases, {time.perf_counter() - t0:.1f} s")
    elapsed = time.perf_counter() - start
    print(f"\nPASS criterion 9: {len(properties.ALL_PROPERTIES)} properties x 1000 cases, {elapsed:.1f} s")

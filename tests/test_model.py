import copy
import pickle
import random
import time

import pytest

import support

from fairkdiv.model import (
    CapError,
    ConflictInstance,
    InstanceFormatError,
    InvalidColoringError,
    SolveResult,
    connected_components,
    max_total_profit,
    parse_instance,
    profile_of,
    satisfaction_level,
    satisfaction_upper_bound,
    serialize_instance,
    validate_coloring,
)

import properties


class TestParseInstance:
    def test_basic_instance(self):
        text = "p fkd 2 1 2\nw 1 3 1\nw 2 2 2\ne 1 2\n"
        inst = parse_instance(text)
        assert inst.n == 2 and inst.k == 2
        assert inst.edges == ((0, 1),)
        assert inst.profits == ((3, 1), (2, 2))

    def test_empty_instance(self):
        inst = parse_instance("p fkd 0 0 1\n")
        assert inst.n == 0 and inst.k == 1
        assert inst.edges == ()

    def test_self_loop_rejected(self):
        text = "p fkd 2 1 1\nw 1 1 1\ne 1 1\n"
        with pytest.raises(InstanceFormatError, match="self-loop"):
            parse_instance(text)

    def test_duplicate_edge_rejected(self):
        text = "p fkd 2 2 1\nw 1 1 1\ne 1 2\ne 2 1\n"
        with pytest.raises(InstanceFormatError, match="duplicate edge"):
            parse_instance(text)

    def test_negative_profit_rejected(self):
        with pytest.raises(InstanceFormatError, match="negative"):
            parse_instance("p fkd 1 0 1\nw 1 -2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(InstanceFormatError, match="out of range"):
            parse_instance("p fkd 2 1 1\nw 1 1 1\ne 1 3\n")

    def test_count_mismatch(self):
        with pytest.raises(InstanceFormatError, match="declares 2 edges"):
            parse_instance("p fkd 2 2 1\nw 1 1 1\ne 1 2\n")
        with pytest.raises(InstanceFormatError, match="weight line"):
            parse_instance("p fkd 2 0 2\nw 1 1 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(InstanceFormatError, match="line 4"):
            parse_instance("c hello\np fkd 2 1 1\nw 1 1 1\ne 1 1\n")

    def test_comments_ignored(self):
        text = "c a comment\np fkd 1 0 1\nc another\nw 1 4\n"
        assert parse_instance(text).profits == ((4,),)

    def test_overflow_guard(self):
        big = 2**62
        with pytest.raises(InstanceFormatError, match="64-bit"):
            parse_instance(f"p fkd 3 0 1\nw 1 {big} {big} {big}\n")

    def test_roundtrip_small(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = support.random_instance(rng, rng.randint(0, 8), rng.randint(1, 3), 9)
            assert parse_instance(serialize_instance(inst)) == inst


def parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by type, message and line
        return type(exc), str(exc), getattr(exc, "line", None)


class TestParserEquivalence:
    """The one-pass parser against the line-by-line reference in support."""

    def test_seeded_mutations_match_reference(self):
        rng = random.Random(1101)
        errors = 0
        for _ in range(2400):
            n = rng.choice([rng.randint(0, 6), rng.randint(7, 30)])
            inst = support.random_instance(rng, n, rng.randint(1, 3), 9, density=rng.random())
            text = serialize_instance(inst, comment="mutated" if rng.random() < 0.3 else None)
            for _ in range(rng.randint(1, 3)):
                text = support.mutate_text(rng, text, n)
            got = parse_outcome(parse_instance, text)
            assert got == parse_outcome(support.parse_instance_by_line, text), text
            errors += isinstance(got, tuple)
        # both outcomes are exercised in bulk
        assert 600 < errors < 2100

    def test_every_splitlines_break_counts(self):
        # \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029 end a line, as \n does
        for brk in ("\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
            text = brk.join(["p fkd 2 1 1", "w 1 1 1", "c", "e 1 1"])
            with pytest.raises(InstanceFormatError, match="^line 4: self-loop"):
                parse_instance(text)


class TestConflictInstanceChecks:
    """The constructor's messages, which its bulk edge test must keep."""

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((1, 1),), "self-loop at vertex 2"),
            (((0, 3),), r"edge \(1,4\) out of range"),
            (((-1, 2),), r"edge \(0,3\) out of range"),
            (((2, 0),), r"edges must be stored as \(min, max\) pairs"),
            (((0, 1), (1, 2), (0, 1)), r"duplicate edge \(1,2\)"),
            # two violations: the first edge in list order names the error
            (((0, 1), (0, 1), (2, 2)), r"duplicate edge \(1,2\)"),
            (((0, 1), (2, 2), (0, 1)), "self-loop at vertex 3"),
            (((5, 6), (1, 1)), r"edge \(6,7\) out of range"),
            (((1, 0), (0, 7)), r"edges must be stored as \(min, max\) pairs"),
        ],
    )
    def test_edge_violation(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConflictInstance(3, 1, edges, ((1, 1, 1),))

    @pytest.mark.parametrize(
        "n, k, profits, message",
        [
            (-1, 1, ((),), "vertex count must be nonnegative"),
            (2, 0, (), "agent count must be at least 1"),
            (2, 2, ((1, 1),), "expected 2 profit rows, got 1"),
            (2, 1, ((1, 1, 1),), "profit row 1 has 3 entries, expected 2"),
            (3, 2, ((1, 1, 1), (4, -2, -1)), "negative profit for agent 2, vertex 2"),
            (2, 1, ((2**62, 2**62),), "total profit of agent 1 exceeds the 64-bit range"),
            # row 1's negative entry beats row 2's length
            (2, 2, ((0, -1), (1,)), "negative profit for agent 1, vertex 2"),
        ],
    )
    def test_profit_violation(self, n, k, profits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConflictInstance(n, k, (), profits)

    def test_edge_errors_come_before_profit_errors(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            ConflictInstance(2, 2, ((0, 0),), ((1, 1),))

    def test_unsorted_edges_stored_sorted(self):
        inst = ConflictInstance(3, 1, ((1, 2), (0, 2)), ((0, 0, 0),))
        assert inst.edges == ((0, 2), (1, 2))
        assert inst == ConflictInstance.build(3, 1, [(1, 2), (0, 2)], [[0, 0, 0]])
        assert hash(inst) == hash(ConflictInstance.build(3, 1, [(2, 0), (2, 1)], [[0, 0, 0]]))


class TestSatisfaction:
    def test_examples(self):
        assert satisfaction_level((3, 2)) == 2
        assert satisfaction_level((0, 5)) == 0
        assert satisfaction_level((7, 7, 7)) == 7


class TestValidateColoring:
    def test_path_two_classes_ok(self):
        inst = ConflictInstance.build(2, 2, [(0, 1)], [[1, 1], [1, 1]])
        validate_coloring(inst, [{0}, {1}])

    def test_edge_inside_class(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[1, 1]])
        with pytest.raises(InvalidColoringError, match=r"edge \(1,2\) inside class 1"):
            validate_coloring(inst, [{0, 1}])

    def test_vertex_in_two_classes(self):
        inst = ConflictInstance.build(1, 2, [], [[1], [1]])
        with pytest.raises(InvalidColoringError, match="vertex 1 in two classes"):
            validate_coloring(inst, [{0}, {0}])

    def test_out_of_range_vertex(self):
        inst = ConflictInstance.build(1, 1, [], [[1]])
        with pytest.raises(InvalidColoringError, match="out of range"):
            validate_coloring(inst, [{5}])

    def test_wrong_number_of_classes(self):
        inst = ConflictInstance.build(1, 2, [], [[1], [1]])
        with pytest.raises(InvalidColoringError, match="^expected 2 classes, got 1$"):
            validate_coloring(inst, [set()])


class TestProfileOf:
    def test_t1_examples(self, t1_instance):
        assert profile_of(t1_instance, [{0}, {1}]) == (3, 2)
        assert profile_of(t1_instance, [set(), set()]) == (0, 0)
        assert profile_of(t1_instance, [{0, 1}, set()]) == (4, 0)


class TestComponents:
    def test_edgeless_singletons(self):
        inst = ConflictInstance.build(3, 1, [], [[1, 2, 3]])
        assert connected_components(inst) == [(0,), (1,), (2,)]

    def test_path_single_component(self):
        inst = ConflictInstance.build(4, 1, [(0, 1), (1, 2), (2, 3)], [[1] * 4])
        assert connected_components(inst) == [(0, 1, 2, 3)]

    def test_two_disjoint_edges(self):
        inst = ConflictInstance.build(4, 1, [(0, 1), (2, 3)], [[1] * 4])
        assert connected_components(inst) == [(0, 1), (2, 3)]

    def test_sorted_vertices_least_vertex_first(self):
        inst = ConflictInstance.build(6, 1, [(4, 1), (1, 3), (0, 5)], [[1] * 6])
        assert connected_components(inst) == [(0, 5), (1, 3, 4), (2,)]

    def test_20000_disjoint_edges(self):
        # rescanning every edge for each component, O(n * m), takes about 18 s here
        m = 20000
        inst = ConflictInstance.build(2 * m, 1, [(v, v + 1) for v in range(0, 2 * m, 2)], [[1] * 2 * m])
        start = time.process_time()
        comps = connected_components(inst)
        elapsed = time.process_time() - start
        assert comps == [(v, v + 1) for v in range(0, 2 * m, 2)]
        assert elapsed < 1.0, elapsed


class TestMaxTotalProfit:
    def test_examples(self, t1_instance):
        assert max_total_profit(t1_instance) == 4
        empty = ConflictInstance.build(0, 1, [], [[]])
        assert max_total_profit(empty) == 0
        inst = ConflictInstance.build(3, 2, [], [[1, 1, 1], [5, 0, 0]])
        assert max_total_profit(inst) == 5


class TestSatisfactionUpperBound:
    def test_examples(self):
        assert satisfaction_upper_bound(ConflictInstance.build(0, 1, [], [[]])) == 0
        # k = 1: the bound is the one total
        assert satisfaction_upper_bound(ConflictInstance.build(2, 1, [], [[3, 4]])) == 7
        # the least total binds: (3, 5), pooled 7 // 2 = 3
        inst = ConflictInstance.build(3, 2, [], [[1, 1, 1], [5, 0, 0]])
        assert satisfaction_upper_bound(inst) == 3
        # both agents want the same items: pooled 6 // 2 = 3, below the totals 6
        inst = ConflictInstance.build(2, 2, [], [[3, 3], [3, 3]])
        assert satisfaction_upper_bound(inst) == 3
        # disjoint wishes with equal totals: the bound is Q, and it is reached
        inst = ConflictInstance.build(2, 2, [], [[4, 0], [0, 4]])
        assert satisfaction_upper_bound(inst) == 4 == max_total_profit(inst)
        # an agent that values nothing
        inst = ConflictInstance.build(2, 2, [], [[4, 5], [0, 0]])
        assert satisfaction_upper_bound(inst) == 0


class TestSolveResultJson:
    def test_witness_is_one_based_and_sorted(self):
        result = SolveResult(
            optimum=2,
            profile=(3, 2),
            method="brute",
            witness=(frozenset({2, 0}), frozenset({1})),
            stats={"elapsed-ms": 1.5, "dp-cells": 4, "profiles-stored": 9},
        )
        payload = result.to_json_dict()
        assert payload["witness"] == [[1, 3], [2]]
        support.check_result_schema(payload, 2)


class TestRecords:
    """The records are plain classes that keep the behaviour callers rely on."""

    def frozen_records(self):
        from fairkdiv.approx import fptas
        from fairkdiv.cliquewidth import (
            EtaNode, RhoNode, UnionNode, VertexNode, evaluate_expression, parse_k_expression,
        )
        from fairkdiv.convex import _stage_structure, find_convex_ordering
        from fairkdiv.oracle import solve_brute
        from fairkdiv.treeindep import make_nice, parse_tree_decomposition

        inst = ConflictInstance.build(3, 2, [(0, 1), (1, 2)], [[2, 5, 3], [4, 1, 2]])
        expr = parse_k_expression("cw 2\n(eta 1 2 (u (u (v 1 1) (v 1 3)) (v 2 2)))\n")
        ordering = find_convex_ordering(inst)
        td = parse_tree_decomposition("s td 1 3 3\nb 1 1 2 3\n")
        leaf = VertexNode(1, 1)
        return [
            inst, SolveResult(2, (2, 2), "brute"),
            td, make_nice(td), leaf, UnionNode(leaf, leaf), EtaNode(1, 2, leaf),
            RhoNode(1, 2, leaf), expr, evaluate_expression(expr), ordering,
            _stage_structure(ordering), fptas(inst, "1/4", lambda scaled: solve_brute(scaled, None)),
        ]

    def test_assignment_raises(self):
        for record in self.frozen_records():
            field = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_construction_and_equality(self):
        from fairkdiv.cliquewidth import EtaNode, RhoNode, VertexNode

        leaf = VertexNode(1, 1)
        assert EtaNode(1, 2, leaf) == EtaNode(i=1, j=2, child=VertexNode(label=1, vertex=1))
        assert hash(EtaNode(1, 2, leaf)) == hash(EtaNode(1, 2, VertexNode(1, 1)))
        # same fields, different operation
        assert EtaNode(1, 2, leaf) != RhoNode(1, 2, leaf)
        assert repr(EtaNode(1, 2, leaf)) == "EtaNode(i=1, j=2, child=VertexNode(label=1, vertex=1))"
        assert ConflictInstance.build(2, 1, [(1, 0)], [[1, 2]]) == ConflictInstance(
            n=2, k=1, edges=((0, 1),), profits=((1, 2),)
        )

    def test_nice_nodes_compare_by_identity(self):
        from fairkdiv.treeindep import NiceNode

        leaf = NiceNode("leaf", frozenset())
        assert leaf.vertex is None and leaf.children == ()
        assert leaf == leaf and leaf != NiceNode("leaf", frozenset())

    def test_solve_result_stats_default_is_fresh(self):
        first, second = SolveResult(1, (1,), "brute"), SolveResult(1, (1,), "brute")
        assert first.witness is None and first.stats == {}
        assert first.stats is not second.stats

    def test_adjacency_is_cached(self):
        inst = ConflictInstance.build(3, 1, [(0, 1)], [[1, 1, 1]])
        assert inst.adjacency() is inst.adjacency()
        assert inst.adjacency() == (frozenset({1}), frozenset({0}), frozenset())

    def test_copy_and_pickle(self):
        from fairkdiv.treeindep import NiceTreeDecomposition

        for record in self.frozen_records():
            if isinstance(record, NiceTreeDecomposition):
                continue  # its nodes compare by identity
            assert copy.copy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record


class TestCapError:
    def test_every_cap_error_shares_the_base(self):
        # the CLI maps CapError, and only CapError, to exit 3
        from fairkdiv.oracle import EnumerationCapError
        from fairkdiv.profiles import ProfileCapError
        from fairkdiv.treeindep import AlphaCapError

        for cls in (EnumerationCapError, ProfileCapError, AlphaCapError):
            assert issubclass(cls, CapError) and not issubclass(cls, ValueError), cls
        assert not issubclass(RecursionError, CapError)


class TestInvariants:
    def test_roundtrip_property(self):
        properties.prop_roundtrip(150)

    def test_permutation_invariance(self):
        properties.prop_permutation_invariance(100)

    def test_empty_coloring_zero(self):
        properties.prop_empty_coloring_zero(100)

    def test_components_cover_and_merge(self):
        properties.prop_components_cover(100)

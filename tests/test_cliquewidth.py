import random
from collections import Counter

import pytest

import properties
import support

from fairkdiv import cliquewidth
from fairkdiv.cliquewidth import (
    EtaNode,
    ExpressionError,
    RhoNode,
    UnionNode,
    VertexNode,
    check_expression_matches,
    cliquewidth_profile_set,
    dp_node,
    evaluate_expression,
    label_bits,
    live_masks,
    parse_k_expression,
    solve_cliquewidth,
)
from fairkdiv.model import ConflictInstance, profile_of, validate_coloring
from fairkdiv.oracle import brute_force_optimum
from fairkdiv.profiles import ProfileSet, Run

K3_TEXT = "(eta 1 2 (u (rho 2 1 (eta 1 2 (u (v 1 1) (v 2 2)))) (v 2 3)))"


class TestParse:
    def test_single_leaf(self):
        expr = parse_k_expression("(v 1 1)")
        assert isinstance(expr.root, VertexNode)
        assert expr.num_labels == 1

    def test_k2(self):
        expr = parse_k_expression("(eta 1 2 (u (v 1 1) (v 2 2)))")
        graph = evaluate_expression(expr)
        assert graph.edges == frozenset({(1, 2)})

    def test_eta_equal_labels_rejected(self):
        with pytest.raises(ExpressionError, match="distinct"):
            parse_k_expression("(eta 1 1 (v 1 1))")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ExpressionError, match="duplicate vertex"):
            parse_k_expression("(u (v 1 1) (v 2 1))")

    def test_budget_line(self):
        expr = parse_k_expression("cw 4\n(v 2 1)")
        assert expr.num_labels == 4
        with pytest.raises(ExpressionError, match="exceeds"):
            parse_k_expression("cw 1\n(v 2 1)")

    def test_syntax_errors(self):
        with pytest.raises(ExpressionError):
            parse_k_expression("(v 1)")
        with pytest.raises(ExpressionError):
            parse_k_expression("(w 1 2)")
        with pytest.raises(ExpressionError, match="trailing"):
            parse_k_expression("(v 1 1) junk")

    @pytest.mark.parametrize("text, message", [
        ("(u (v 1 1) (v 2 1)) (v 1 3)", "trailing input after expression: '('"),
        ("cw 1\n(u (v 1 1) (v 2 1))", "duplicate vertex id 1"),
        ("(u (v 1 1) (v 1 1)", "expected ')', found 'end of input'"),
        ("(u (v 2 1) (u (v 1 2) (v 3 2)))", "duplicate vertex id 2"),
    ])
    def test_error_order(self, text, message):
        # the parser meets the duplicate id before the error in the text, but
        # reports it only once the text has parsed, and before the budget
        with pytest.raises(ExpressionError) as caught:
            parse_k_expression(text)
        assert str(caught.value) == message

    def test_records_ids_and_labels_without_a_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the parser walked the tree")

        monkeypatch.setattr(cliquewidth, "post_order", walk)
        expr = parse_k_expression("(rho 3 1 (u (v 1 2) (eta 1 2 (u (v 2 5) (v 1 1)))))")
        assert expr.vertex_ids == {1, 2, 5} and expr.num_labels == 3


class TestEvaluate:
    def test_k3(self):
        graph = evaluate_expression(parse_k_expression(K3_TEXT))
        assert graph.edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_two_isolated_same_label(self):
        graph = evaluate_expression(parse_k_expression("(u (v 1 1) (v 1 2))"))
        assert graph.edges == frozenset()
        assert graph.labels == {1: 1, 2: 1}

    def test_relabel_single_vertex(self):
        graph = evaluate_expression(parse_k_expression("(rho 1 2 (v 1 1))"))
        assert graph.labels == {1: 2}

    def test_idempotent(self):
        expr = parse_k_expression(K3_TEXT)
        assert evaluate_expression(expr) == evaluate_expression(expr)


class TestCheckMatches:
    def test_k3_ok(self):
        expr = parse_k_expression(K3_TEXT)
        tri = ConflictInstance.build(3, 1, [(0, 1), (1, 2), (0, 2)], [[1] * 3])
        assert check_expression_matches(expr, tri) is None

    def test_k3_vs_path_reports_extra_edge(self):
        expr = parse_k_expression(K3_TEXT)
        path = ConflictInstance.build(3, 1, [(0, 1), (1, 2)], [[1] * 3])
        report = check_expression_matches(expr, path)
        assert report is not None and "adds edge" in report

    def test_unknown_vertex(self):
        expr = parse_k_expression("(u (v 1 1) (u (v 1 2) (u (v 1 3) (v 1 4))))")
        inst = ConflictInstance.build(3, 1, [], [[1] * 3])
        report = check_expression_matches(expr, inst)
        assert report is not None and "unknown vertex 4" in report


class TestSolve:
    def test_k3_two_agents(self):
        expr = parse_k_expression(K3_TEXT)
        inst = ConflictInstance.build(
            3, 2, [(0, 1), (1, 2), (0, 2)], [[5, 4, 3], [5, 4, 3]]
        )
        opt, profile, witness = solve_cliquewidth(inst, expr)
        assert opt == 4
        validate_coloring(inst, witness)
        assert profile_of(inst, witness) == profile

    def test_single_leaf(self):
        expr = parse_k_expression("(v 1 1)")
        inst = ConflictInstance.build(1, 1, [], [[9]])
        opt, _, witness = solve_cliquewidth(inst, expr)
        assert opt == 9
        assert witness == (frozenset({0}),)

    def test_cograph_two_cliques(self):
        text = "(u (eta 1 2 (u (v 1 1) (v 2 2))) (eta 1 2 (u (v 1 3) (v 2 4))))"
        expr = parse_k_expression(text)
        inst = ConflictInstance.build(4, 2, [(0, 1), (2, 3)], [[1] * 4] * 2)
        opt, _, witness = solve_cliquewidth(inst, expr)
        want, _ = brute_force_optimum(inst)
        assert opt == want == 2
        validate_coloring(inst, witness)

    @pytest.mark.parametrize("prune", [True, False])
    def test_steps_are_built_once_per_node(self, monkeypatch, prune):
        # the witness walk reads the steps the forward pass kept
        text = "(u (eta 1 2 (u (v 1 1) (v 2 2))) (rho 1 2 (eta 1 2 (u (v 1 3) (v 2 4)))))"
        expr = parse_k_expression(text)
        inst = ConflictInstance.build(4, 2, [(0, 1), (2, 3)], [[3, 1, 4, 1], [5, 9, 2, 6]])
        calls: Counter = Counter()
        cw_steps = cliquewidth.cw_steps

        def counted(node, *rest):
            calls[id(node)] += 1
            return cw_steps(node, *rest)

        monkeypatch.setattr(cliquewidth, "cw_steps", counted)
        _, profile, witness = solve_cliquewidth(inst, expr, prune=prune)
        assert profile_of(inst, witness) == profile
        assert calls == Counter({id(node): 1 for node in cliquewidth._walk(expr.root)})

    def test_mismatch_raises(self):
        expr = parse_k_expression(K3_TEXT)
        path = ConflictInstance.build(3, 1, [(0, 1), (1, 2)], [[1] * 3])
        with pytest.raises(ExpressionError):
            solve_cliquewidth(path, expr)


class TestDpNode:
    """Unpruned cells are held on the instance's grid; they compare as ProfileSets.

    With k = 1 a key is its one agent's mask; tables are compared decoded.
    """

    # label_bits of an expression that names labels 1 and 2, and a live mask holding both
    BITS = {1: 0b01, 2: 0b10}
    LIVE = 0b11
    SHIFTS, ONES = range(1), 0b01  # one field, at shift 0: its lowest bit

    def dp(self, node, child_tables, inst, run):
        return dp_node(node, child_tables, inst, run, self.BITS, self.LIVE, self.SHIFTS, self.ONES)

    @staticmethod
    def masks(table):
        return {support.cw_key_masks(key, 1, 2): cell for key, cell in table.items()}

    def test_vertex_cells(self):
        inst = ConflictInstance.build(1, 1, [], [[7]])
        run = Run(inst.total_profits())
        table = self.dp(VertexNode(label=1, vertex=1), [], inst, run)
        assert self.masks(table) == {
            (0,): ProfileSet(1, {(0,)}),
            (1,): ProfileSet(1, {(7,)}),
        }

    def test_eta_filters_conflicting_keys(self):
        inst = ConflictInstance.build(2, 1, [(0, 1)], [[2, 3]])
        run = Run(inst.total_profits())
        child = {
            0: support.on_grid(run.grid, ProfileSet(1, {(0,)})),
            0b11: support.on_grid(run.grid, ProfileSet(1, {(5,)})),
        }
        table = self.dp(EtaNode(1, 2, VertexNode(1, 1)), [child], inst, run)
        assert self.masks(table) == {(0,): ProfileSet(1, {(0,)})}

    def test_rho_moves_cells(self):
        inst = ConflictInstance.build(1, 1, [], [[7]])
        run = Run(inst.total_profits())
        child = self.dp(VertexNode(label=1, vertex=1), [], inst, run)
        table = self.dp(RhoNode(1, 2, VertexNode(1, 1)), [child], inst, run)
        assert self.masks(table) == {
            (0,): ProfileSet(1, {(0,)}),
            (0b10,): ProfileSet(1, {(7,)}),
        }

    def test_union_adds_profiles(self):
        inst = ConflictInstance.build(2, 1, [], [[2, 3]])
        run = Run(inst.total_profits())
        left = self.dp(VertexNode(1, 1), [], inst, run)
        right = self.dp(VertexNode(1, 2), [], inst, run)
        union = UnionNode(VertexNode(1, 1), VertexNode(1, 2))
        table = self.masks(self.dp(union, [left, right], inst, run))
        assert set(table[(1,)]) == {(2,), (3,), (5,)}
        assert set(table[(0,)]) == {(0,)}


class TestLiveMasks:
    def test_hand_built(self):
        # (u (eta 1 2 (u (rho 3 1 (v 3 1)) (rho 1 3 (v 1 2)))) (v 2 3))
        v1, v2, v3 = VertexNode(3, 1), VertexNode(1, 2), VertexNode(2, 3)
        rho_live, rho_dead = RhoNode(3, 1, v1), RhoNode(1, 3, v2)
        inner = UnionNode(rho_live, rho_dead)
        eta = EtaNode(1, 2, inner)
        root = UnionNode(eta, v3)
        nodes = cliquewidth._walk(root)
        bits = label_bits(nodes)
        assert bits == {1: 0b001, 2: 0b010, 3: 0b100}
        live = live_masks(nodes, bits)
        assert {node: live[id(node)] for node in (root, eta, v3)} == {root: 0, eta: 0, v3: 0}
        # the eta reads labels 1 and 2; the union passes them to both sides
        assert live[id(inner)] == live[id(rho_live)] == live[id(rho_dead)] == 0b011
        # 3 -> 1 with label 1 live: label 3 is live below, read as 1 above
        assert live[id(v1)] == 0b111
        # 1 -> 3 with label 3 dead: label 1 is dead below
        assert live[id(v2)] == 0b010

    def test_dead_labels_share_a_cell(self):
        # label 3 is never read: a vertex labeled 3 adds no key, only profiles
        inst = ConflictInstance.build(2, 1, [], [[2, 3]])
        expr = parse_k_expression("(u (v 3 1) (v 3 2))")
        run = Run(inst.total_profits())
        cliquewidth.cw_run(inst, expr, run)
        # one label, so one field of one bit
        tables = {
            node: {support.cw_key_masks(key, 1, 1): cell for key, cell in table.items()}
            for node, table in run.tables.items()
        }
        assert all(list(table) == [(0,)] for table in tables.values())
        assert set(tables[id(expr.root)][(0,)]) == {(0,), (2,), (3,), (5,)}


def relabelled(node, label):
    """The expression tree of node with every label l replaced by label[l]."""
    if isinstance(node, VertexNode):
        return VertexNode(label[node.label], node.vertex)
    if isinstance(node, UnionNode):
        return UnionNode(relabelled(node.left, label), relabelled(node.right, label))
    return type(node)(label[node.i], label[node.j], relabelled(node.child, label))


def solve_both(inst, expr):
    """The full set, and the solution with its counters, of one expression."""
    stats: dict = {}
    return cliquewidth_profile_set(inst, expr), solve_cliquewidth(inst, expr, stats=stats), stats


class TestSparseLabels:
    """A label sizes no int: each gets the bit of its rank among the expression's labels."""

    def test_label_of_ten_to_the_twelve(self):
        big = 10**12
        sparse = parse_k_expression(f"cw {big}\n(eta 1 {big} (u (v 1 1) (v {big} 2)))\n")
        dense = parse_k_expression("(eta 1 2 (u (v 1 1) (v 2 2)))")
        inst = ConflictInstance.build(2, 2, [(0, 1)], [[3, 4], [5, 1]])
        assert solve_both(inst, sparse) == solve_both(inst, dense)
        assert cliquewidth.label_bits(cliquewidth._walk(sparse.root)) == {1: 1, big: 2}

    def test_sparse_relabels_give_the_dense_results(self):
        rng = random.Random(61)
        for _ in range(40):
            dense = support.random_expression(rng, 6, rng.randint(1, 4))
            inst = support.instance_for_expression(dense, rng, rng.randint(1, 2), 5)
            # increasing gaps, so the relabel keeps the labels' order
            label, top = {}, 0
            for old in range(1, dense.num_labels + 1):
                top = label[old] = top + rng.choice([1, 7, 10**9, 10**15])
            sparse = parse_k_expression(support.expression_text(dense._replace(
                root=relabelled(dense.root, label), num_labels=top
            )))
            assert solve_both(inst, sparse) == solve_both(inst, dense)


class TestInvariants:
    def test_node_soundness(self):
        properties.prop_cw_node_soundness(80)

    def test_root_completeness(self):
        properties.prop_cw_root_completeness(120)

    def test_eta_postcondition(self):
        properties.prop_cw_eta_filter(120)

    def test_rho_postcondition(self):
        properties.prop_cw_rho_filter(120)

    def test_union_symmetric(self):
        properties.prop_cw_union_symmetric(100)

    def test_dead_labels(self):
        properties.prop_cw_dead_labels(150)

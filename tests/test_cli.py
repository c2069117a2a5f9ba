import contextlib
import io
import json

import pytest

import properties
import support

import fairkdiv.convex
import fairkdiv.recognition
import fairkdiv.treeindep
from fairkdiv.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from fairkdiv.model import (
    ConflictInstance,
    parse_instance,
    satisfaction_upper_bound,
    serialize_instance,
)
from fairkdiv.recognition import ordering_file_text, parse_ordering_file

T1_TEXT = "p fkd 2 0 2\nw 1 3 1\nw 2 2 2\n"
# three equal items, k=2: several optimal colorings with different profiles
U3_TEXT = "p fkd 3 0 2\nw 1 1 1 1\nw 2 1 1 1\n"
U3_SIDE = {
    "cw": ("--expression", "cw 1\n(u (v 1 1) (u (v 1 2) (v 1 3)))\n"),
    "tin": ("--td", "s td 1 3 3\nb 1 1 2 3\n"),
}
# the path 1-2-3, convex with A = {1, 3} and B = {2}
P3_TEXT = "p fkd 3 2 2\nw 1 2 5 3\nw 2 4 1 2\ne 1 2\ne 2 3\n"
P3_SIDE = {
    "cw": ("--expression", "cw 2\n(eta 1 2 (u (u (v 1 1) (v 1 3)) (v 2 2)))\n"),
    "tin": ("--td", "s td 1 3 3\nb 1 1 2 3\n"),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.fkd"
    path.write_text(T1_TEXT)
    return str(path)


class TestSolve:
    def test_brute_on_t1(self, t1_file):
        code, out, _ = run_cli(["solve", "--method", "brute", t1_file])
        assert code == EXIT_OK
        assert "optimum: 2" in out
        assert "witness 1:" in out

    def test_json_schema(self, t1_file):
        code, out, _ = run_cli(["solve", "--method", "brute", t1_file, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        support.check_result_schema(payload, 2)
        assert payload["optimum"] == 2

    def test_methods_agree(self, tmp_path):
        code, _, _ = run_cli([
            "gen", "convex", "--na", "3", "--nb", "3", "--k", "2",
            "--max-profit", "4", "--seed", "3", "--out", str(tmp_path / "g"),
        ])
        assert code == EXIT_OK
        results = {}
        for method in ("brute", "convex"):
            code, out, _ = run_cli([
                "solve", "--method", method, str(tmp_path / "g.fkd"), "--json",
            ])
            assert code == EXIT_OK
            results[method] = json.loads(out)["optimum"]
        assert results["brute"] == results["convex"]

    def test_auto_prefers_convex(self, tmp_path):
        code, _, _ = run_cli([
            "gen", "convex", "--na", "3", "--nb", "2", "--k", "1",
            "--max-profit", "3", "--seed", "5", "--out", str(tmp_path / "a"),
        ])
        assert code == EXIT_OK
        code, out, _ = run_cli(["solve", str(tmp_path / "a.fkd"), "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "convex"

    @pytest.fixture
    def c6_and_triangle(self, tmp_path):
        # the 6-cycle is bipartite but not convex; the triangle is not bipartite
        c6 = tmp_path / "c6.fkd"
        c6.write_text(
            "p fkd 6 6 2\nw 1 5 5 5 5 5 5\nw 2 5 5 5 5 5 5\n"
            "e 1 4\ne 1 5\ne 2 5\ne 2 6\ne 3 6\ne 3 4\n"
        )
        tri = tmp_path / "tri.fkd"
        tri.write_text("p fkd 3 3 2\nw 1 1 2 3\nw 2 3 2 1\ne 1 2\ne 2 3\ne 1 3\n")
        return str(c6), str(tri)

    def test_auto_falls_back_to_brute(self, c6_and_triangle):
        c6, tri = c6_and_triangle
        code, out, _ = run_cli(["solve", c6, "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["method"], payload["optimum"]) == ("brute", 15)
        code, out, _ = run_cli(["solve", tri, "--json"])
        assert code == EXIT_OK
        assert json.loads(out)["method"] == "brute"

    def test_auto_without_an_applicable_method_exit_1(self, c6_and_triangle):
        c6, _ = c6_and_triangle
        code, out, err = run_cli(["solve", c6, "--oracle-cap", "1"])
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "error: no applicable method: supply --td or --expression\n"

    def test_convex_on_a_non_convex_graph_exit_1(self, c6_and_triangle):
        c6, _ = c6_and_triangle
        message = "recognition failed: no A-order gives consecutive B-neighborhoods"
        code, out, err = run_cli(["solve", c6, "--method", "convex"])
        assert (code, out, err) == (EXIT_INFEASIBLE, "", f"error: {message}\n")
        with open(c6) as handle:
            inst = parse_instance(handle.read())
        with pytest.raises(
            fairkdiv.recognition.OrderingError, match="^graph admits no convex bipartite ordering$"
        ):
            fairkdiv.convex.solve_convex(inst)

    def test_convex_on_odd_cycle_exit_1(self, c6_and_triangle):
        _, tri = c6_and_triangle
        code, out, err = run_cli(["solve", tri, "--method", "convex"])
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "error: graph is not bipartite: odd cycle found\n"

    def test_usage_error_exit_2(self, t1_file):
        code, _, _ = run_cli(["solve", "--method", "bogus", t1_file])
        assert code == EXIT_USAGE
        code, _, err = run_cli(["solve", "--method", "cw", t1_file])
        assert code == EXIT_USAGE
        assert "--expression" in err

    def test_resource_cap_exit_3(self, tmp_path):
        path = tmp_path / "big.fkd"
        path.write_text("p fkd 6 0 2\nw 1 1 1 1 1 1 1\nw 2 1 1 1 1 1 1\n")
        code, _, err = run_cli([
            "solve", "--method", "brute", str(path), "--oracle-cap", "10",
        ])
        assert code == EXIT_RESOURCE
        assert "cap" in err

    @pytest.mark.parametrize("command", ["solve", "profiles"])
    @pytest.mark.parametrize("method", ["tin", "cw", "convex"])
    def test_profile_cap_exit_3(self, tmp_path, command, method):
        instance = tmp_path / "p3.fkd"
        instance.write_text(P3_TEXT)
        argv = [command, "--method", method, str(instance), "--profile-cap", "1"]
        if method in P3_SIDE:
            flag, side_text = P3_SIDE[method]
            side_path = tmp_path / f"p3.{method}"
            side_path.write_text(side_text)
            argv += [flag, str(side_path)]
        code, out, err = run_cli(argv)
        assert code == EXIT_RESOURCE, err
        assert "cap" in err and "Traceback" not in err
        assert out == ""

    def test_runtime_error_is_not_a_cap(self, tmp_path, monkeypatch):
        # exit 3 is for CapError alone; a RecursionError is a bug, not a resource limit
        def overflow(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(fairkdiv.treeindep, "solve_tin", overflow)
        instance = tmp_path / "p3.fkd"
        instance.write_text(P3_TEXT)
        td = tmp_path / "p3.td"
        td.write_text(P3_SIDE["tin"][1])
        with pytest.raises(RecursionError):
            main(["solve", "--method", "tin", str(instance), "--td", str(td)])

    def test_memory_error_exit_3(self, tmp_path, monkeypatch):
        # an allocation that fails inside a solver is a resource limit, like a cap
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(fairkdiv.treeindep, "solve_tin", exhausted)
        instance = tmp_path / "p3.fkd"
        instance.write_text(P3_TEXT)
        td = tmp_path / "p3.td"
        td.write_text(P3_SIDE["tin"][1])
        code, out, err = run_cli(["solve", "--method", "tin", str(instance), "--td", str(td)])
        assert (code, out, err) == (EXIT_RESOURCE, "", "error: out of memory\n")

    def test_bad_instance_exit_1(self, tmp_path):
        path = tmp_path / "bad.fkd"
        path.write_text("p fkd 2 1 1\nw 1 1 1\ne 1 1\n")
        code, _, err = run_cli(["solve", "--method", "brute", str(path)])
        assert code == EXIT_INFEASIBLE
        assert "self-loop" in err

    def test_tin_with_td_file(self, tmp_path):
        code, _, _ = run_cli([
            "gen", "ktree", "--n", "6", "--width", "2", "--k", "2",
            "--max-profit", "3", "--seed", "9", "--out", str(tmp_path / "k"),
        ])
        assert code == EXIT_OK
        code, out, _ = run_cli([
            "solve", "--method", "tin", str(tmp_path / "k.fkd"),
            "--td", str(tmp_path / "k.td"), "--json",
        ])
        assert code == EXIT_OK
        code2, out2, _ = run_cli([
            "solve", "--method", "brute", str(tmp_path / "k.fkd"), "--json",
        ])
        assert json.loads(out)["optimum"] == json.loads(out2)["optimum"]

    def test_chordal_flag(self, tmp_path):
        code, _, _ = run_cli([
            "gen", "ktree", "--n", "6", "--width", "2", "--k", "1",
            "--max-profit", "3", "--seed", "2", "--delete-prob", "0",
            "--out", str(tmp_path / "c"),
        ])
        assert code == EXIT_OK
        code, out, _ = run_cli([
            "solve", "--method", "tin", "--chordal", str(tmp_path / "c.fkd"), "--json",
        ])
        assert code == EXIT_OK


# Malformed .fkd texts and the exact message of each; every one exits 1.
# Together they name every InstanceFormatError the parser raises.
BAD_INSTANCES = [
    ('', 'missing header line'),
    ('c only a comment\n', 'missing header line'),
    ('p fkd 2 0 1\nw 1 1 1\np fkd 2 0 1\n', 'line 3: duplicate header line'),
    ('p fkd 2 0\nw 1 1 1\n', "line 1: header must be 'p fkd <n> <m> <k>'"),
    ('p kfd 2 0 1\nw 1 1 1\n', "line 1: header must be 'p fkd <n> <m> <k>'"),
    ('p fkd 2 x 1\nw 1 1 1\n', 'line 1: expected integers, got 2 x 1'),
    ('p fkd 2 0 0\n', 'line 1: header counts out of range'),
    ('w 1 1 1\np fkd 2 0 1\n', 'line 1: weight line before header'),
    ('p fkd 2 0 2\nw 2 1 1\nw 1 1 1\n', 'line 2: expected weight line for agent 1'),
    ('p fkd 2 0 1\nw 1 1\n', 'line 2: agent 1 has 1 profits, expected 2'),
    ('p fkd 2 0 1\nw 1 1 -1\n', 'line 2: negative profit'),
    ('p fkd 2 0 1\nw 1 1 1\nw 2 1 1\n', 'line 3: more weight lines than agents'),
    ('e 1 2\np fkd 2 1 1\nw 1 1 1\n', 'line 1: edge line before header'),
    ('p fkd 2 1 2\nw 1 1 1\ne 1 2\nw 2 1 1\n', 'line 3: edge line before all weight lines'),
    ('p fkd 2 1 1\nw 1 1 1\ne 1 x\n', 'line 3: expected integers, got 1 x'),
    ('p fkd 3 1 1\nw 1 1 1 1\ne 1 2 x\n', 'line 3: expected integers, got 1 2 x'),
    ('p fkd 3 1 1\nw 1 1 1 1\ne 1 2 3\n', "line 3: edge line must be 'e <u> <v>'"),
    ('p fkd 3 1 1\nw 1 1 1 1\ne 2 2\n', 'line 3: self-loop at vertex 2'),
    # the self-loop check comes before the range check
    ('p fkd 3 1 1\nw 1 1 1 1\ne 9 9\n', 'line 3: self-loop at vertex 9'),
    ('p fkd 3 1 1\nw 1 1 1 1\ne 1 4\n', 'line 3: edge (1,4) out of range'),
    ('p fkd 3 1 1\nw 1 1 1 1\ne 0 1\n', 'line 3: edge (0,1) out of range'),
    # the earliest line's error wins: line 5's edge is out of range
    ('p fkd 3 3 1\nw 1 1 1 1\ne 1 2\ne 2 1\ne 1 9\n', 'line 4: duplicate edge (2,1)'),
    ('p fkd 2 0 1\nw 1 1 1\nq 1 2\n', "line 3: unknown record 'q'"),
    ('p fkd 2 0 2\nw 1 1 1\n', 'expected 2 weight lines, found 1'),
    ('p fkd 3 2 1\nw 1 1 1 1\ne 1 2\n', 'header declares 2 edges, found 1'),
    ('p fkd 3 0 1\nw 1 1 1 1\ne +2 1_0\n', 'line 3: edge (2,10) out of range'),
    (f"p fkd 2 0 1\nw 1 {2**62} {2**62}\n", 'total profit of agent 1 exceeds the 64-bit range'),
    ('p fkd 2 1 1\x0cw 1 1 1\r\n  c note\u2028e 2 2\n', 'line 4: self-loop at vertex 2'),
    ('p fkd 0 1 1\ne 1 2\n', 'line 2: edge line before all weight lines'),
]


class TestInstanceErrorCorpus:
    @pytest.mark.parametrize("text, message", BAD_INSTANCES)
    def test_exact_stderr_and_exit_1(self, tmp_path, text, message):
        path = tmp_path / "bad.fkd"
        path.write_text(text, encoding="utf-8", newline="")
        assert run_cli(["solve", str(path)]) == (EXIT_INFEASIBLE, "", f"error: {message}\n")


# malformed .td files for the path 1-2-3, each with its exact error message
BAD_TDS = [
    ("b 1 1 2 3\n", "line 1: bag line before header"),
    ("s td 1 3 3\ns td 1 3 3\nb 1 1 2 3\n", "line 2: duplicate 's td' line"),
    ("s td 1 3 3\nb 1 1 2 4\n", "line 2: vertex 4 out of range 1..3"),
    ("s td 2 3 3\nb 1 1 2 3\nb 1 1 2\n1 1\n", "line 3: duplicate bag id 1"),
    ("c note\ns td 1 3 3\nb 1 1 2 3 3\n", "line 3: bag 1 repeats vertex 3"),
    ("s td 1 2 3\nb 1 1 2 3\n", "line 1: header declares bag size 2, largest bag has 3"),
    ("s td 1 4 3\nb 1 1 2 3\n", "line 1: header declares bag size 4, largest bag has 3"),
    ("s td 2 3 3\nb 1 1 2 3\n", "header declares 2 bags, found 1"),
    ("c only a comment\nc\n", "missing 's td' header"),
    ("s td 1 3 3\nb\n", "line 2: bag line without id"),
    ("s td 1 3 3\nb 1 1 2 3\n1 1\n", "tree self-loop at bag 1"),
    ("s td 3 3 3\nb 1 1 2 3\nb 2 1\nb 3 2\n1 2\n1 2\n", "disconnected tree"),
    ("s td 1 2 2\nb 1 1 2\n", "decomposition is for 2 vertices, instance has 3"),
]


class TestDecompositionErrorCorpus:
    @pytest.mark.parametrize("text, message", BAD_TDS)
    def test_exact_stderr_and_exit_1(self, tmp_path, monkeypatch, text, message):
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "bad.td").write_text(text)
        argv = ["solve", "p3.fkd", "--method", "tin", "--td", "bad.td"]
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv) == (EXIT_INFEASIBLE, "", f"error: {message}\n")


# expressions that do not parse or do not build the path 1-2-3, each with its exact error message
BAD_EXPRESSIONS = [
    ("(u (v 1 1) (v 1 2))\n", "expression: vertex 3 missing from expression"),
    (
        "cw 2\n(u (u (v 1 1) (v 1 3)) (v 2 2))\n",
        "expression: expression misses instance edge (1, 2)",
    ),
    ("cw 0\n(v 1 1)\n", "label budget must be positive"),
    ("(", "unexpected end of input"),
    ("(v 1", "unexpected end of input"),
]


class TestExpressionErrorCorpus:
    @pytest.mark.parametrize("text, message", BAD_EXPRESSIONS)
    def test_exact_stderr_and_exit_1(self, tmp_path, monkeypatch, text, message):
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "bad.cw").write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = ["validate", "p3.fkd", "--expression", "bad.cw"]
        out = "instance: ok (n=3, m=2, k=2)\n"
        assert run_cli(argv) == (EXIT_INFEASIBLE, out, f"error: {message}\n")


class TestExpressionBudgetLine:
    """Only a first token of exactly `cw` starts a budget line."""

    @pytest.mark.parametrize("first, message", [
        ("cw 3 4", "bad budget line: 'cw 3 4'"),
        ("cw x", "bad budget line: 'cw x'"),
    ])
    def test_exact_stderr_and_exit_1(self, tmp_path, monkeypatch, first, message):
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "bad.cw").write_text(f"{first}\n(u (v 1 1) (u (v 2 2) (v 1 3)))\n")
        monkeypatch.chdir(tmp_path)
        argv = ["validate", "p3.fkd", "--expression", "bad.cw"]
        out = "instance: ok (n=3, m=2, k=2)\n"
        assert run_cli(argv) == (EXIT_INFEASIBLE, out, f"error: {message}\n")


class TestExpressionComments:
    """A line whose first token starts with `c` is a comment, but a leading `cw` budget line."""

    EXPR = "(eta 1 2 (u (u (v 1 1) (v 1 3)) (v 2 2)))"

    @pytest.mark.parametrize("text, labels", [
        (f"c\n{EXPR}\n", 2),
        (f"c\tnote\n{EXPR}\n", 2),
        (f"cw 3\nc after the budget line\n{EXPR}\n", 3),
        (f"c before\ncw 3\n{EXPR}\n", 3),
        ("(eta 1 2 (u (u (v 1 1) (v 1 3))\nc inside the expression\n(v 2 2)))\n", 2),
        # a budget line after the expression, or a token like cwfoo, is a comment
        (f"{EXPR}\ncw 5\n", 2),
        (f"cwfoo 3\n{EXPR}\n", 2),
    ], ids=["bare-c", "c-tab", "after-budget", "before-budget", "inside", "late-budget", "cwfoo"])
    def test_accepted(self, tmp_path, monkeypatch, text, labels):
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "e.cw").write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = ["validate", "p3.fkd", "--expression", "e.cw"]
        out = f"instance: ok (n=3, m=2, k=2)\nexpression: ok (labels={labels})\n"
        assert run_cli(argv) == (EXIT_OK, out, "")

    @pytest.mark.parametrize("text, message", [
        ("c note\ncw x\n(v 1 1)\n", "bad budget line: 'cw x'"),
        ("c\ncw 2\nc\n(u (v 1 1) (v 2 2)) (v 1 3)\n", "trailing input after expression: '('"),
        ("c only comments\nc\n", "expected '(', found 'end of input'"),
    ], ids=["bad-budget", "trailing", "empty"])
    def test_exact_stderr_and_exit_1(self, tmp_path, monkeypatch, text, message):
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "e.cw").write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = ["validate", "p3.fkd", "--expression", "e.cw"]
        out = "instance: ok (n=3, m=2, k=2)\n"
        assert run_cli(argv) == (EXIT_INFEASIBLE, out, f"error: {message}\n")


class TestSideInputs:
    """An explicit --method reads only its own side input; auto reads them all."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p3.fkd").write_text(P3_TEXT)
        (tmp_path / "p3.td").write_text(P3_SIDE["tin"][1])
        (tmp_path / "bad.cw").write_text("garbage\n")
        (tmp_path / "bad.td").write_text("garbage\n")
        # the 4-cycle: convex, not chordal
        (tmp_path / "c4.fkd").write_text("p fkd 4 4 1\nw 1 1 1 1 1\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "p3.fkd", "--method", "tin", "--td", "p3.td", "--expression", "bad.cw"],
        ["solve", "p3.fkd", "--method", "convex", "--td", "bad.td", "--expression", "bad.cw"],
        ["solve", "p3.fkd", "--method", "brute", "--td", "bad.td", "--expression", "bad.cw"],
        ["profiles", "p3.fkd", "--method", "tin", "--td", "p3.td", "--expression", "bad.cw"],
        ["approx", "p3.fkd", "--method", "tin", "--td", "p3.td", "--expression", "bad.cw",
         "--epsilon", "1/4"],
        ["solve", "c4.fkd", "--method", "convex", "--chordal"],
    ])
    def test_unused_side_inputs_are_not_read(self, argv):
        code, out, err = run_cli(argv)
        assert code == EXIT_OK, err
        assert out

    def test_chordal_still_checked_for_tin(self):
        code, _, err = run_cli(["solve", "c4.fkd", "--method", "tin", "--chordal"])
        assert code == EXIT_INFEASIBLE
        assert "not chordal" in err

    @pytest.mark.parametrize("command", ["solve", "profiles", "approx"])
    @pytest.mark.parametrize("td", ["p3.td", "bad.td"])
    def test_td_and_chordal_are_a_usage_error(self, command, td):
        # the clique tree would replace the file's decomposition unread
        argv = [command, "p3.fkd", "--method", "tin", "--td", td, "--chordal"]
        code, out, err = run_cli(argv + (["--epsilon", "1/4"] if command == "approx" else []))
        assert code == EXIT_USAGE
        assert "not allowed with argument" in err
        assert not out

    def test_auto_still_parses_every_side_input(self):
        code, _, err = run_cli(["solve", "p3.fkd", "--td", "p3.td", "--expression", "bad.cw"])
        assert code == EXIT_INFEASIBLE
        assert "expected '('" in err


class TestProfiles:
    def test_dump_is_sorted(self, t1_file):
        code, out, _ = run_cli(["profiles", "--method", "brute", t1_file])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines == sorted(lines, key=lambda s: tuple(int(x) for x in s.split()))
        assert "0 0" in lines
        assert len(lines) == 8

    def test_methods_dump_identically(self, tmp_path):
        run_cli([
            "gen", "convex", "--na", "3", "--nb", "3", "--k", "2",
            "--max-profit", "3", "--seed", "21", "--out", str(tmp_path / "p"),
        ])
        dumps = {}
        for method in ("brute", "convex"):
            code, out, _ = run_cli([
                "profiles", "--method", method, str(tmp_path / "p.fkd"),
            ])
            assert code == EXIT_OK
            dumps[method] = out
        assert dumps["brute"] == dumps["convex"]


class TestRecognize:
    def test_emits_ordering_file(self, tmp_path):
        run_cli([
            "gen", "convex", "--na", "4", "--nb", "3", "--k", "1",
            "--max-profit", "2", "--seed", "1", "--out", str(tmp_path / "r"),
        ])
        code, out, _ = run_cli(["recognize", str(tmp_path / "r.fkd")])
        assert code == EXIT_OK
        inst = parse_instance((tmp_path / "r.fkd").read_text())
        parse_ordering_file(out, inst)

    def test_nonconvex_exit_1(self, tmp_path):
        # the 4-column obstruction: rows {1,2},{3,4},{1,3},{2,4}
        rows = [(1, 2), (3, 4), (1, 3), (2, 4)]
        edges = [f"e {a} {4 + i + 1}" for i, row in enumerate(rows) for a in row]
        text = "p fkd 8 8 1\nw 1 1 1 1 1 1 1 1 1\n" + "\n".join(edges) + "\n"
        path = tmp_path / "nc.fkd"
        path.write_text(text)
        code, _, err = run_cli(["recognize", str(path)])
        assert code == EXIT_INFEASIBLE
        assert "consecutive" in err


    def test_path_of_5000_vertices(self, tmp_path):
        n = 5000
        lines = [f"p fkd {n} {n - 1} 1", "w 1 " + " ".join(["1"] * n)]
        lines += [f"e {v} {v + 1}" for v in range(1, n)]
        path = tmp_path / "path.fkd"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["recognize", str(path)])
        assert code == EXIT_OK, err
        ordering = parse_ordering_file(out, parse_instance(path.read_text()))
        assert len(ordering.a_order) == n // 2


class TestValidate:
    def test_validate_everything(self, tmp_path):
        run_cli([
            "gen", "convex", "--na", "3", "--nb", "3", "--k", "2",
            "--max-profit", "4", "--seed", "12", "--out", str(tmp_path / "v"),
        ])
        code, out, _ = run_cli([
            "validate", str(tmp_path / "v.fkd"),
            "--ordering", str(tmp_path / "v.ordering"),
        ])
        assert code == EXIT_OK
        assert "instance: ok" in out and "ordering: ok" in out

    def test_validate_result_roundtrip(self, tmp_path):
        # every method's solve --json output certifies itself on its instance
        cases = [
            ("t1", T1_TEXT, {}, ("brute",)),
            ("u3", U3_TEXT, U3_SIDE, ("brute", "convex", "cw", "tin")),
            ("p3", P3_TEXT, P3_SIDE, ("convex", "cw", "tin")),
        ]
        for name, text, side, methods in cases:
            instance = tmp_path / f"{name}.fkd"
            instance.write_text(text)
            for method in methods:
                argv = ["solve", "--method", method, str(instance), "--json"]
                if method in side:
                    flag, side_text = side[method]
                    side_path = tmp_path / f"{name}.{method}"
                    side_path.write_text(side_text)
                    argv += [flag, str(side_path)]
                code, out, err = run_cli(argv)
                assert code == EXIT_OK, (name, method, err)
                assert json.loads(out)["method"] == method
                result_path = tmp_path / f"{name}-{method}.json"
                result_path.write_text(out)
                code, out, err = run_cli([
                    "validate", str(instance), "--result", str(result_path),
                ])
                assert code == EXIT_OK, (name, method, err)
                assert "result: ok" in out

    def test_validate_td_reports_the_given_decomposition(self, tmp_path):
        # the path 1-2-3-4: the solver drops vertex 1 from bag 2, validate reports bag 2 as given
        instance = tmp_path / "p4.fkd"
        instance.write_text("p fkd 4 3 2\nw 1 3 1 2 2\nw 2 1 2 3 1\ne 1 2\ne 2 3\ne 3 4\n")
        td = tmp_path / "p4.td"
        td.write_text("s td 3 3 4\nb 1 1 2\nb 2 1 2 3\nb 3 3 4\n1 2\n2 3\n")
        inst = parse_instance(instance.read_text())
        decomposition = fairkdiv.treeindep.parse_tree_decomposition(td.read_text())
        assert fairkdiv.treeindep.trim_td(inst, decomposition).width() == 1
        argv = [str(instance), "--td", str(td)]
        code, out, err = run_cli(["solve", *argv, "--method", "tin", "--json"])
        assert code == EXIT_OK, err
        result = tmp_path / "p4.json"
        result.write_text(out)
        code, out, err = run_cli(["validate", *argv, "--result", str(result)])
        assert code == EXIT_OK, err
        assert "td: ok (bags=3, width=2, independence=2)" in out and "result: ok" in out

    def test_validate_catches_bad_witness(self, tmp_path, t1_file):
        payload = {
            "optimum": 3,
            "profile": [3, 3],
            "witness": [[1], [2]],
            "method": "brute",
            "stats": {"elapsed-ms": 0, "dp-cells": 0, "profiles-stored": 0},
        }
        result_path = tmp_path / "bad.json"
        result_path.write_text(json.dumps(payload))
        code, _, err = run_cli(["validate", t1_file, "--result", str(result_path)])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "payload, message",
        [
            # the witness {1} | {2} has profile (3, 2) on t1, so satisfaction 2
            (
                {"witness": [[1], [2]], "profile": [3, 2], "optimum": 3},
                "result optimum does not match witness satisfaction",
            ),
            ({"profile": [3, 2], "optimum": 2}, "result file has no witness to validate"),
        ],
        ids=["optimum", "no-witness"],
    )
    def test_inconsistent_result_exit_1(self, tmp_path, t1_file, payload, message):
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps(payload))
        code, out, err = run_cli(["validate", t1_file, "--result", str(result_path)])
        assert (code, out) == (EXIT_INFEASIBLE, "instance: ok (n=2, m=0, k=2)\n")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ({"witness": 5}, "witness must be a list of classes, got int"),
            ([1, 2], "expected a JSON object, got list"),
            ({"witness": [["a"], []]}, "witness class 1 must be a list of vertex ids"),
            # the witness {2} | {1} has profile (2, 1) and optimum 1 on t1, which
            # true and 1.0 equal in Python
            (
                {"witness": [[2], [1]], "profile": [2, 1], "optimum": True},
                "optimum must be an integer, got bool",
            ),
            (
                {"witness": [[2], [1]], "profile": [2.0, 1], "optimum": 1},
                "profile must be a list of integers",
            ),
            (
                {"witness": [[2], [1]], "profile": [2, True], "optimum": 1},
                "profile must be a list of integers",
            ),
            ("optimum: 2\n", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=[
            "witness-int", "top-level-list", "vertex-string", "optimum-bool", "profile-float",
            "profile-bool", "not-json",
        ],
    )
    def test_malformed_result_exit_1(self, tmp_path, t1_file, payload, problem):
        result_path = tmp_path / "malformed.json"
        # a str payload is the file's text as it is
        result_path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, _, err = run_cli(["validate", t1_file, "--result", str(result_path)])
        assert code == EXIT_INFEASIBLE
        assert err == f"error: malformed result file: {problem}\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["recognize", "gen"])
    def test_missing_directory_exit_1(self, tmp_path, command):
        path = tmp_path / "p3.fkd"
        path.write_text(P3_TEXT)
        target = tmp_path / "missing" / "x"
        if command == "recognize":
            argv = ["recognize", str(path), "--output", str(target)]
        else:
            argv = ["gen", "ktree", "--n", "5", "--width", "2", "--seed", "0", "--out", str(target)]
        code, out, err = run_cli(argv)
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


class TestApprox:
    def test_json_fields(self, tmp_path):
        run_cli([
            "gen", "convex", "--na", "3", "--nb", "3", "--k", "2",
            "--max-profit", "6", "--seed", "4", "--out", str(tmp_path / "x"),
        ])
        code, out2, _ = run_cli([
            "solve", str(tmp_path / "x.fkd"), "--method", "brute", "--json",
        ])
        optimum = json.loads(out2)["optimum"]
        # the certified bound: no coloring beats it, and brute force agrees
        assert optimum <= satisfaction_upper_bound(parse_instance((tmp_path / "x.fkd").read_text()))
        # a bare approx resolves auto like solve does, and names what it ran
        for flags, method in (([], "convex"), (["--method", "auto"], "convex"),
                              (["--method", "brute"], "brute"), (["--method", "convex"], "convex")):
            code, out, err = run_cli([
                "approx", str(tmp_path / "x.fkd"), *flags, "--epsilon", "1/4", "--json",
            ])
            assert code == EXIT_OK, (flags, err)
            payload = json.loads(out)
            assert payload["method"] == f"approx-{method}"
            assert payload["epsilon"] == "1/4"
            assert payload["guarantee"] == "3/4"
            assert payload["solver-calls"] >= 1
            assert payload["solver-calls"] <= payload["upper-bound"].bit_length() + 1
            assert payload["optimum"] <= optimum <= payload["upper-bound"]
            assert payload["optimum"] >= 0.75 * optimum
            result_path = tmp_path / f"approx-{method}.json"
            result_path.write_text(out)
            code, _, err = run_cli([
                "validate", str(tmp_path / "x.fkd"), "--result", str(result_path),
            ])
            assert code == EXIT_OK, (flags, err)

    def test_zero_optimum_makes_no_call(self, tmp_path):
        # the second agent values nothing, so the optimum is 0
        inst = ConflictInstance.build(
            8, 2, [(0, 4), (1, 5), (2, 6), (3, 7)], [[900, 800, 700, 600, 500, 400, 300, 200], [0] * 8]
        )
        path = tmp_path / "z.fkd"
        path.write_text(serialize_instance(inst))
        code, out, err = run_cli(["approx", str(path), "--epsilon", "1/4", "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert (payload["optimum"], payload["solver-calls"], payload["upper-bound"]) == (0, 0, 0)
        result_path = tmp_path / "z.json"
        result_path.write_text(out)
        code, _, err = run_cli(["validate", str(path), "--result", str(result_path)])
        assert code == EXIT_OK, err

    def test_bad_epsilon_exit_2(self, t1_file):
        code, _, _ = run_cli([
            "approx", t1_file, "--method", "convex", "--epsilon", "fast",
        ])
        assert code == EXIT_USAGE

    def test_out_of_range_epsilon_exit_2(self, t1_file):
        for eps in ("2", "1", "0"):
            code, _, err = run_cli(["approx", t1_file, "--epsilon", eps])
            assert code == EXIT_USAGE, (eps, err)
            assert "between 0 and 1" in err


class TestRecognizeOnce:
    def test_one_search_per_command(self, tmp_path, monkeypatch):
        run_cli([
            "gen", "convex", "--na", "4", "--nb", "4", "--k", "2",
            "--max-profit", "9", "--seed", "2", "--out", str(tmp_path / "g"),
        ])
        calls = []
        search = fairkdiv.recognition.find_convex_ordering

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        # the CLI searches through recognition, a solver through convex
        monkeypatch.setattr(fairkdiv.recognition, "find_convex_ordering", counted)
        monkeypatch.setattr(fairkdiv.convex, "find_convex_ordering", counted)
        instance = str(tmp_path / "g.fkd")
        for argv in (
            ["solve", instance],
            ["profiles", instance],
            ["approx", instance, "--method", "convex", "--epsilon", "1/4"],
        ):
            calls.clear()
            code, _, err = run_cli(argv)
            assert code == EXIT_OK, err
            assert len(calls) == 1, argv


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "convex", "--na", "3", "--nb", "3", "--k", "0", "--seed", "1"], "agent count"),
            (["gen", "convex", "--na", "-1", "--nb", "3", "--seed", "1"], "side sizes"),
            (["gen", "ktree", "--n", "5", "--width", "7", "--seed", "1"], "width"),
            (["gen", "ktree", "--n", "5", "--width", "2", "--delete-prob", "2", "--seed", "1"],
             "delete_prob"),
            (["gen", "convex", "--na", "3", "--nb", "3", "--max-profit", "-5", "--seed", "1"],
             "max_profit"),
            (["gen", "ktree", "--n", "5", "--width", "2", "--max-profit", "-5", "--seed", "1"],
             "max_profit"),
        ],
        ids=["k-0", "na-negative", "width-above-n", "delete-prob-2",
             "convex-max-profit-negative", "ktree-max-profit-negative"],
    )
    def test_gen_out_of_range_exit_2(self, argv, message):
        code, out, err = run_cli(argv)
        assert code == EXIT_USAGE, err
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--profile-cap", "--oracle-cap"])
    def test_negative_cap_exit_2(self, t1_file, flag):
        code, _, err = run_cli(["solve", "--method", "brute", t1_file, flag, "-1"])
        assert code == EXIT_USAGE
        assert flag in err and "at least 0" in err

    @pytest.mark.parametrize("command", ["profiles", "recognize", "validate"])
    def test_json_exit_2_where_not_emitted(self, t1_file, command):
        """Only solve and approx write JSON; elsewhere --json is a usage error, not ignored."""
        code, out, err = run_cli([command, t1_file, "--json"])
        assert code == EXIT_USAGE
        assert "--json" in err and out == ""


class TestGen:
    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "gen", "convex", "--na", "6", "--nb", "8", "--k", "2",
            "--max-profit", "9", "--seed", "7",
        ]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_gen_writes_files(self, tmp_path):
        code, _, _ = run_cli([
            "gen", "ktree", "--n", "5", "--width", "2", "--k", "1",
            "--max-profit", "3", "--seed", "0", "--out", str(tmp_path / "w"),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "w.fkd").exists() and (tmp_path / "w.td").exists()


class TestOrderingFileFormat:
    def test_roundtrip(self, tmp_path):
        from fairkdiv.generators import gen_convex_bipartite

        inst, ordering = gen_convex_bipartite(4, 3, 1, 3, seed=6)
        text = ordering_file_text(ordering)
        again = parse_ordering_file(text, inst)
        assert again.a_order == ordering.a_order
        assert again.b_vertices == ordering.b_vertices

    def test_recognize_output_flag(self, tmp_path):
        run_cli([
            "gen", "convex", "--na", "3", "--nb", "2", "--k", "1",
            "--max-profit", "2", "--seed", "8", "--out", str(tmp_path / "o"),
        ])
        out_path = tmp_path / "found.ordering"
        code, _, _ = run_cli([
            "recognize", str(tmp_path / "o.fkd"), "--output", str(out_path),
        ])
        assert code == EXIT_OK
        inst = parse_instance((tmp_path / "o.fkd").read_text())
        parse_ordering_file(out_path.read_text(), inst)

    def test_bad_ordering_exit_1(self, tmp_path):
        # C4 with a non-interval A-order: b adjacent to a1 and a3 but not a2
        path = tmp_path / "bad.fkd"
        path.write_text("p fkd 4 2 1\nw 1 1 1 1 1\ne 1 4\ne 3 4\n")
        order = tmp_path / "bad.ordering"
        order.write_text("A: 1 2 3\nB: 4\n")
        code, _, err = run_cli([
            "solve", "--method", "convex", str(path), "--ordering", str(order),
        ])
        assert code == EXIT_INFEASIBLE
        assert "not an interval" in err
        # a malformed id names its line, comments counted, as the .fkd and
        # .td parsers do
        order.write_text("c note\nA: 1 2 3\nB: 4x\n")
        code, _, err = run_cli([
            "solve", "--method", "convex", str(path), "--ordering", str(order),
        ])
        assert code == EXIT_INFEASIBLE
        assert err == "error: line 3: expected integers, got 4x\n"
        # ids outside 1..n, repeated ids and repeated side lines name the
        # vertex or the line, on the path 1-2-3 whose A = {1, 3}, B = {2}
        p3 = tmp_path / "p3.fkd"
        p3.write_text(P3_TEXT)
        for text, message in [
            ("A: 1 3 0\nB: 2\n", "vertex 0 out of range 1..3"),
            ("A: 1 3 7\nB: 2\n", "vertex 7 out of range 1..3"),
            ("A: 1 3\nB: 2 -1\n", "vertex -1 out of range 1..3"),
            ("A: 1 3\nB: 2 2\n", "B side repeats vertex 2"),
            ("A: 1 3 1\nB: 2\n", "A-order repeats vertex 1"),
            ("A: 1 3\nB: 2\nA: 3 1\n", "line 3: second 'A:' line"),
            ("B: 2\nc note\nA: 1 3\nB: 2\n", "line 4: second 'B:' line"),
        ]:
            order.write_text(text)
            for command in ("solve", "validate"):
                code, _, err = run_cli([command, str(p3), "--ordering", str(order)])
                assert (code, err) == (EXIT_INFEASIBLE, f"error: {message}\n"), text


def path_text(n):
    """The path 1-2-...-n with one agent and unit profits."""
    lines = [f"p fkd {n} {n - 1} 1", "w 1 " + " ".join(["1"] * n)]
    lines += [f"e {v} {v + 1}" for v in range(1, n)]
    return "\n".join(lines) + "\n"


class TestDeepInputs:
    """Decompositions and expressions far deeper than the recursion limit."""

    def solve_and_validate(self, tmp_path, n, argv):
        instance = tmp_path / "path.fkd"
        instance.write_text(path_text(n))
        code, out, err = run_cli(["solve", str(instance), "--json", *argv])
        assert code == EXIT_OK, err
        assert json.loads(out)["optimum"] == n // 2
        result = tmp_path / "result.json"
        result.write_text(out)
        code, out, err = run_cli(["validate", str(instance), "--result", str(result)])
        assert code == EXIT_OK, err
        assert "result: ok" in out

    def test_tin_on_path_of_5000_vertices(self, tmp_path):
        n = 5000
        lines = [f"s td {n - 1} 2 {n}"]
        lines += [f"b {i} {i} {i + 1}" for i in range(1, n)]
        lines += [f"{i} {i + 1}" for i in range(1, n - 1)]
        td = tmp_path / "path.td"
        td.write_text("\n".join(lines) + "\n")
        self.solve_and_validate(tmp_path, n, ["--method", "tin", "--td", str(td)])

    def test_tin_trims_redundant_bags_of_path_of_20000_vertices(self, tmp_path):
        # bag i holds i, i+1, i+2: width 2 where 1 would do
        n = 20000
        lines = [f"s td {n - 2} 3 {n}"]
        lines += [f"b {i} {i} {i + 1} {i + 2}" for i in range(1, n - 1)]
        lines += [f"{i} {i + 1}" for i in range(1, n - 2)]
        td = tmp_path / "path.td"
        td.write_text("\n".join(lines) + "\n")
        self.solve_and_validate(tmp_path, n, ["--method", "tin", "--td", str(td)])
        decomposition = fairkdiv.treeindep.parse_tree_decomposition(td.read_text())
        inst = parse_instance(path_text(n))
        trimmed = fairkdiv.treeindep.trim_td(inst, decomposition)
        assert all(trimmed.bags[b] <= bag for b, bag in decomposition.bags.items())

    def test_chordal_on_path_of_10000_vertices(self, tmp_path):
        self.solve_and_validate(tmp_path, 10000, ["--method", "tin", "--chordal"])

    def test_cw_on_linear_expression_of_2000_vertices(self, tmp_path):
        # the end of the path so far carries label 2, dead vertices label 3
        node = "(v 2 1)"
        for v in range(2, 2001):
            node = f"(rho 1 2 (rho 2 3 (eta 1 2 (u {node} (v 1 {v})))))"
        expression = tmp_path / "path.cw"
        expression.write_text("cw 3\n" + node + "\n")
        self.solve_and_validate(
            tmp_path, 2000, ["--method", "cw", "--expression", str(expression)]
        )


class TestThreadsFlag:
    def test_accepted_and_validated(self, t1_file):
        code, out, _ = run_cli([
            "solve", "--method", "brute", t1_file, "--threads", "4", "--json",
        ])
        assert code == EXIT_OK
        code, _, err = run_cli([
            "solve", "--method", "brute", t1_file, "--threads", "0",
        ])
        assert code == EXIT_USAGE


class TestInvariants:
    def test_json_schema_property(self):
        properties.prop_cli_json_schema(60)

    def test_determinism_property(self):
        properties.prop_cli_determinism(40)

import contextlib
import io
import json

import pytest

import properties
import support

import fairkdiv.cli
import fairkdiv.convex
from fairkdiv.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    ordering_file_text,
    parse_ordering_file,
)
from fairkdiv.model import parse_instance

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
            assert payload["optimum"] >= 0.75 * optimum
            result_path = tmp_path / f"approx-{method}.json"
            result_path.write_text(out)
            code, _, err = run_cli([
                "validate", str(tmp_path / "x.fkd"), "--result", str(result_path),
            ])
            assert code == EXIT_OK, (flags, err)

    def test_bad_epsilon_exit_2(self, t1_file):
        code, _, _ = run_cli([
            "approx", t1_file, "--method", "convex", "--epsilon", "fast",
        ])
        assert code == EXIT_USAGE


class TestRecognizeOnce:
    def test_one_search_per_command(self, tmp_path, monkeypatch):
        run_cli([
            "gen", "convex", "--na", "4", "--nb", "4", "--k", "2",
            "--max-profit", "9", "--seed", "2", "--out", str(tmp_path / "g"),
        ])
        calls = []
        search = fairkdiv.convex.find_convex_ordering

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(fairkdiv.cli, "find_convex_ordering", counted)
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

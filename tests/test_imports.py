"""Import footprint: each command loads only the modules it runs.

Without cached bytecode every import compiles its module, so start-up time
is paid per module loaded.  Each check runs a fresh interpreter (with -S,
so no site hook loads anything first) and reads `sys.modules` afterwards.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairkdiv

SRC = Path(fairkdiv.__file__).resolve().parent.parent

# runs one CLI command, then prints the exit code and the watched modules;
# dataclasses and inspect are watched so that no command ever loads them
CHILD = """
import sys
from fairkdiv.cli import main
code = main(sys.argv[1:])
watched = ("dataclasses", "fractions", "inspect", "json")
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "fairkdiv" or m in watched))
"""

P3_TEXT = "p fkd 3 2 2\nw 1 2 5 3\nw 2 4 1 2\ne 1 2\ne 2 3\n"
P3_TD = "s td 1 3 3\nb 1 1 2 3\n"
P3_CW = "cw 2\n(eta 1 2 (u (u (v 1 1) (v 1 3)) (v 2 2)))\n"

BASE = {"fairkdiv", "fairkdiv.cli", "fairkdiv.model"}


def run_child(args: list[str], cwd: Path) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", *args], cwd=cwd, env=env,
        capture_output=True, text=True, check=True,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.fixture
def p3(tmp_path):
    (tmp_path / "p3.fkd").write_text(P3_TEXT)
    (tmp_path / "p3.td").write_text(P3_TD)
    (tmp_path / "p3.cw").write_text(P3_CW)
    (tmp_path / "bad.cw").write_text("garbage\n")
    return tmp_path


def test_import_package_loads_no_submodule(tmp_path):
    _, modules = run_child([
        "import sys, fairkdiv; print(0, *sorted(m for m in sys.modules if m.startswith('fairkdiv')))"
    ], tmp_path)
    assert modules == {"fairkdiv"}


SUBMODULES = (
    "approx", "bitgrid", "chordal", "cli", "cliquewidth", "commands", "convex", "generators",
    "model", "oracle", "profiles", "recognition", "treeindep",
)


def test_no_submodule_loads_dataclasses_or_inspect(tmp_path):
    # each record is a plain class: the stdlib decorator would load inspect
    _, modules = run_child([
        "import sys\n"
        + "".join(f"import fairkdiv.{name}\n" for name in SUBMODULES)
        + "print(0, *sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    ], tmp_path)
    assert modules == set()
    assert set(SUBMODULES) == {p.stem for p in (SRC / "fairkdiv").glob("*.py")} - {"__init__"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        # a pruned run compiles no grid code, and solve none of the other commands;
        # a tin solve from a .td file compiles no clique-tree code
        (["solve", "p3.fkd", "--method", "tin", "--td", "p3.td"],
         {"fairkdiv.profiles", "fairkdiv.treeindep"}),
        (["solve", "p3.fkd", "--method", "tin", "--chordal"],
         {"fairkdiv.profiles", "fairkdiv.treeindep", "fairkdiv.chordal"}),
        (["solve", "p3.fkd", "--method", "tin", "--td", "p3.td", "--json"],
         {"fairkdiv.profiles", "fairkdiv.treeindep", "json"}),
        # an explicit method reads no other method's side input
        (["solve", "p3.fkd", "--method", "tin", "--td", "p3.td", "--expression", "bad.cw"],
         {"fairkdiv.profiles", "fairkdiv.treeindep"}),
        # an unpruned run on a small grid holds its tables as grid bits
        (["profiles", "p3.fkd", "--method", "cw", "--expression", "p3.cw"],
         {"fairkdiv.profiles", "fairkdiv.cliquewidth", "fairkdiv.bitgrid"}),
        # recognition compiles neither the profile code nor the stage DP
        (["recognize", "p3.fkd"], {"fairkdiv.recognition", "fairkdiv.commands"}),
        (["validate", "p3.fkd", "--td", "p3.td"],
         {"fairkdiv.profiles", "fairkdiv.treeindep", "fairkdiv.commands"}),
        (["gen", "ktree", "--n", "6", "--width", "2", "--seed", "1"],
         {"fairkdiv.profiles", "fairkdiv.treeindep", "fairkdiv.generators", "fairkdiv.commands"}),
        (["solve", "p3.fkd", "--method", "brute"], {"fairkdiv.profiles", "fairkdiv.oracle"}),
        (["approx", "p3.fkd", "--method", "convex", "--epsilon", "1/4"],
         {"fairkdiv.profiles", "fairkdiv.convex", "fairkdiv.recognition", "fairkdiv.approx",
          "fairkdiv.commands", "fractions"}),
    ],
    ids=["tin-solve", "tin-chordal", "tin-solve-json", "tin-solve-unused-expression", "cw-profiles", "recognize",
         "validate-td", "gen-ktree", "brute-solve", "approx-convex"],
)
def test_command_loads_only_what_it_runs(p3, argv, loaded):
    # exact sets: a tin solve, say, loads no convex, cliquewidth, approx,
    # generators, oracle, bitgrid, commands or fractions
    code, modules = run_child([CHILD, *argv], p3)
    assert code == 0
    assert modules == BASE | loaded


class TestLazyExports:
    def test_names_are_their_modules_objects(self):
        for name in fairkdiv.__all__:
            value = getattr(fairkdiv, name)
            assert value.__module__.startswith("fairkdiv."), name
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_dir_lists_every_export(self):
        assert set(fairkdiv.__all__) <= set(dir(fairkdiv))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fairkdiv.no_such_name
        with pytest.raises(ImportError):
            from fairkdiv import no_such_name  # noqa: F401

    def test_readme_example(self):
        from fairkdiv import find_convex_ordering, parse_instance, solve_convex

        inst = parse_instance(P3_TEXT)
        optimum, profile, witness = solve_convex(inst, find_convex_ordering(inst))
        assert optimum == min(profile)
        assert len(witness) == inst.k

    def test_submodules_still_import_from_the_package(self):
        from fairkdiv import convex, treeindep

        assert convex.solve_convex is fairkdiv.solve_convex
        assert treeindep.solve_tin is fairkdiv.solve_tin

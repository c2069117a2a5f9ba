"""The process entry: `python -m fairkdiv.cli` and the `fairkdiv` script run cli.entry.

A child process must print exactly what an in-process main() prints and
exit with its code; entry freezes the collector's objects at exit, and
main never does.
"""
import ast
import contextlib
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fairkdiv
from fairkdiv.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main

SRC = Path(fairkdiv.__file__).resolve().parent.parent
ROOT = SRC.parent

P3_TEXT = "p fkd 3 2 2\nw 1 2 5 3\nw 2 4 1 2\ne 1 2\ne 2 3\n"
P3_TD = "s td 1 3 3\nb 1 1 2 3\n"
# a triangle is not bipartite, so no convex ordering exists
K3_TEXT = "p fkd 3 3 2\nw 1 1 1 1\nw 2 1 1 1\ne 1 2\ne 1 3\ne 2 3\n"

TIN = ["p3.fkd", "--method", "tin", "--td", "p3.td"]
CASES = [
    (["solve", *TIN], EXIT_OK),
    (["solve", "k3.fkd", "--method", "convex"], EXIT_INFEASIBLE),
    (["solve", *TIN, "--no-such-flag"], EXIT_USAGE),
    (["solve", *TIN, "--profile-cap", "0"], EXIT_RESOURCE),
    # a CliError raised in the commands module, which must see the __main__ module's class
    (["approx", "p3.fkd", "--epsilon", "2"], EXIT_USAGE),
]


def mask(text: str) -> str:
    return re.sub(r"elapsed-ms=[0-9.]+", "elapsed-ms=X", text)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "p3.fkd").write_text(P3_TEXT)
    (tmp_path / "p3.td").write_text(P3_TD)
    (tmp_path / "k3.fkd").write_text(K3_TEXT)
    return tmp_path


def child(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


@pytest.mark.parametrize("argv, code", CASES, ids=["ok", "not-convex", "bad-flag", "cap", "commands"])
def test_child_matches_main(files, monkeypatch, argv, code):
    proc = child(["-m", "fairkdiv.cli", *argv], files)
    monkeypatch.chdir(files)
    out, err = io.StringIO(), io.StringIO()
    frozen = gc.get_freeze_count()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert gc.get_freeze_count() == frozen
    assert proc.returncode == code
    assert mask(proc.stdout.decode()) == mask(out.getvalue())
    assert proc.stderr.decode() == err.getvalue()
    assert bool(err.getvalue()) == bool(code)  # only a failure writes to stderr


def test_entry_freezes(files):
    proc = child([
        "-c", "import gc, sys\nfrom fairkdiv.cli import entry\n"
        f"code = entry({['solve', *TIN]!r})\nprint(code, gc.get_freeze_count() > 0, file=sys.stderr)",
    ], files)
    assert proc.stderr.decode() == "0 True\n"


def main_block_call() -> str:
    """The function that cli.py's `if __name__ == "__main__":` block passes to sys.exit."""
    tree = ast.parse((SRC / "fairkdiv" / "cli.py").read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (exit_call,) = [
        node for node in ast.walk(block)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.exit"
    ]
    (called,) = exit_call.args
    return called.func.id


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    name = main_block_call()
    assert name != "main"  # main does not freeze, so the process would pay for exit-time GC
    assert scripts["fairkdiv"] == f"fairkdiv.cli:{name}"

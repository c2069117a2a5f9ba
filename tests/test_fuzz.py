"""Seeded fuzz battery: mutated input files through the CLI, in process.

Small instances (n <= 8) with an ordering, a tree decomposition or a
k-expression are written out, one of their files is mutated, and the CLI
runs `solve`, `validate` or `profiles` on them.  Whatever the input, the CLI
must answer with an exit code of its own and a message of its own: never a
traceback and never a Python-internal error text.
"""
from __future__ import annotations

import contextlib
import io
import random

import support

from fairkdiv.cli import main
from fairkdiv.generators import gen_convex_bipartite, gen_partial_ktree
from fairkdiv.model import serialize_instance
from fairkdiv.recognition import ordering_file_text
from fairkdiv.treeindep import serialize_tree_decomposition

SEED = 2024
CASES = 900
COMMANDS = ("solve", "validate", "profiles")
INTERNAL_TEXTS = (
    "Traceback",
    "empty sequence",
    "invalid literal",
    "object is not",
    "index out of range",
    "unpack",
    "NoneType",
    "KeyError",
)


def small_case(rng: random.Random) -> tuple[str, str, int, str, str]:
    """(method, side flag, n, instance text, side text) of one small instance."""
    family = rng.choice(["convex", "tin", "cw"])
    k = rng.randint(1, 2)
    if family == "convex":
        inst, ordering = gen_convex_bipartite(
            rng.randint(1, 4), rng.randint(1, 4), k, 5, rng.randrange(10**6)
        )
        return "convex", "--ordering", inst.n, serialize_instance(inst), ordering_file_text(ordering)
    if family == "tin":
        n = rng.randint(1, 8)
        inst, td = gen_partial_ktree(n, rng.randint(0, min(2, n - 1)), k, 5, rng.randrange(10**6))
        return "tin", "--td", n, serialize_instance(inst), serialize_tree_decomposition(td)
    expr = support.random_expression(rng, 8, rng.randint(1, 3))
    inst = support.instance_for_expression(expr, rng, k, 5)
    return "cw", "--expression", inst.n, serialize_instance(inst), support.expression_text(expr)


def run_case(tmp_path, rng: random.Random, case: int) -> str | None:
    """Run one mutated case; a description of the failure, or None."""
    method, flag, n, inst_text, side_text = small_case(rng)
    mutate_side = rng.random() < 0.5
    for _ in range(rng.randint(1, 2)):
        if mutate_side:
            side_text = support.mutate_text(rng, side_text, n)
        else:
            inst_text = support.mutate_text(rng, inst_text, n)
    inst_path, side_path = tmp_path / f"{case}.fkd", tmp_path / f"{case}.side"
    inst_path.write_text(inst_text, encoding="utf-8", newline="")
    side_path.write_text(side_text, encoding="utf-8", newline="")
    command = COMMANDS[case % len(COMMANDS)]
    argv = [command, str(inst_path), flag, str(side_path)]
    if command != "validate":
        argv += ["--method", method]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # any escape from main is a finding
        return f"{argv}: raised {type(exc).__name__}: {exc}"
    if code not in (0, 1, 2, 3):
        return f"{argv}: exit {code}"
    leaked = [t for t in INTERNAL_TEXTS if t in err.getvalue() or t in out.getvalue()]
    if leaked:
        return f"{argv}: {leaked} in {err.getvalue()!r}"
    return None


def test_mutated_inputs_exit_cleanly(tmp_path):
    rng = random.Random(SEED)
    failures = [f for case in range(CASES) if (f := run_case(tmp_path, rng, case))]
    assert not failures, f"{len(failures)} of {CASES} cases:\n" + "\n".join(failures[:20])

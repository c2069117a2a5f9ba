"""Command-line front end.

Subcommands: solve, profiles, recognize, validate, approx, gen.  Exit codes:
0 success, 1 infeasible input (recognition failure, invalid decomposition,
bad instance), 2 usage error, 3 resource cap exceeded.  This module runs
solve and profiles; the other four are in commands, compiled only when one
runs.  A process enters through entry (see there).
"""
from __future__ import annotations

import argparse
import gc
import sys
import time
from typing import Callable, NamedTuple

from .model import CapError, ConflictInstance, SolveResult, parse_instance

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_NOT_CONVEX = "recognition failed: no A-order gives consecutive B-neighborhoods"


def _module(name: str):
    """The package module `name`, imported on first use.

    Loading the CLI imports no solver: each command imports only the modules
    it runs, because without cached bytecode every import compiles a file.
    The import statement (not importlib) keeps `-X importtime` reporting it.
    """
    qualified = f"{__package__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name: str):
    # the ordering-file helpers live in recognition, imported when first read
    if name in ("parse_ordering_file", "ordering_file_text"):
        return getattr(_module("recognition"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_INFEASIBLE)


def _load_instance(path: str) -> ConflictInstance:
    return parse_instance(_read(path))


class Method(NamedTuple):
    """One row of the method table shared by solve, profiles and approx."""

    module: str  # the package module that defines the two functions below
    side: str | None  # the side input the method reads
    missing: str | None  # usage error when that side input is absent
    cap: str  # the --*-cap option that bounds the method
    profile_set: str  # (inst, side, cap=) -> the full, unpruned ProfileSet
    solve: str  # (inst, side, cap=, stats=) -> (optimum, profile, witness)

    def function(self, kind: str) -> Callable:
        """The row's `profile_set` or `solve` function, looked up in its module now."""
        return getattr(_module(self.module), getattr(self, kind))


METHODS = {
    "brute": Method("oracle", None, None, "oracle_cap", "brute_profile_set", "solve_brute"),
    # a missing ordering is recognized, never a usage error
    "convex": Method(
        "convex", "ordering", None, "profile_cap", "convex_profile_set", "solve_convex"
    ),
    "cw": Method(
        "cliquewidth", "expression", "--method cw needs --expression FILE",
        "profile_cap", "cliquewidth_profile_set", "solve_cliquewidth",
    ),
    "tin": Method(
        "treeindep", "td", "--method tin needs --td FILE or --chordal",
        "profile_cap", "tin_profile_set", "solve_tin",
    ),
}


def resolve_method(args, inst: ConflictInstance) -> tuple[str, Method, object]:
    """The method a command runs, its table row, and the side input it reads.

    Side-input files are parsed here: all of them for `auto`, and only the
    method's own for an explicit `--method` (`--chordal` is tin's).  Convex
    recognition runs at most once per command: `auto` keeps the ordering its
    convexity test finds, and `--method convex` without `--ordering` searches
    for one here.
    """
    method = args.method
    reads = {"ordering", "expression", "td"} if method == "auto" else {METHODS[method].side}
    side: dict[str, object] = dict.fromkeys(("ordering", "expression", "td"))
    if args.ordering and "ordering" in reads:
        side["ordering"] = _module("recognition").parse_ordering_file(_read(args.ordering), inst)
    if args.expression and "expression" in reads:
        side["expression"] = _module("cliquewidth").parse_k_expression(_read(args.expression))
    if args.td and "td" in reads:
        side["td"] = _module("treeindep").parse_tree_decomposition(_read(args.td))
    if args.chordal and "td" in reads:
        side["td"] = _module("chordal").clique_tree_of_chordal(inst)
        if side["td"] is None:
            raise CliError("instance graph is not chordal", EXIT_INFEASIBLE)
    if method in ("auto", "convex") and side["ordering"] is None:
        recognition = _module("recognition")
        try:
            side["ordering"] = recognition.find_convex_ordering(inst)
        except recognition.OrderingError:
            if method == "convex":
                raise
        if method == "convex" and side["ordering"] is None:
            raise CliError(_NOT_CONVEX, EXIT_INFEASIBLE)
    if method == "auto":
        supplied = [m for m in ("convex", "tin", "cw") if side[METHODS[m].side] is not None]
        if supplied:
            method = supplied[0]
        elif (inst.k + 1) ** inst.n <= (
            _module("oracle").DEFAULT_ENUMERATION_CAP if args.oracle_cap is None else args.oracle_cap
        ):
            method = "brute"
        else:
            raise CliError("no applicable method: supply --td or --expression", EXIT_INFEASIBLE)
    row = METHODS[method]
    if row.side is not None and side[row.side] is None:
        raise CliError(row.missing, EXIT_USAGE)
    return method, row, side[row.side] if row.side else None


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    method, row, side = resolve_method(args, inst)
    solve = row.function("solve")  # imported before the clock starts
    stats: dict = {}
    start = time.perf_counter()
    optimum, profile, witness = solve(inst, side, cap=getattr(args, row.cap), stats=stats)
    stats["elapsed-ms"] = (time.perf_counter() - start) * 1000.0
    if args.json:
        import json

        result = SolveResult(optimum, profile, method, witness, stats)
        print(json.dumps(result.to_json_dict(), sort_keys=True))
        return EXIT_OK
    print(f"optimum: {optimum}")
    print("profile: " + " ".join(str(x) for x in profile))
    for j, cls in enumerate(witness):
        print(f"witness {j + 1}: " + " ".join(str(v + 1) for v in sorted(cls)))
    print(f"method: {method}")
    cells, stored = stats.get("dp-cells", 0), stats.get("profiles-stored", 0)
    print(f"stats: elapsed-ms={stats['elapsed-ms']:.3f} dp-cells={cells} profiles-stored={stored}")
    return EXIT_OK


def cmd_profiles(args) -> int:
    inst = _load_instance(args.instance)
    _, row, side = resolve_method(args, inst)
    text = row.function("profile_set")(inst, side, cap=getattr(args, row.cap)).dump()
    if text:
        print(text)
    return EXIT_OK


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkdiv",
        description="Fair k-division under conflicts: exact and approximate solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("instance", help="instance file (.fkd)")
        p.add_argument(
            "--method", choices=["auto", "brute", "convex", "cw", "tin"], default="auto"
        )
        p.add_argument("--ordering", help="convex ordering file")
        p.add_argument("--expression", help="clique-width expression file")
        p.add_argument("--td", help="tree decomposition file (.td)")
        p.add_argument("--chordal", action="store_true", help="build a clique tree for --method tin")
        p.add_argument(
            "--threads", type=_int_at_least(1), default=1,
            help="accepted and ignored: runs are sequential",
        )
        p.add_argument(
            "--profile-cap", type=_int_at_least(0), default=None, help="max profiles per set"
        )
        p.add_argument(
            "--oracle-cap", type=_int_at_least(0), default=None, help="max brute-force assignments"
        )

    p_solve = sub.add_parser("solve", help="compute the optimum and a witness")
    common(p_solve)
    p_solve.add_argument("--json", action="store_true", help="JSON output")

    p_prof = sub.add_parser("profiles", help="dump the full profile set")
    common(p_prof)

    p_rec = sub.add_parser("recognize", help="find a convex bipartite ordering")
    p_rec.add_argument("instance")
    p_rec.add_argument("--output", help="write the ordering file here")

    p_val = sub.add_parser("validate", help="validate an instance and side inputs")
    p_val.add_argument("instance")
    p_val.add_argument("--ordering")
    p_val.add_argument("--td")
    p_val.add_argument("--expression")
    p_val.add_argument("--result", help="JSON result file whose witness to check")

    p_apx = sub.add_parser("approx", help="(1-epsilon)-approximate the optimum")
    common(p_apx)
    p_apx.add_argument("--json", action="store_true", help="JSON output")
    p_apx.add_argument("--epsilon", required=True, help="rational in (0,1), e.g. 0.25 or 1/4")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_convex = gen_sub.add_parser("convex")
    g_convex.add_argument("--na", type=int, required=True)
    g_convex.add_argument("--nb", type=int, required=True)
    g_convex.add_argument("--k", type=int, default=2)
    g_convex.add_argument("--max-profit", type=int, default=10)
    g_convex.add_argument("--seed", type=int, required=True)
    g_convex.add_argument("--out", help="output path prefix")
    g_ktree = gen_sub.add_parser("ktree")
    g_ktree.add_argument("--n", type=int, required=True)
    g_ktree.add_argument("--width", type=int, required=True)
    g_ktree.add_argument("--k", type=int, default=2)
    g_ktree.add_argument("--max-profit", type=int, default=10)
    g_ktree.add_argument("--seed", type=int, required=True)
    g_ktree.add_argument("--delete-prob", type=float, default=0.3)
    g_ktree.add_argument("--out", help="output path prefix")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # solve and profiles run here; the other commands are defined in .commands
        handler = {"solve": cmd_solve, "profiles": cmd_profiles}.get(args.command)
        return (handler or getattr(_module("commands"), f"cmd_{args.command}"))(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CapError, MemoryError) as exc:  # never a bare RuntimeError: RecursionError is one
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # every input error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry(argv: list[str] | None = None) -> int:
    """main, then gc.freeze(): the entry of `python -m fairkdiv.cli` and the `fairkdiv` script.

    Frozen objects are skipped by the collections the interpreter runs at
    exit.  main never freezes: tests and benchmarks call it many times.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    # `python -m` runs this file as __main__; commands imports it by name
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(entry())

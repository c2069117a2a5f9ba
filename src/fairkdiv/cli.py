"""Command-line front end.

Subcommands: solve, profiles, recognize, validate, approx, gen.  Exit codes:
0 success, 1 infeasible input (recognition failure, invalid decomposition,
bad instance), 2 usage error, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from .model import (
    CapError,
    ConflictInstance,
    SolveResult,
    parse_instance,
    profile_of,
    satisfaction_level,
    serialize_instance,
    validate_coloring,
)

if TYPE_CHECKING:
    from .recognition import ConvexOrdering

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


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_INFEASIBLE)


def _load_instance(path: str) -> ConflictInstance:
    return parse_instance(_read(path))


def parse_ordering_file(text: str, inst: ConflictInstance) -> ConvexOrdering:
    """Ordering file: line `A: <ids...>` (in order) and line `B: <ids...>`."""
    recognition = _module("recognition")
    ids: dict[str, list[int]] = {}  # "A:" or "B:" -> 0-based ids
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        side = line[:2]
        if side not in ("A:", "B:"):
            raise recognition.OrderingError(f"line {lineno}: unexpected ordering line: {line!r}")
        if side in ids:
            raise recognition.OrderingError(f"line {lineno}: second '{side}' line")
        try:
            ids[side] = [int(x) - 1 for x in line[2:].split()]
        except ValueError:
            raise recognition.OrderingError(
                f"line {lineno}: expected integers, got {line[2:].strip()}"
            )
    if len(ids) != 2:
        raise recognition.OrderingError("ordering file needs one 'A:' and one 'B:' line")
    return recognition.validate_convex_ordering(inst, ids["A:"], ids["B:"])


def ordering_file_text(ordering: ConvexOrdering) -> str:
    a_line = "A: " + " ".join(str(a + 1) for a in ordering.a_order)
    b_line = "B: " + " ".join(str(b + 1) for b in ordering.b_vertices)
    return a_line + "\n" + b_line + "\n"


def _emit_result(result: SolveResult, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(result.to_json_dict(), sort_keys=True))
        return
    print(f"optimum: {result.optimum}")
    print("profile: " + " ".join(str(x) for x in result.profile))
    if result.witness is not None:
        for j, cls in enumerate(result.witness):
            print(f"witness {j + 1}: " + " ".join(str(v + 1) for v in sorted(cls)))
    print(f"method: {result.method}")
    stats = result.stats
    print(
        "stats: elapsed-ms={:.3f} dp-cells={} profiles-stored={}".format(
            stats.get("elapsed-ms", 0.0), stats.get("dp-cells", 0), stats.get("profiles-stored", 0)
        )
    )


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
        side["ordering"] = parse_ordering_file(_read(args.ordering), inst)
    if args.expression and "expression" in reads:
        side["expression"] = _module("cliquewidth").parse_k_expression(_read(args.expression))
    if args.td and "td" in reads:
        side["td"] = _module("treeindep").parse_tree_decomposition(_read(args.td))
    if args.chordal and "td" in reads:
        side["td"] = _module("treeindep").clique_tree_of_chordal(inst)
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
    result = SolveResult(
        optimum=optimum, profile=profile, witness=witness, method=method, stats=stats
    )
    _emit_result(result, args.json)
    return EXIT_OK


def cmd_profiles(args) -> int:
    inst = _load_instance(args.instance)
    _, row, side = resolve_method(args, inst)
    text = row.function("profile_set")(inst, side, cap=getattr(args, row.cap)).dump()
    if text:
        print(text)
    return EXIT_OK


def cmd_recognize(args) -> int:
    inst = _load_instance(args.instance)
    ordering = _module("recognition").find_convex_ordering(inst)
    if ordering is None:
        raise CliError(_NOT_CONVEX, EXIT_INFEASIBLE)
    text = ordering_file_text(ordering)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    print(f"instance: ok (n={inst.n}, m={len(inst.edges)}, k={inst.k})")
    if args.ordering:
        ordering = parse_ordering_file(_read(args.ordering), inst)
        print(f"ordering: ok (|A|={len(ordering.a_order)}, |B|={len(ordering.b_vertices)})")
    if args.td:
        treeindep = _module("treeindep")
        td = treeindep.parse_tree_decomposition(_read(args.td))
        width, ell = treeindep.validate_td(inst, td)
        print(f"td: ok (bags={len(td.bags)}, width={width}, independence={ell})")
    if args.expression:
        cliquewidth = _module("cliquewidth")
        expression = cliquewidth.parse_k_expression(_read(args.expression))
        mismatch = cliquewidth.check_expression_matches(expression, inst)
        if mismatch is not None:
            raise CliError(f"expression: {mismatch}", EXIT_INFEASIBLE)
        print(f"expression: ok (labels={expression.num_labels})")
    if args.result:
        classes, claimed, optimum = _parse_result(_read(args.result))
        validate_coloring(inst, classes)
        profile = profile_of(inst, classes)
        if list(profile) != claimed:
            raise CliError(
                f"result profile {claimed} does not match witness profile {list(profile)}",
                EXIT_INFEASIBLE,
            )
        if satisfaction_level(profile) != optimum:
            raise CliError("result optimum does not match witness satisfaction", EXIT_INFEASIBLE)
        print("result: ok (witness validates and matches profile)")
    return EXIT_OK


def _parse_result(text: str) -> tuple[list[frozenset[int]], list[int], int]:
    """The 0-based witness classes, the profile and the optimum of a result file."""
    import json

    def malformed(what: str) -> CliError:
        return CliError(f"malformed result file: {what}", EXIT_INFEASIBLE)

    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise malformed(f"not JSON: {exc}")
    if not isinstance(payload, dict):
        raise malformed(f"expected a JSON object, got {type(payload).__name__}")
    witness = payload.get("witness")
    if witness is None:
        raise CliError("result file has no witness to validate", EXIT_INFEASIBLE)
    if not isinstance(witness, list):
        raise malformed(f"witness must be a list of classes, got {type(witness).__name__}")
    classes = []
    for j, cls in enumerate(witness, start=1):
        # bool is an int subclass, but true is no vertex id
        if not isinstance(cls, list) or not all(type(v) is int for v in cls):
            raise malformed(f"witness class {j} must be a list of vertex ids")
        classes.append(frozenset(v - 1 for v in cls))
    # bool is an int subclass and 1.0 == 1, but neither is a profit
    profile, optimum = payload.get("profile"), payload.get("optimum")
    if not isinstance(profile, list) or not all(type(x) is int for x in profile):
        raise malformed("profile must be a list of integers")
    if type(optimum) is not int:
        raise malformed(f"optimum must be an integer, got {type(optimum).__name__}")
    return classes, profile, optimum


def cmd_approx(args) -> int:
    from fractions import Fraction

    inst = _load_instance(args.instance)
    try:
        eps = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse epsilon {args.epsilon!r}", EXIT_USAGE)
    if not 0 < eps < 1:
        raise CliError(f"epsilon must lie strictly between 0 and 1, got {eps}", EXIT_USAGE)
    method, row, side = resolve_method(args, inst)
    # both imported before the clock starts
    solve, fptas = row.function("solve"), _module("approx").fptas
    cap = getattr(args, row.cap)
    stats: dict = {}
    start = time.perf_counter()
    # a scaled instance has the same graph, so the side input carries over
    result = fptas(inst, eps, lambda scaled: solve(scaled, side, cap=cap, stats=stats))
    stats["elapsed-ms"] = (time.perf_counter() - start) * 1000.0
    if args.json:
        import json

        payload = SolveResult(
            optimum=result.value,
            profile=result.profile,
            witness=result.witness,
            method=f"approx-{method}",
            stats=stats,
        ).to_json_dict()
        payload["epsilon"] = str(result.epsilon)
        payload["guarantee"] = str(1 - result.epsilon)
        payload["solver-calls"] = result.solver_calls
        payload["upper-bound"] = result.upper_bound
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"value: {result.value} (>= {1 - result.epsilon} of optimum)")
        print("profile: " + " ".join(str(x) for x in result.profile))
        for j, cls in enumerate(result.witness):
            print(f"witness {j + 1}: " + " ".join(str(v + 1) for v in sorted(cls)))
        print(f"epsilon: {result.epsilon}")
        print(f"solver-calls: {result.solver_calls}")
    return EXIT_OK


def cmd_gen(args) -> int:
    generators = _module("generators")
    # a generator reads nothing but its arguments, so its errors are usage errors
    try:
        if args.family == "convex":
            inst, ordering = generators.gen_convex_bipartite(
                args.na, args.nb, args.k, args.max_profit, args.seed
            )
            side_name, side_text = ".ordering", ordering_file_text(ordering)
            comment = (
                f"gen convex --na {args.na} --nb {args.nb} --k {args.k} "
                f"--max-profit {args.max_profit} --seed {args.seed}"
            )
        else:
            inst, td = generators.gen_partial_ktree(
                args.n, args.width, args.k, args.max_profit, args.seed, args.delete_prob
            )
            side_name, side_text = ".td", _module("treeindep").serialize_tree_decomposition(td)
            comment = (
                f"gen ktree --n {args.n} --width {args.width} --k {args.k} "
                f"--max-profit {args.max_profit} --seed {args.seed} "
                f"--delete-prob {args.delete_prob}"
            )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    instance_text = serialize_instance(inst, comment=comment)
    if args.out:
        _write(args.out + ".fkd", instance_text)
        _write(args.out + side_name, side_text)
        print(f"wrote {args.out}.fkd and {args.out}{side_name}")
    else:
        print(instance_text, end="")
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
    p_solve.set_defaults(func=cmd_solve)

    p_prof = sub.add_parser("profiles", help="dump the full profile set")
    common(p_prof)
    p_prof.set_defaults(func=cmd_profiles)

    p_rec = sub.add_parser("recognize", help="find a convex bipartite ordering")
    p_rec.add_argument("instance")
    p_rec.add_argument("--output", help="write the ordering file here")
    p_rec.set_defaults(func=cmd_recognize)

    p_val = sub.add_parser("validate", help="validate an instance and side inputs")
    p_val.add_argument("instance")
    p_val.add_argument("--ordering")
    p_val.add_argument("--td")
    p_val.add_argument("--expression")
    p_val.add_argument("--result", help="JSON result file whose witness to check")
    p_val.set_defaults(func=cmd_validate)

    p_apx = sub.add_parser("approx", help="(1-epsilon)-approximate the optimum")
    common(p_apx)
    p_apx.add_argument("--json", action="store_true", help="JSON output")
    p_apx.add_argument("--epsilon", required=True, help="rational in (0,1), e.g. 0.25 or 1/4")
    p_apx.set_defaults(func=cmd_approx)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_convex = gen_sub.add_parser("convex")
    g_convex.add_argument("--na", type=int, required=True)
    g_convex.add_argument("--nb", type=int, required=True)
    g_convex.add_argument("--k", type=int, default=2)
    g_convex.add_argument("--max-profit", type=int, default=10)
    g_convex.add_argument("--seed", type=int, required=True)
    g_convex.add_argument("--out", help="output path prefix")
    g_convex.set_defaults(func=cmd_gen)
    g_ktree = gen_sub.add_parser("ktree")
    g_ktree.add_argument("--n", type=int, required=True)
    g_ktree.add_argument("--width", type=int, required=True)
    g_ktree.add_argument("--k", type=int, default=2)
    g_ktree.add_argument("--max-profit", type=int, default=10)
    g_ktree.add_argument("--seed", type=int, required=True)
    g_ktree.add_argument("--delete-prob", type=float, default=0.3)
    g_ktree.add_argument("--out", help="output path prefix")
    g_ktree.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (CapError, MemoryError) as exc:  # never a bare RuntimeError: RecursionError is one
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # every input error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: solve, profiles, recognize, validate, approx, gen.  Exit codes:
0 success, 1 infeasible input (recognition failure, invalid decomposition,
bad instance), 2 usage error, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .approx import fptas
from .cliquewidth import (
    ExpressionError,
    check_expression_matches,
    cliquewidth_profile_set,
    parse_k_expression,
    solve_cliquewidth,
)
from .convex import (
    ConvexOrdering,
    OrderingError,
    RecognitionCapError,
    convex_profile_set,
    find_convex_ordering,
    solve_convex,
    validate_convex_ordering,
)
from .generators import gen_convex_bipartite, gen_partial_ktree
from .model import (
    ConflictInstance,
    InstanceFormatError,
    InvalidColoringError,
    SolveResult,
    parse_instance,
    profile_of,
    satisfaction_level,
    serialize_instance,
    validate_coloring,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    brute_force_optimum,
    brute_force_profiles,
)
from .profiles import ProfileCapError
from .treeindep import (
    AlphaCapError,
    DecompositionError,
    clique_tree_of_chordal,
    parse_tree_decomposition,
    serialize_tree_decomposition,
    solve_tin,
    tin_profile_set,
    validate_td,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_INPUT_ERRORS = (
    InstanceFormatError,
    InvalidColoringError,
    OrderingError,
    ExpressionError,
    DecompositionError,
)
_RESOURCE_ERRORS = (ProfileCapError, EnumerationCapError, RecognitionCapError, AlphaCapError)
_NOT_CONVEX = "recognition failed: no A-order gives consecutive B-neighborhoods"


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


def parse_ordering_file(text: str, inst: ConflictInstance) -> ConvexOrdering:
    """Ordering file: line `A: <ids...>` (in order) and line `B: <ids...>`."""
    a_ids: list[int] | None = None
    b_ids: list[int] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("A:"):
            a_ids = [int(x) - 1 for x in line[2:].split()]
        elif line.startswith("B:"):
            b_ids = [int(x) - 1 for x in line[2:].split()]
        else:
            raise OrderingError(f"unexpected ordering line: {line!r}")
    if a_ids is None or b_ids is None:
        raise OrderingError("ordering file needs one 'A:' and one 'B:' line")
    return validate_convex_ordering(inst, a_ids, b_ids)


def ordering_file_text(ordering: ConvexOrdering) -> str:
    a_line = "A: " + " ".join(str(a + 1) for a in ordering.a_order)
    b_line = "B: " + " ".join(str(b + 1) for b in ordering.b_vertices)
    return a_line + "\n" + b_line + "\n"


def _emit_result(result: SolveResult, as_json: bool) -> None:
    if as_json:
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


def _brute_solve(inst: ConflictInstance, _side, cap=None, stats=None):
    # the profile is read off the oracle's witness, so the two always agree
    optimum, witness = brute_force_optimum(inst, cap=cap)
    return optimum, profile_of(inst, witness), witness


class Method(NamedTuple):
    """One row of the method table shared by solve, profiles and approx."""

    side: str | None  # the side input the method reads
    missing: str | None  # usage error when that side input is absent
    cap: str  # the --*-cap option that bounds the method
    profile_set: Callable  # (inst, side, cap=) -> the full, unpruned ProfileSet
    solve: Callable  # (inst, side, cap=, stats=) -> (optimum, profile, witness)


METHODS = {
    "brute": Method(
        None, None, "oracle_cap",
        lambda inst, _side, cap: brute_force_profiles(inst, cap=cap), _brute_solve,
    ),
    # a missing ordering is recognized, never a usage error
    "convex": Method("ordering", None, "profile_cap", convex_profile_set, solve_convex),
    "cw": Method(
        "expression", "--method cw needs --expression FILE",
        "profile_cap", cliquewidth_profile_set, solve_cliquewidth,
    ),
    "tin": Method(
        "td", "--method tin needs --td FILE or --chordal",
        "profile_cap", tin_profile_set, solve_tin,
    ),
}


def resolve_method(args, inst: ConflictInstance) -> tuple[str, Method, object]:
    """The method a command runs, its table row, and the side input it reads.

    Side-input files are parsed here.  Convex recognition runs at most once
    per command: `auto` keeps the ordering its convexity test finds, and
    `--method convex` without `--ordering` searches for one here.
    """
    side: dict[str, object] = {
        "ordering": parse_ordering_file(_read(args.ordering), inst) if args.ordering else None,
        "expression": parse_k_expression(_read(args.expression)) if args.expression else None,
        "td": parse_tree_decomposition(_read(args.td)) if args.td else None,
    }
    if args.chordal:
        side["td"] = clique_tree_of_chordal(inst)
        if side["td"] is None:
            raise CliError("instance graph is not chordal", EXIT_INFEASIBLE)
    method = args.method
    if method in ("auto", "convex") and side["ordering"] is None:
        try:
            side["ordering"] = find_convex_ordering(inst)
        except (OrderingError, RecognitionCapError):
            if method == "convex":
                raise
        if method == "convex" and side["ordering"] is None:
            raise CliError(_NOT_CONVEX, EXIT_INFEASIBLE)
    if method == "auto":
        supplied = [m for m in ("convex", "tin", "cw") if side[METHODS[m].side] is not None]
        limit = DEFAULT_ENUMERATION_CAP if args.oracle_cap is None else args.oracle_cap
        if supplied:
            method = supplied[0]
        elif (inst.k + 1) ** inst.n <= limit:
            method = "brute"
        else:
            raise CliError("no applicable method: supply --td or --expression", EXIT_INFEASIBLE)
    row = METHODS[method]
    if row.side is not None and side[row.side] is None:
        raise CliError(row.missing, EXIT_USAGE)
    return method, row, side[row.side] if row.side else None


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    stats: dict = {}
    start = time.perf_counter()
    method, row, side = resolve_method(args, inst)
    optimum, profile, witness = row.solve(inst, side, cap=getattr(args, row.cap), stats=stats)
    stats["elapsed-ms"] = (time.perf_counter() - start) * 1000.0
    result = SolveResult(
        optimum=optimum, profile=profile, witness=witness, method=method, stats=stats
    )
    _emit_result(result, args.json)
    return EXIT_OK


def cmd_profiles(args) -> int:
    inst = _load_instance(args.instance)
    _, row, side = resolve_method(args, inst)
    text = row.profile_set(inst, side, cap=getattr(args, row.cap)).dump()
    if text:
        print(text)
    return EXIT_OK


def cmd_recognize(args) -> int:
    inst = _load_instance(args.instance)
    ordering = find_convex_ordering(inst)
    if ordering is None:
        raise CliError(_NOT_CONVEX, EXIT_INFEASIBLE)
    text = ordering_file_text(ordering)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
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
        td = parse_tree_decomposition(_read(args.td))
        width, ell = validate_td(inst, td)
        print(f"td: ok (bags={len(td.bags)}, width={width}, independence={ell})")
    if args.expression:
        expression = parse_k_expression(_read(args.expression))
        mismatch = check_expression_matches(expression, inst)
        if mismatch is not None:
            raise CliError(f"expression: {mismatch}", EXIT_INFEASIBLE)
        print(f"expression: ok (labels={expression.num_labels})")
    if args.result:
        payload = json.loads(_read(args.result))
        witness = payload.get("witness")
        if witness is None:
            raise CliError("result file has no witness to validate", EXIT_INFEASIBLE)
        classes = [frozenset(v - 1 for v in cls) for cls in witness]
        validate_coloring(inst, classes)
        profile = profile_of(inst, classes)
        if list(profile) != payload.get("profile"):
            raise CliError(
                f"result profile {payload.get('profile')} does not match witness profile {list(profile)}",
                EXIT_INFEASIBLE,
            )
        if satisfaction_level(profile) != payload.get("optimum"):
            raise CliError("result optimum does not match witness satisfaction", EXIT_INFEASIBLE)
        print("result: ok (witness validates and matches profile)")
    return EXIT_OK


def cmd_approx(args) -> int:
    inst = _load_instance(args.instance)
    try:
        eps = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse epsilon {args.epsilon!r}", EXIT_USAGE)
    stats: dict = {}
    start = time.perf_counter()
    method, row, side = resolve_method(args, inst)
    cap = getattr(args, row.cap)
    # a scaled instance has the same graph, so the side input carries over
    result = fptas(inst, eps, lambda scaled: row.solve(scaled, side, cap=cap, stats=stats))
    stats["elapsed-ms"] = (time.perf_counter() - start) * 1000.0
    if args.json:
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
    if args.family == "convex":
        inst, ordering = gen_convex_bipartite(
            args.na, args.nb, args.k, args.max_profit, args.seed
        )
        side_name, side_text = ".ordering", ordering_file_text(ordering)
        comment = (
            f"gen convex --na {args.na} --nb {args.nb} --k {args.k} "
            f"--max-profit {args.max_profit} --seed {args.seed}"
        )
    else:
        inst, td = gen_partial_ktree(
            args.n, args.width, args.k, args.max_profit, args.seed, args.delete_prob
        )
        side_name, side_text = ".td", serialize_tree_decomposition(td)
        comment = (
            f"gen ktree --n {args.n} --width {args.width} --k {args.k} "
            f"--max-profit {args.max_profit} --seed {args.seed} "
            f"--delete-prob {args.delete_prob}"
        )
    instance_text = serialize_instance(inst, comment=comment)
    if args.out:
        with open(args.out + ".fkd", "w", encoding="utf-8") as handle:
            handle.write(instance_text)
        with open(args.out + side_name, "w", encoding="utf-8") as handle:
            handle.write(side_text)
        print(f"wrote {args.out}.fkd and {args.out}{side_name}")
    else:
        print(instance_text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairkdiv",
        description="Fair k-division under conflicts: exact and approximate solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=True):
        p.add_argument("instance", help="instance file (.fkd)")
        if with_method:
            p.add_argument(
                "--method",
                choices=["auto", "brute", "convex", "cw", "tin"],
                default="auto",
            )
        p.add_argument("--ordering", help="convex ordering file")
        p.add_argument("--expression", help="clique-width expression file")
        p.add_argument("--td", help="tree decomposition file (.td)")
        p.add_argument("--chordal", action="store_true", help="build a clique tree for --method tin")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--threads", type=int, default=1, help="worker threads (results are identical)")
        p.add_argument("--profile-cap", type=int, default=None, help="max profiles per set")
        p.add_argument("--oracle-cap", type=int, default=None, help="max brute-force assignments")

    p_solve = sub.add_parser("solve", help="compute the optimum and a witness")
    common(p_solve)
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
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

"""The CLI commands other than solve and profiles: recognize, validate, approx, gen.

cli.main imports this module only when one of them runs, so solve and
profiles never compile it.
"""
from __future__ import annotations

import time

from .cli import _NOT_CONVEX, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, CliError, _load_instance
from .cli import _module, _read, resolve_method
from .model import SolveResult, profile_of, satisfaction_level, serialize_instance
from .model import validate_coloring


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_INFEASIBLE)


def cmd_recognize(args) -> int:
    inst = _load_instance(args.instance)
    recognition = _module("recognition")
    ordering = recognition.find_convex_ordering(inst)
    if ordering is None:
        raise CliError(_NOT_CONVEX, EXIT_INFEASIBLE)
    text = recognition.ordering_file_text(ordering)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    print(f"instance: ok (n={inst.n}, m={len(inst.edges)}, k={inst.k})")
    if args.ordering:
        ordering = _module("recognition").parse_ordering_file(_read(args.ordering), inst)
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
            result.value, result.profile, f"approx-{method}", result.witness, stats
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
            side_name = ".ordering"
            side_text = _module("recognition").ordering_file_text(ordering)
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

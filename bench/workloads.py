"""The benchmark's workloads: inputs, CLI command, library call and checks.

Each workload turns an instance seed into input files, names the CLI command
a user would type on them, and gives the in-process library call that does
the same work.  Library calls look their functions up as module attributes
(``treeindep.solve_tin``, not a name imported at load time) so that the
traced pass can wrap them.  The checks use names bound at import, which the
tracer never touches.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from fairkdiv import approx, cliquewidth, convex, model, treeindep
from fairkdiv.cli import ordering_file_text, parse_ordering_file
from fairkdiv.cliquewidth import parse_k_expression, solve_cliquewidth
from fairkdiv.convex import OrderingError, solve_convex
from fairkdiv.generators import gen_partial_ktree
from fairkdiv.model import (
    ConflictInstance,
    InvalidColoringError,
    max_total_profit,
    parse_instance,
    profile_of,
    serialize_instance,
    validate_coloring,
)
from fairkdiv.oracle import brute_force_optimum, brute_force_profiles
from fairkdiv.profiles import best_satisfaction
from fairkdiv.treeindep import serialize_tree_decomposition

import gen

# file suffix -> file text; ".fkd" (the instance) is always present
Files = dict[str, str]

K = 2  # agents, in every workload
EPSILON = Fraction(1, 4)


class CheckFailed(Exception):
    """An output failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # distinct instances written per run
    make: Callable[[int], Files]  # instance seed -> files
    make_canary: Callable[[int], Files]  # seed -> files of an instance with n <= 9
    argv: Callable[[str], list[str]]  # file path prefix -> CLI arguments
    call: Callable[[Files], tuple[Any, dict[str, int]]]  # -> (output, work counters)
    check_output: Callable[[Files, Any], None]  # gate on a library output
    check_cli: Callable[[Files, str, Any], None]  # gate on CLI stdout, given the library output
    check_canary: Callable[[Files, str], None]  # gate on the canary's CLI stdout, against the oracle


def counters(stats: dict, solver_calls: int = 0) -> dict[str, int]:
    """The work counters every library call reports, from a solver stats dict."""
    return {
        "dp.cells": stats.get("dp-cells", 0),
        "dp.profiles_stored": stats.get("profiles-stored", 0),
        "convex.profile_ops": stats.get("profile-ops", 0),
        "approx.fptas.solver_calls": solver_calls,
    }


def _instance(files: Files) -> ConflictInstance:
    return parse_instance(files[".fkd"])


def _check_solution(inst: ConflictInstance, optimum: int, profile, witness) -> None:
    try:
        validate_coloring(inst, witness)
    except InvalidColoringError as exc:
        raise CheckFailed(f"invalid witness: {exc}") from exc
    if profile_of(inst, witness) != tuple(profile):
        raise CheckFailed(f"witness profile {profile_of(inst, witness)} != reported {profile}")
    if min(profile) != optimum:
        raise CheckFailed(f"optimum {optimum} != min of profile {profile}")


def _check_json(inst: ConflictInstance, stdout: str) -> dict:
    """Gate on a solve/approx --json document: the witness certifies the optimum."""
    try:
        payload = json.loads(stdout)
        witness = [frozenset(v - 1 for v in cls) for cls in payload["witness"]]
        optimum, profile = payload["optimum"], payload["profile"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed JSON result: {exc}") from exc
    _check_solution(inst, optimum, profile, witness)
    return payload


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: CLI {got!r} != library {want!r}")


# --- tin-solve: tree-independence DP on partial k-trees, unpruned -------------

TIN = dict(n=13, width=2, max_profit=10, delete_prob=0.3)


def _ktree_files(seed: int, n: int) -> Files:
    inst, td = gen_partial_ktree(
        n, TIN["width"], K, TIN["max_profit"], seed, TIN["delete_prob"]
    )
    return {".fkd": serialize_instance(inst), ".td": serialize_tree_decomposition(td)}


def _tin_call(files: Files):
    inst = model.parse_instance(files[".fkd"])
    td = treeindep.parse_tree_decomposition(files[".td"])
    stats: dict = {}
    result = treeindep.solve_tin(inst, td, stats=stats)
    return result, counters(stats)


def _tin_check_output(files: Files, output) -> None:
    _check_solution(_instance(files), *output)


def _tin_check_cli(files: Files, stdout: str, output) -> None:
    payload = _check_json(_instance(files), stdout)
    _expect("optimum", payload["optimum"], output[0])
    _expect("profile", payload["profile"], list(output[1]))


def _tin_check_canary(files: Files, stdout: str) -> None:
    inst = _instance(files)
    payload = _check_json(inst, stdout)
    _expect("canary optimum vs oracle", payload["optimum"], brute_force_optimum(inst)[0])


# --- cw-profiles: full clique-width profile set plus its text dump ------------

CW = dict(leaves=10, labels=3, max_profit=6)


def _expression_files(seed: int, leaves: int) -> Files:
    expr = gen.random_k_expression(leaves, CW["labels"], seed)
    inst = gen.instance_of_expression(expr, K, CW["max_profit"], seed + 1)
    return {".fkd": serialize_instance(inst), ".cw": gen.expression_text(expr)}


def _cw_call(files: Files):
    inst = model.parse_instance(files[".fkd"])
    expr = cliquewidth.parse_k_expression(files[".cw"])
    stats: dict = {}
    pset = cliquewidth.cliquewidth_profile_set(inst, expr, stats=stats)
    return pset, counters(stats)


def _cw_check_output(files: Files, pset) -> None:
    # the pruned solver is a second path to the optimum: its validated
    # witness must lie in the full set and reach the set's best level
    inst = _instance(files)
    optimum, profile, witness = solve_cliquewidth(inst, parse_k_expression(files[".cw"]), prune=True)
    _check_solution(inst, optimum, profile, witness)
    if tuple(profile) not in pset or best_satisfaction(pset) != optimum:
        raise CheckFailed("full profile set disagrees with the pruned solver's optimum")


def _dump_text(pset) -> str:
    text = pset.dump()
    return text + "\n" if text else ""


def _cw_check_cli(files: Files, stdout: str, pset) -> None:
    if stdout != _dump_text(pset):
        raise CheckFailed("CLI profile dump differs from the library ProfileSet.dump()")


def _cw_check_canary(files: Files, stdout: str) -> None:
    if stdout != _dump_text(brute_force_profiles(_instance(files))):
        raise CheckFailed("canary profile dump differs from the brute-force profile set")


# --- approx-convex: FPTAS over recognition plus the pruned convex stage DP ----

APPROX = dict(na=6, nb=6, max_profit=1000, components=3)


def _convex_files(seed: int, na: int, nb: int, max_profit: int, components: int) -> Files:
    inst = gen.shuffled_convex(na, nb, K, max_profit, seed, components)
    return {".fkd": serialize_instance(inst)}


def _approx_call(files: Files):
    inst = model.parse_instance(files[".fkd"])
    stats: dict = {}

    def exact(scaled: ConflictInstance):
        # the CLI's `approx --method convex` without --ordering does the same
        ordering = convex.find_convex_ordering(scaled)
        return convex.solve_convex(scaled, ordering, prune=True, stats=stats)

    result = approx.fptas(inst, EPSILON, exact)
    return result, counters(stats, result.solver_calls)


def _call_bound(inst: ConflictInstance) -> int:
    return math.ceil(math.log2(max_total_profit(inst) + 1)) + 1


def _approx_check_output(files: Files, result) -> None:
    inst = _instance(files)
    _check_solution(inst, result.value, result.profile, result.witness)
    if result.solver_calls > _call_bound(inst):
        raise CheckFailed(f"{result.solver_calls} solver calls exceed {_call_bound(inst)}")


def _approx_check_cli(files: Files, stdout: str, result) -> None:
    inst = _instance(files)
    payload = _check_json(inst, stdout)
    if payload["solver-calls"] > _call_bound(inst):
        raise CheckFailed(f"{payload['solver-calls']} solver calls exceed {_call_bound(inst)}")
    _expect("value", payload["optimum"], result.value)
    _expect("solver-calls", payload["solver-calls"], result.solver_calls)


def _approx_check_canary(files: Files, stdout: str) -> None:
    inst = _instance(files)
    value = _check_json(inst, stdout)["optimum"]
    best = brute_force_optimum(inst)[0]
    if not (1 - EPSILON) * best <= value <= best:
        raise CheckFailed(f"canary value {value} outside [(1-eps)*{best}, {best}]")


# --- convex-recognize: consecutive-ones search on shuffled convex graphs ------

RECOGNIZE = dict(na=20, nb=20, max_profit=10, components=10)


def _recognize_call(files: Files):
    inst = model.parse_instance(files[".fkd"])
    return convex.find_convex_ordering(inst), counters({})


def _parse_ordering(inst: ConflictInstance, text: str):
    try:
        return parse_ordering_file(text, inst)
    except (OrderingError, ValueError) as exc:
        raise CheckFailed(f"ordering does not re-parse: {exc}") from exc


def _recognize_check_output(files: Files, ordering) -> None:
    if ordering is None:
        raise CheckFailed("recognition failed on a convex instance")
    _parse_ordering(_instance(files), ordering_file_text(ordering))


def _recognize_check_cli(files: Files, stdout: str, ordering) -> None:
    _parse_ordering(_instance(files), stdout)
    _expect("ordering", stdout, ordering_file_text(ordering))


def _recognize_check_canary(files: Files, stdout: str) -> None:
    inst = _instance(files)
    ordering = _parse_ordering(inst, stdout)
    _expect("canary optimum under the ordering vs oracle",
            solve_convex(inst, ordering)[0], brute_force_optimum(inst)[0])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="tin-solve",
            pool=256,
            make=lambda seed: _ktree_files(seed, TIN["n"]),
            make_canary=lambda seed: _ktree_files(seed, 9),
            argv=lambda p: ["solve", p + ".fkd", "--method", "tin", "--td", p + ".td", "--json"],
            call=_tin_call,
            check_output=_tin_check_output,
            check_cli=_tin_check_cli,
            check_canary=_tin_check_canary,
        ),
        Workload(
            name="cw-profiles",
            pool=256,
            make=lambda seed: _expression_files(seed, CW["leaves"]),
            make_canary=lambda seed: _expression_files(seed, 7),
            argv=lambda p: ["profiles", p + ".fkd", "--method", "cw", "--expression", p + ".cw"],
            call=_cw_call,
            check_output=_cw_check_output,
            check_cli=_cw_check_cli,
            check_canary=_cw_check_canary,
        ),
        Workload(
            name="approx-convex",
            pool=192,
            make=lambda seed: _convex_files(
                seed, APPROX["na"], APPROX["nb"], APPROX["max_profit"], APPROX["components"]
            ),
            make_canary=lambda seed: _convex_files(seed, 4, 4, APPROX["max_profit"], 1),
            argv=lambda p: [
                "approx", p + ".fkd", "--method", "convex", "--epsilon", "1/4", "--json"
            ],
            call=_approx_call,
            check_output=_approx_check_output,
            check_cli=_approx_check_cli,
            check_canary=_approx_check_canary,
        ),
        Workload(
            name="convex-recognize",
            pool=128,
            make=lambda seed: _convex_files(
                seed, RECOGNIZE["na"], RECOGNIZE["nb"], RECOGNIZE["max_profit"],
                RECOGNIZE["components"],
            ),
            make_canary=lambda seed: _convex_files(seed, 4, 5, RECOGNIZE["max_profit"], 1),
            argv=lambda p: ["recognize", p + ".fkd"],
            call=_recognize_call,
            check_output=_recognize_check_output,
            check_cli=_recognize_check_cli,
            check_canary=_recognize_check_canary,
        ),
    ]
}

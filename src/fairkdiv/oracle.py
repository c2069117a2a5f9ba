"""Exponential-time ground truth by direct enumeration of partial colorings.

Every solver in the package is tested against these routines, so they stay
deliberately plain: iterate the per-vertex assignments {unassigned, agent 1,
..., agent k} in mixed-radix order, pruning as soon as a conflict edge lands
inside one class.
"""
from __future__ import annotations

from collections.abc import Iterator

from .model import CapError, Coloring, ConflictInstance, Profile, profile_of
from .profiles import ProfileSet

DEFAULT_ENUMERATION_CAP = 10**8


class EnumerationCapError(CapError):
    """The (k+1)^n search space exceeds the configured cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"enumeration of {size} assignments exceeds cap {cap}")


def _check_cap(inst: ConflictInstance, cap: int | None) -> None:
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    size = (inst.k + 1) ** inst.n
    if size > limit:
        raise EnumerationCapError(size, limit)


def _colorings(inst: ConflictInstance) -> Iterator[tuple[list[int], Profile]]:
    """Every partial k-coloring and its profile, in mixed-radix order.

    assignment[v] is 0 (unassigned) or the agent 1..k taking v, vertex 0
    is the most significant digit, and a color that puts a conflict edge
    inside one class prunes every assignment below it.  The assignment is
    yielded as one list that the search keeps changing: copy it to keep it.
    The search keeps its own stack, so n meets no recursion limit.
    """
    n, k, profits = inst.n, inst.k, inst.profits
    adj = inst.adjacency()
    earlier = [[w for w in adj[v] if w < v] for v in range(n)]
    assignment = [0] * n
    # (v, the color of vertex v - 1, the profile of vertices 0..v-1); the
    # colors of a vertex are pushed in reverse, so they pop in order
    stack = [(0, 0, (0,) * k)]
    while stack:
        v, color, acc = stack.pop()
        if v:
            assignment[v - 1] = color
        if v == n:
            yield assignment, acc
            continue
        for c in range(k, 0, -1):
            if all(assignment[w] != c for w in earlier[v]):
                gain = acc[c - 1] + profits[c - 1][v]
                stack.append((v + 1, c, acc[: c - 1] + (gain,) + acc[c:]))
        stack.append((v + 1, 0, acc))


def brute_force_profiles(inst: ConflictInstance, cap: int | None = None) -> ProfileSet:
    """The exact set of profit profiles over all partial k-colorings."""
    _check_cap(inst, cap)
    return ProfileSet(inst.k, {acc for _, acc in _colorings(inst)})


def brute_force_optimum(inst: ConflictInstance, cap: int | None = None) -> tuple[int, Coloring]:
    """Optimal satisfaction level and the first witness in enumeration order."""
    _check_cap(inst, cap)
    best_value = -1
    best_assignment: list[int] = []
    for assignment, acc in _colorings(inst):
        value = min(acc)
        if value > best_value:
            best_value, best_assignment = value, assignment.copy()
    witness = tuple(
        frozenset(v for v, c in enumerate(best_assignment) if c == j + 1) for j in range(inst.k)
    )
    return best_value, witness


def brute_profile_set(inst: ConflictInstance, _side=None, cap: int | None = None) -> ProfileSet:
    """`brute_force_profiles` in the solvers' (inst, side, cap=) shape; no side input."""
    return brute_force_profiles(inst, cap=cap)


def solve_brute(
    inst: ConflictInstance, _side=None, cap: int | None = None, stats: dict | None = None
) -> tuple[int, Profile, Coloring]:
    """`brute_force_optimum` in the solvers' (inst, side, cap=, stats=) shape."""
    # the profile is read off the oracle's witness, so the two always agree
    optimum, witness = brute_force_optimum(inst, cap=cap)
    return optimum, profile_of(inst, witness), witness

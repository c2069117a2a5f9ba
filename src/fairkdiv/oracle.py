"""Exponential-time ground truth by direct enumeration of partial colorings.

Every solver in the package is tested against these routines, so they stay
deliberately plain: iterate the per-vertex assignments {unassigned, agent 1,
..., agent k} in mixed-radix order, pruning as soon as a conflict edge lands
inside one class.
"""
from __future__ import annotations

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


def brute_force_profiles(inst: ConflictInstance, cap: int | None = None) -> ProfileSet:
    """The exact set of profit profiles over all partial k-colorings."""
    _check_cap(inst, cap)
    adj = inst.adjacency()
    k = inst.k
    profiles: set[Profile] = set()
    assignment = [0] * inst.n

    def extend(v: int, acc: Profile) -> None:
        if v == inst.n:
            profiles.add(acc)
            return
        for color in range(k + 1):
            if color > 0:
                if any(assignment[w] == color for w in adj[v] if w < v):
                    continue
                acc_next = acc[: color - 1] + (acc[color - 1] + inst.profits[color - 1][v],) + acc[color:]
            else:
                acc_next = acc
            assignment[v] = color
            extend(v + 1, acc_next)
        assignment[v] = 0

    extend(0, (0,) * k)
    return ProfileSet(k, profiles)


def brute_force_optimum(inst: ConflictInstance, cap: int | None = None) -> tuple[int, Coloring]:
    """Optimal satisfaction level and the first witness in enumeration order."""
    _check_cap(inst, cap)
    adj = inst.adjacency()
    k = inst.k
    assignment = [0] * inst.n
    best_value = -1
    best_assignment: list[int] = []

    def extend(v: int, acc: Profile) -> None:
        nonlocal best_value, best_assignment
        if v == inst.n:
            value = min(acc)
            if value > best_value:
                best_value = value
                best_assignment = assignment.copy()
            return
        for color in range(k + 1):
            if color > 0:
                if any(assignment[w] == color for w in adj[v] if w < v):
                    continue
                acc_next = acc[: color - 1] + (acc[color - 1] + inst.profits[color - 1][v],) + acc[color:]
            else:
                acc_next = acc
            assignment[v] = color
            extend(v + 1, acc_next)
        assignment[v] = 0

    extend(0, (0,) * k)
    witness = tuple(
        frozenset(v for v, c in enumerate(best_assignment) if c == j + 1) for j in range(k)
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

"""FPTAS wrapper: profit scaling around any exact pseudo-polynomial solver.

The exact solvers run in time polynomial in the largest total profit, so
dividing all profits by a factor K trades accuracy for speed.  The wrapper
guesses the optimum by halving from a certified upper bound U on it, picks K
so that the total rounding loss stays below half an epsilon-fraction of the
guess, solves the scaled instance exactly, and re-scores the returned
coloring with the original profits; the first guess whose witness certifies
itself is accepted.

U = min(min_j T_j, floor(sum_v max_j p_j(v) / k)), T_j being agent j's total
profit.  No coloring gives agent j more than T_j, and the k agents share one
pool of items, so together they get at most sum_v max_j p_j(v) and the least
of their k totals is at most the floor of the mean.  U is often below
(1 - epsilon) * Q, where a guess at Q, the largest T_j, could never be
accepted; starting at U skips that call.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .model import (
    Coloring,
    ConflictInstance,
    Profile,
    profile_of,
    satisfaction_level,
    satisfaction_upper_bound,
)

# An exact solver takes an instance and returns (optimum, profile, witness).
ExactSolver = Callable[[ConflictInstance], tuple[int, Profile, Coloring]]


def scale_profits(inst: ConflictInstance, factor: int) -> ConflictInstance:
    """Floor-divide every profit by factor (factor 1 is the identity)."""
    if factor < 1:
        raise ValueError("scale factor must be a positive integer")
    if factor == 1:
        return inst
    return ConflictInstance(
        n=inst.n,
        k=inst.k,
        edges=inst.edges,
        profits=tuple(tuple(p // factor for p in row) for row in inst.profits),
    )


@dataclass
class FptasResult:
    value: int
    profile: Profile
    witness: Coloring
    epsilon: Fraction
    solver_calls: int
    upper_bound: int  # U, the first guess: no coloring's satisfaction exceeds it


def fptas(
    inst: ConflictInstance,
    epsilon: Fraction | float | str,
    exact_solver: ExactSolver,
) -> FptasResult:
    """A coloring whose true satisfaction level is >= (1 - epsilon) * optimum.

    Guess-and-scale: for g = U, ceil(U/2), ..., 1 set K = max(1, floor(
    epsilon*g / (2n))), solve the scaled instance exactly, lift the witness,
    and accept as soon as its true satisfaction reaches (1 - epsilon) * g.
    U >= OPT (see the module docstring), so an acceptance at g >= OPT gives
    a value >= (1 - epsilon) * OPT, and the first guess g <= OPT is accepted
    because the rounding loses at most epsilon * g / 2.  A call at K = 1
    solves the instance itself, so its witness is optimal and is returned
    whatever the guess; g = 1 always has K = 1.  Uses at most
    ceil(log2(U+1)) + 1 <= ceil(log2(Q+1)) + 1 exact-solver calls, and none
    when U = 0, where the optimum is 0.
    """
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise ValueError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    bound = satisfaction_upper_bound(inst)
    if bound == 0:
        return FptasResult(
            value=0,
            profile=(0,) * inst.k,
            witness=tuple(frozenset() for _ in range(inst.k)),
            epsilon=eps,
            solver_calls=0,
            upper_bound=0,
        )

    calls = 0
    guess = bound
    while True:
        # bound > 0 implies n >= 1 here
        factor = max(1, int(eps * guess / (2 * inst.n)))
        _, _, witness = exact_solver(scale_profits(inst, factor))
        calls += 1
        true_profile = profile_of(inst, witness)
        value = satisfaction_level(true_profile)
        if factor == 1 or value >= (1 - eps) * guess:
            return FptasResult(
                value=value,
                profile=true_profile,
                witness=witness,
                epsilon=eps,
                solver_calls=calls,
                upper_bound=bound,
            )
        guess = (guess + 1) // 2

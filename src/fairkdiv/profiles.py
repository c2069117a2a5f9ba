"""Deduplicated sets of profit profiles: the currency of every dynamic program.

A profile set collects the k-tuples of per-agent profits attainable by some
family of partial colorings.  Sets are combined by vector addition (merging
independent parts), shifted by fixed contributions, and finally scanned for
the profile with the best minimum entry.
"""
from __future__ import annotations

from typing import Any, Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .model import Profile

# A set may hold up to (Q+1)^k profiles; fail loudly instead of thrashing.
DEFAULT_PROFILE_CAP = 1 << 26


class ProfileCapError(RuntimeError):
    """A profile set grew past the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"profile set exceeded the cap of {cap} profiles")


class ProfileSet:
    """An immutable deduplicated set of equal-arity profit profiles."""

    __slots__ = ("arity", "_profiles", "_bound")

    def __init__(self, arity: int, profiles: Iterable[Profile]):
        self.arity = arity
        self._profiles = frozenset(profiles)
        for q in self._profiles:
            if len(q) != arity:
                raise ValueError(f"profile {q} does not have arity {arity}")
        self._bound: Profile | None = None

    @classmethod
    def zero(cls, arity: int) -> ProfileSet:
        return cls(arity, [(0,) * arity])

    def __iter__(self) -> Iterator[Profile]:
        return iter(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, profile: Profile) -> bool:
        return profile in self._profiles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileSet):
            return NotImplemented
        return self.arity == other.arity and self._profiles == other._profiles

    def __hash__(self) -> int:
        return hash((self.arity, self._profiles))

    def __repr__(self) -> str:
        return f"ProfileSet(arity={self.arity}, size={len(self._profiles)})"

    def sorted_profiles(self) -> list[Profile]:
        """Canonical lexicographic ascending order."""
        return sorted(self._profiles)

    def componentwise_max(self) -> Profile:
        """Upper bound per coordinate over all members; zeros if empty."""
        if self._bound is None:
            bound = [0] * self.arity
            for q in self._profiles:
                for j, x in enumerate(q):
                    if x > bound[j]:
                        bound[j] = x
            self._bound = tuple(bound)
        return self._bound

    def dump(self) -> str:
        """One profile per line, space-separated, lexicographically sorted."""
        return "\n".join(" ".join(str(x) for x in q) for q in self.sorted_profiles())


def _check_cap(size: int, cap: int | None) -> None:
    limit = DEFAULT_PROFILE_CAP if cap is None else cap
    if size > limit:
        raise ProfileCapError(limit)


# A DP table: state key -> the profiles attainable in that state; absent keys
# denote empty sets.
Table = dict[Hashable, ProfileSet]


def _stored(k: int, profiles: Collection[Profile], cap: int | None, prune: bool) -> ProfileSet:
    _check_cap(len(profiles), cap)
    pset = ProfileSet(k, profiles)
    return dominance_prune(pset) if prune else pset


def store_cells(
    k: int,
    raw: Mapping[Hashable, Collection[Profile]],
    cap: int | None = None,
    prune: bool = False,
) -> Table:
    """A finished table from raw cells: the per-cell step of every DP.

    Empty cells are dropped, each cell is checked against the cap before
    pruning, and with prune only its Pareto-maximal members are kept.
    """
    return {key: _stored(k, profiles, cap, prune) for key, profiles in raw.items() if profiles}


def union_cells(
    k: int, cells: Iterable[ProfileSet], cap: int | None = None, prune: bool = False
) -> ProfileSet:
    """One set holding every member of the given cells, checked like a cell."""
    union: set[Profile] = set()
    for cell in cells:
        union.update(cell)
    return _stored(k, union, cap, prune)


def count_table(stats: dict, table: Table) -> None:
    """Add a stored table to the `dp-cells` and `profiles-stored` counters."""
    stats["dp-cells"] = stats.get("dp-cells", 0) + len(table)
    stats["profiles-stored"] = stats.get("profiles-stored", 0) + sum(map(len, table.values()))


def run_tables(
    root: Any,
    children_of: Callable[[Any], Sequence[Any]],
    node_table: Callable[[Any, list[Table]], Table],
    stats: dict | None = None,
) -> dict[int, Table]:
    """Every node's table, children first, keyed by id(node).

    node_table(node, child_tables) builds one node's table from its
    children's.  The post-order comes from an explicit stack, so the depth
    of the tree is not bounded by the recursion limit.
    """
    stats = stats if stats is not None else {}
    tables: dict[int, Table] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        children = children_of(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        table = node_table(node, [tables[id(child)] for child in children])
        count_table(stats, table)
        tables[id(node)] = table
    return tables


def edgeless_profiles(
    k: int,
    vertex_profits: Sequence[Sequence[int]],
    cap: int | None = None,
) -> ProfileSet:
    """All profit profiles over an edgeless vertex list.

    vertex_profits[i][j] is agent j's profit for the i-th vertex.  Starting
    from the all-zero profile, each vertex either stays unassigned or adds
    its profit to one agent's coordinate, so the result is built in
    O(len(vertex_profits) * (Q+1)^k) set operations.
    """
    current: set[Profile] = {(0,) * k}
    for row in vertex_profits:
        additions = [(j, p) for j, p in enumerate(row) if p > 0]
        if not additions:
            continue
        nxt = set(current)
        for q in current:
            for j, p in additions:
                nxt.add(q[:j] + (q[j] + p,) + q[j + 1 :])
        _check_cap(len(nxt), cap)
        current = nxt
    return ProfileSet(k, current)


def merge_profile_sets(s1: ProfileSet, s2: ProfileSet, cap: int | None = None) -> ProfileSet:
    """All pairwise vector sums {q1 + q2}, deduplicated."""
    if s1.arity != s2.arity:
        raise ValueError(f"arity mismatch: {s1.arity} vs {s2.arity}")
    if len(s1) > len(s2):
        s1, s2 = s2, s1
    out: set[Profile] = set()
    for q1 in s1:
        for q2 in s2:
            out.add(tuple(a + b for a, b in zip(q1, q2)))
        _check_cap(len(out), cap)
    return ProfileSet(s1.arity, out)


def shift(s: ProfileSet, delta: Profile) -> ProfileSet:
    """Add a fixed profile to every member (cardinality preserved)."""
    if len(delta) != s.arity:
        raise ValueError(f"arity mismatch: {len(delta)} vs {s.arity}")
    if not any(delta):
        return s
    return ProfileSet(s.arity, (tuple(a + b for a, b in zip(q, delta)) for q in s))


def best_satisfaction(s: ProfileSet) -> int:
    """Best attainable satisfaction level: max over members of min entry."""
    if len(s) == 0:
        raise ValueError("empty profile set has no satisfaction level")
    return max(min(q) for q in s)


def best_profile(s: ProfileSet) -> tuple[int, Profile]:
    """Optimum value plus a deterministic witness profile achieving it.

    Among optimal profiles, the componentwise-maximal ones are scanned first
    and ties break lexicographically, so the chosen profile is Pareto-maximal
    (witness walks through pruned tables rely on this).
    """
    best = best_satisfaction(s)
    candidates = dominance_prune(s)
    return best, min(q for q in candidates if min(q) == best)


def dominance_prune(s: ProfileSet) -> ProfileSet:
    """Keep only Pareto-maximal members.

    Sound for optimum extraction (vector addition and min are monotone) but
    never for full profile-set output.
    """
    ordered = sorted(s._profiles, key=lambda q: (-sum(q),) + tuple(-x for x in q))
    kept: list[Profile] = []
    for q in ordered:
        if not any(all(a >= b for a, b in zip(p, q)) for p in kept):
            kept.append(q)
    return ProfileSet(s.arity, kept)


def edgeless_assignment(
    k: int,
    vertex_profits: Sequence[Sequence[int]],
    target: Profile,
) -> list[int]:
    """Recover one per-vertex assignment realizing target over edgeless vertices.

    Returns values in {0, ..., k} (0 = unassigned), preferring 0, so a vertex
    is assigned only when its profit actually moves the profile.  target must
    be a member of edgeless_profiles(k, vertex_profits).
    """
    zero = (0,) * k
    stages: list[set[Profile]] = [{zero}]
    for row in vertex_profits:
        additions = [(j, p) for j, p in enumerate(row) if p > 0]
        nxt = set(stages[-1])
        for q in stages[-1]:
            for j, p in additions:
                nxt.add(q[:j] + (q[j] + p,) + q[j + 1 :])
        stages.append(nxt)
    if target not in stages[-1]:
        raise ValueError(f"profile {target} not attainable")
    assignment = [0] * len(vertex_profits)
    current = target
    for i in range(len(vertex_profits) - 1, -1, -1):
        if current in stages[i]:
            continue
        for j, p in enumerate(vertex_profits[i]):
            if p > 0 and current[j] >= p:
                prev = current[:j] + (current[j] - p,) + current[j + 1 :]
                if prev in stages[i]:
                    assignment[i] = j + 1
                    current = prev
                    break
        else:
            raise AssertionError("backtracking lost the target profile")
    return assignment

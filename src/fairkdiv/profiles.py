"""Deduplicated sets of profit profiles: the currency of every dynamic program.

A profile set collects the k-tuples of per-agent profits attainable by some
family of partial colorings.  Sets are combined by vector addition (merging
independent parts), shifted by fixed contributions, and finally scanned for
the profile with the best minimum entry.

Each profile is stored as one int, its code: coordinate j (1-based) fills the
FIELD_BITS-bit field that starts FIELD_BITS * (k - j) bits up, so coordinate 1
is the most significant and the order of codes is the lexicographic order of
profiles.  ConflictInstance bounds every agent's total profit by
MAX_PROFIT_SUM < 2**FIELD_BITS, so every profile a solver builds fits its
fields, and the sum of two codes is the code of the vector sum: no carry
crosses a field.  Code arithmetic is linear, so a sum may also subtract a
profile, as long as the result is a profile.  merge_profile_sets, shift and
edgeless_profiles check that their sums fit and raise ValueError otherwise;
add_sums and build_table, which the solvers' inner loops call, rely on the
instance bound.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Any, Callable, Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .model import CapError, Coloring, Profile

# A set may hold up to (Q+1)^k profiles; fail loudly instead of thrashing.
DEFAULT_PROFILE_CAP = 1 << 26

FIELD_BITS = 64
FIELD_MASK = (1 << FIELD_BITS) - 1


class ProfileCapError(CapError):
    """A profile set grew past the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"profile set exceeded the cap of {cap} profiles")


def encode(profile: Sequence[int], arity: int) -> int:
    """The code of a profile; ValueError if it is not a k-profile that fits."""
    if len(profile) != arity:
        raise ValueError(f"profile {tuple(profile)} does not have arity {arity}")
    code = 0
    for x in profile:
        if not 0 <= x <= FIELD_MASK:
            raise ValueError(f"profile {tuple(profile)} has a coordinate outside [0, 2**{FIELD_BITS})")
        code = (code << FIELD_BITS) | x
    return code


def decode(code: int, arity: int) -> Profile:
    """The profile a code stands for."""
    return tuple(
        (code >> shift) & FIELD_MASK for shift in range(FIELD_BITS * (arity - 1), -1, -FIELD_BITS)
    )


def unit_code(arity: int, j: int, p: int) -> int:
    """The code of the profile with p at 0-based coordinate j and zeros elsewhere."""
    return p << (FIELD_BITS * (arity - 1 - j))


class ProfileSet:
    """An immutable deduplicated set of equal-arity profit profiles.

    Members are held as codes in `codes`; iteration, `in` and the sorted
    forms speak in profile tuples.
    """

    __slots__ = ("arity", "codes")

    def __init__(self, arity: int, profiles: Iterable[Profile]):
        self.arity = arity
        self.codes = frozenset(encode(q, arity) for q in profiles)

    @classmethod
    def from_codes(cls, arity: int, codes: Iterable[int]) -> ProfileSet:
        """A set of already encoded profiles (not checked)."""
        pset = cls.__new__(cls)
        pset.arity = arity
        pset.codes = frozenset(codes)
        return pset

    @classmethod
    def zero(cls, arity: int) -> ProfileSet:
        return cls.from_codes(arity, (0,))

    def __iter__(self) -> Iterator[Profile]:
        return (decode(code, self.arity) for code in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, profile: object) -> bool:
        try:
            return encode(profile, self.arity) in self.codes  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileSet):
            return NotImplemented
        return self.arity == other.arity and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.arity, self.codes))

    def __repr__(self) -> str:
        return f"ProfileSet(arity={self.arity}, size={len(self.codes)})"

    def sorted_profiles(self) -> list[Profile]:
        """Canonical lexicographic ascending order."""
        return [decode(code, self.arity) for code in sorted(self.codes)]

    def dump(self) -> str:
        """One profile per line, space-separated, lexicographically sorted."""
        return "\n".join(" ".join(map(str, q)) for q in self.sorted_profiles())


def _check_cap(size: int, cap: int | None) -> None:
    limit = DEFAULT_PROFILE_CAP if cap is None else cap
    if size > limit:
        raise ProfileCapError(limit)


# A DP table: state key -> the profiles attainable in that state; absent keys
# denote empty sets.
Table = dict[Hashable, ProfileSet]


def _stored(k: int, codes: Collection[int], cap: int | None, prune: bool) -> ProfileSet:
    _check_cap(len(codes), cap)
    pset = ProfileSet.from_codes(k, codes)
    # a single profile is its own Pareto front
    return dominance_prune(pset) if prune and len(pset) > 1 else pset


def union_cells(
    k: int, cells: Iterable[ProfileSet], cap: int | None = None, prune: bool = False
) -> ProfileSet:
    """One set holding every member of the given cells, checked like a cell."""
    union: set[int] = set()
    for cell in cells:
        union.update(cell.codes)
    return _stored(k, union, cap, prune)


def count_table(stats: dict, table: Table) -> None:
    """Add a stored table to the `dp-cells` and `profiles-stored` counters."""
    stats["dp-cells"] = stats.get("dp-cells", 0) + len(table)
    stats["profiles-stored"] = stats.get("profiles-stored", 0) + sum(map(len, table.values()))


def post_order(root: Any, children_of: Callable[[Any], Sequence[Any]]) -> list[Any]:
    """The nodes of a tree, children first, left to right: a reversed right-to-left pre-order."""
    out: list[Any] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children_of(node))
    out.reverse()
    return out


def run_tables(
    root: Any,
    children_of: Callable[[Any], Sequence[Any]],
    node_table: Callable[[Any, list[Table]], Table],
    stats: dict | None = None,
) -> dict[int, Table]:
    """Every node's table, keyed by id(node): node_table(node, child_tables) in post-order."""
    stats = stats if stats is not None else {}
    tables: dict[int, Table] = {}
    for node in post_order(root, children_of):
        table = node_table(node, [tables[id(child)] for child in children_of(node)])
        count_table(stats, table)
        tables[id(node)] = table
    return tables


# One transition of a DP node: the cell `key` receives the sum of one cell per
# child (named by `child_keys`, in child order) plus the code `offset`, and
# `assigned` holds the (vertex, agent) pairs the step colors, often none.  A
# node kind's steps are generated from the node and its children's tables, so
# the forward pass (build_table) and the witness walk (extract_coloring) read
# one description of each transition.  The tree DPs color at most one vertex
# per step; a convex shift step colors each agent's guessed vertices.
Step = tuple[Hashable, tuple[Hashable, ...], int, tuple[tuple[int, int], ...]]


def build_table(
    k: int,
    steps: Iterable[Step],
    child_tables: list[Table],
    cap: int | None = None,
    prune: bool = False,
) -> Table:
    """One node's table from its steps: a loop specialised by the arity.

    Each cell is checked against the cap before pruning, and with prune only
    its Pareto-maximal members are kept.  A cell that one unshifted unary
    step fills is that child's cell, which was checked and pruned when it
    was stored.
    """
    raw: dict[Hashable, ProfileSet | Collection[int]] = {}
    if not child_tables:
        for key, _, offset, _ in steps:
            raw.setdefault(key, set()).add(offset)
    elif len(child_tables) == 1:
        (child,) = child_tables
        for key, (child_key,), offset, _ in steps:
            cell = raw.get(key)
            if cell is None:
                # copied only if a second step reaches this cell
                first = child[child_key]
                raw[key] = [c + offset for c in first.codes] if offset else first
            else:
                if not isinstance(cell, set):
                    cell = raw[key] = set(cell.codes if isinstance(cell, ProfileSet) else cell)
                codes = child[child_key].codes
                cell.update([c + offset for c in codes] if offset else codes)
    else:
        left, right = child_tables
        for key, (key1, key2), offset, _ in steps:
            add_sums(raw.setdefault(key, set()), left[key1].codes, right[key2].codes, offset, cap)
    return {
        key: cell if isinstance(cell, ProfileSet) else _stored(k, cell, cap, prune)
        for key, cell in raw.items()
    }


def extract_coloring(
    k: int,
    root: Any,
    key: Hashable,
    target: int,
    children_of: Callable[[Any], Sequence[Any]],
    steps_of: Callable[[Any, list[Table]], Iterable[Step]],
    tables: Mapping[int, Table],
) -> Coloring:
    """A coloring whose profile is the code target, from the root's cell key.

    An explicit-stack walk down the tree: at each node the steps into the
    current cell are tried in child-key order, and the first whose children
    hold the rest of the target is taken.  A binary step splits the target
    at the smallest code of its first child's cell that leaves a member of
    the second.  A difference in which a field would go negative is either
    negative or borrows, leaving a field of 2**(FIELD_BITS - 1) or more; no
    member is either, so no sign check is needed.
    """
    classes: list[set[int]] = [set() for _ in range(k)]
    stack = [(root, key, target)]
    while stack:
        node, key, target = stack.pop()
        children = children_of(node)
        cells = [tables[id(child)] for child in children]
        steps = [step for step in steps_of(node, cells) if step[0] == key]
        steps.sort(key=itemgetter(1))
        for _, child_keys, offset, assigned in steps:
            rest = target - offset
            if not cells:
                parts = () if rest == 0 else None
            elif len(cells) == 1:
                parts = (rest,) if rest in cells[0][child_keys[0]].codes else None
            else:
                second = cells[1][child_keys[1]].codes
                first = sorted(cells[0][child_keys[0]].codes)
                parts = next(((a, rest - a) for a in first if rest - a in second), None)
            if parts is not None:
                break
        else:
            raise AssertionError(f"no step of {type(node).__name__} derives the target")
        for vertex, agent in assigned:
            classes[agent].add(vertex)
        stack.extend(zip(children, child_keys, parts))
    return tuple(frozenset(c) for c in classes)


def add_sums(
    out: set[int],
    left: Collection[int],
    right: Collection[int],
    offset: int = 0,
    cap: int | None = None,
) -> set[int]:
    """Add the code a + b + offset to out for every a in left and b in right.

    The vector-sum kernel of every DP.  A negative offset subtracts a
    profile; every sum must be a profile.  out is checked against the cap
    after each row, so a runaway product fails before it is built.
    """
    if len(left) > len(right):
        left, right = right, left
    for a in left:
        a += offset
        out.update([a + b for b in right])
        _check_cap(len(out), cap)
    return out


def _field_maxima(codes: Collection[int], arity: int) -> list[int]:
    """Each coordinate's largest value over the codes (0 for no codes)."""
    return [
        max(((code >> shift) & FIELD_MASK for code in codes), default=0)
        for shift in range(FIELD_BITS * (arity - 1), -1, -FIELD_BITS)
    ]


@lru_cache(maxsize=None)
def _top_bits(arity: int) -> int:
    """The mask of the most significant bit of every field."""
    return ((1 << FIELD_BITS * arity) - 1) // FIELD_MASK << (FIELD_BITS - 1)


def _check_sums_fit(arity: int, left: Collection[int], right: Collection[int]) -> None:
    """ValueError if a left code plus a right code could carry out of a field.

    Fields below 2**(FIELD_BITS - 1) in both operands cannot carry, which
    one OR per operand shows; otherwise the per-field maxima are added.
    """
    if not reduce(or_, right, reduce(or_, left, 0)) & _top_bits(arity):
        return
    maxima = zip(_field_maxima(left, arity), _field_maxima(right, arity))
    for j, (a, b) in enumerate(maxima):
        if a + b > FIELD_MASK:
            raise ValueError(f"coordinate {j + 1} of a sum could reach 2**{FIELD_BITS}")


def edgeless_profiles(
    k: int,
    vertex_profits: Sequence[Sequence[int]],
    cap: int | None = None,
) -> ProfileSet:
    """All profit profiles over an edgeless vertex list.

    vertex_profits[i][j] is agent j's profit for the i-th vertex.  Starting
    from the all-zero profile, each vertex either stays unassigned or adds
    its profit to one agent's coordinate, so the result is built in
    O(len(vertex_profits) * (Q+1)^k) set operations.  ValueError if an
    agent's positive profits sum to 2**FIELD_BITS or more.
    """
    for j, column in enumerate(zip(*vertex_profits)):
        if sum(p for p in column if p > 0) > FIELD_MASK:
            raise ValueError(f"profits of agent {j + 1} sum to 2**{FIELD_BITS} or more")
    current = {0}
    for row in vertex_profits:
        additions = [unit_code(k, j, p) for j, p in enumerate(row) if p > 0]
        if additions:
            current = add_sums(set(current), additions, current, cap=cap)
    return ProfileSet.from_codes(k, current)


def merge_profile_sets(s1: ProfileSet, s2: ProfileSet, cap: int | None = None) -> ProfileSet:
    """All pairwise vector sums {q1 + q2}, deduplicated.

    ValueError if a coordinate of a sum could reach 2**FIELD_BITS, which
    sets built from one instance's disjoint parts never do.
    """
    if s1.arity != s2.arity:
        raise ValueError(f"arity mismatch: {s1.arity} vs {s2.arity}")
    _check_sums_fit(s1.arity, s1.codes, s2.codes)
    return ProfileSet.from_codes(s1.arity, add_sums(set(), s1.codes, s2.codes, cap=cap))


def shift(s: ProfileSet, delta: Profile) -> ProfileSet:
    """Add a fixed profile to every member (cardinality preserved).

    ValueError if a coordinate of a sum could reach 2**FIELD_BITS.
    """
    offset = encode(delta, s.arity)
    if not offset:
        return s
    _check_sums_fit(s.arity, s.codes, (offset,))
    return ProfileSet.from_codes(s.arity, add_sums(set(), s.codes, (offset,)))


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
    never for full profile-set output.  Codes in descending order are
    profiles in descending lexicographic order, so a member's dominators
    all come before it.  For k <= 2 a member is then dominated iff an
    earlier one has a last coordinate at least as large, which a running
    maximum answers (Kung, Luccio & Preparata 1975); for k >= 3 each
    member is checked against the front kept so far.
    """
    k = s.arity
    kept: list[int] = []
    if k <= 2:
        top = -1
        for code in sorted(s.codes, reverse=True):
            last = code & FIELD_MASK
            if last > top:
                kept.append(code)
                top = last
    else:
        front: list[Profile] = []
        for code in sorted(s.codes, reverse=True):
            q = decode(code, k)
            if not any(all(a >= b for a, b in zip(p, q)) for p in front):
                front.append(q)
                kept.append(code)
    return ProfileSet.from_codes(k, kept)

"""Deduplicated sets of profit profiles: the currency of every dynamic program.

A profile set collects the k-tuples of per-agent profits attainable by some
family of partial colorings.  Sets are combined by vector addition (merging
independent parts), shifted by fixed contributions, and finally scanned for
the profile with the best minimum entry.  A set holds its members in one of
two forms: codes, described here, and grid bits (bitgrid).

Codes.  Each profile is one int, its code: coordinate j (1-based) fills the
low 64 bits of the FIELD_BITS-bit field that starts FIELD_BITS * (k - j) bits
up, so coordinate 1 is the most significant and the order of codes is the
lexicographic order of profiles.  Each field's top bit, its guard, is 0 in
every member: encode rejects coordinates of GUARD = 2**64 or more, and
ConflictInstance bounds each agent's total by MAX_PROFIT_SUM < 2**63.  So a
sum of two members is the code of the vector sum, with no carry across a
field, and build_table, which does every sum and union of cells (a run's
root read-out and merge_profile_sets included), checks none.

Which form.  A table cell is a frozenset of codes, or a grid-backed
ProfileSet in an unpruned table on a grid; callers see a run's result, the
union of its root's cells, as a ProfileSet (Run.root_set).  A Run makes
the choice once, from the instance's totals: pruned tables stay on codes,
since a Pareto front is sparse in its box, and unpruned tables (the
*_profile_set functions, the `profiles` command) are held on the
instance's grid when it has at most GRID_MAX_BITS points; only then is the
grid code (bitgrid) imported, so a pruned run never compiles it.  A shift
costs time in the grid's size, not the set's, while a sum of code sets
costs time in the sets' sizes; a larger grid holds sparse sets of large
profits, for which codes are faster (the FPTAS's unscaled inputs have
grids of 10**8 points and more).  An operation on sets stays on a grid
when all its operands are held on that one Grid; otherwise it works on
codes, which a grid-backed set decodes when they are first read.
"""
from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Hashable, Iterable, Iterator, Sequence

from .model import CapError, Coloring, Profile

if TYPE_CHECKING:
    from .bitgrid import Grid

# A set may hold up to (Q+1)^k profiles; fail loudly instead of thrashing.
DEFAULT_PROFILE_CAP = 1 << 26

FIELD_BITS = 65
FIELD_MASK = (1 << FIELD_BITS) - 1
GUARD = 1 << (FIELD_BITS - 1)  # a field's guard bit, above every coordinate

# The largest grid an unpruned table is held on: 2**18 points, 32 KiB a cell.
# Every measured input up to it ran faster on the grid; above it, the cw
# DP's sets on 10-vertex inputs were sparse enough to run slower.
GRID_MAX_BITS = 1 << 18


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
        if not 0 <= x < GUARD:
            raise ValueError(f"profile {tuple(profile)} has a coordinate outside [0, 2**64)")
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


def profile_grid(totals: Sequence[int]) -> Grid | None:
    """The grid of the per-agent totals, or None if it has more than GRID_MAX_BITS points."""
    size = 1
    for total in totals:
        size *= total + 1
        if size > GRID_MAX_BITS:
            return None
    from .bitgrid import Grid

    return Grid(totals)


class ProfileSet:
    """An immutable deduplicated set of equal-arity profit profiles.

    Members are held as codes in `codes`; iteration, `in` and the sorted
    forms speak in profile tuples.  A set held on a Grid (bitgrid) keeps the
    same interface, and sets of either form are equal when their members
    are.
    """

    __slots__ = ("arity", "codes")
    grid: Grid | None = None  # the grid a set is held on, if any

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
        return f"ProfileSet(arity={self.arity}, size={len(self)})"

    def sorted_profiles(self) -> list[Profile]:
        """Canonical lexicographic ascending order."""
        return [decode(code, self.arity) for code in sorted(self.codes)]

    def dump(self) -> str:
        """One profile per line, space-separated, lexicographically sorted."""
        return "\n".join(" ".join(map(str, q)) for q in self.sorted_profiles())


def check_cap(size: int, cap: int | None) -> None:
    limit = DEFAULT_PROFILE_CAP if cap is None else cap
    if size > limit:
        raise ProfileCapError(limit)


# A DP table: state key -> the cell of the profiles attainable in that state;
# absent keys denote empty sets.
Table = dict[Hashable, frozenset[int] | ProfileSet]


def _codes(cell: frozenset[int] | ProfileSet) -> Collection[int]:
    return cell.codes if isinstance(cell, ProfileSet) else cell


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


# One transition of a DP node: the cell `key` receives the sum of one cell per
# child (named by `child_keys`, in child order) plus the code `offset`.
# `assigned` holds the (vertex, agent) pairs the step colors, often none, and
# `offset` is exactly their profit, so no step subtracts.  A node kind's
# steps are generated once, from the node and its children's tables.  The
# forward pass (build_table) sums them into the node's table; a Run that
# walks a witness keeps the list in a Kept map, and Run.walk reads it back.
# The tree DPs color at most one vertex per step; a convex stage step colors
# the new A-vertices its guess names.  Keys are opaque here, but Run.walk
# tries them in sorted order: the tree DPs pack each key into one int (see
# treeindep.tin_steps and cliquewidth.cw_steps) that sorts as the tuple of
# bag colors or label masks it stands for.
Step = tuple[Hashable, tuple[Hashable, ...], int, tuple[tuple[int, int], ...]]
# id(node) -> the steps its table was built from
Kept = dict[int, list[Step]]


def build_table(
    k: int,
    steps: Iterable[Step],
    child_tables: list[Table],
    cap: int | None = None,
    prune: bool = False,
    grid: Grid | None = None,
) -> Table:
    """One node's table from its steps: a loop specialised by the arity.

    Each cell is checked against the cap's limit, worked out once per table,
    before pruning, and with prune only its Pareto-maximal members are kept.
    A cell that one unary step fills is that child's cell shifted by the
    step's offset: the child's cell was checked, and with prune pruned, when
    it was stored, and a shifted front is a front of the same size, so the
    cell is stored as it is.  With a grid, which excludes prune, every cell
    is held on it, the children's cells included.
    """
    if grid is not None:
        return grid.table(steps, child_tables, cap)
    limit = DEFAULT_PROFILE_CAP if cap is None else cap
    raw: dict[Hashable, frozenset[int] | set[int]] = {}
    if not child_tables:
        for key, _, offset, _ in steps:
            raw.setdefault(key, set()).add(offset)
    elif len(child_tables) == 1:
        (child,) = child_tables
        for key, (child_key,), offset, _ in steps:
            codes = child[child_key]
            cell = raw.get(key)
            if cell is None:
                # copied into a set only if a second step reaches this cell
                raw[key] = frozenset([c + offset for c in codes]) if offset else codes
            else:
                if type(cell) is frozenset:
                    cell = raw[key] = set(cell)
                cell.update([c + offset for c in codes] if offset else codes)
    else:
        left, right = child_tables
        for key, (key1, key2), offset, _ in steps:
            add_sums(raw.setdefault(key, set()), left[key1], right[key2], offset, limit)
    for key, cell in raw.items():
        if type(cell) is not frozenset:
            if len(cell) > limit:
                raise ProfileCapError(limit)
            # a single profile is its own Pareto front
            raw[key] = frozenset(_front(cell, k) if prune and len(cell) > 1 else cell)
    return raw


class Run:
    """One DP run over one or more trees: the grid choice, every node's table, the kept steps.

    Made from the instance's per-agent totals, it derives the grid once:
    unpruned tables are held on the totals' grid when it is small enough,
    pruned ones stay on codes (see the module docstring).  A walking run
    keeps every node's steps for walk.  A DP module turns a node and its
    children's tables into the node's steps and passes them to table;
    root_set does that for every node of a tree, from the node list the
    module built or walked once for the run.  The trees of one run,
    such as the components of a convex instance, share its grid and its
    table map.
    """

    def __init__(
        self,
        totals: Sequence[int],
        cap: int | None = None,
        prune: bool = False,
        stats: dict | None = None,
        walk: bool = False,
    ):
        self.k = len(totals)
        self.cap = cap
        self.prune = prune
        self.stats = stats if stats is not None else {}
        self.grid = None if prune else profile_grid(totals)
        self.kept: Kept | None = {} if walk else None
        self.tables: dict[int, Table] = {}  # id(node) -> its table

    def table(self, node: Any, steps: Iterable[Step], child_tables: list[Table]) -> Table:
        """The node's table from its steps (see build_table); a walking run keeps them."""
        if self.kept is not None:
            steps = self.kept[id(node)] = list(steps)
        return build_table(self.k, steps, child_tables, self.cap, self.prune, self.grid)

    def zero(self) -> ProfileSet:
        """The set of the all-zero profile, on the run's grid if it has one."""
        return ProfileSet.zero(self.k) if self.grid is None else self.grid.profile_set(1)

    def root_set(
        self,
        nodes: Sequence[Any],
        children_of: Callable[[Any], Sequence[Any]],
        node_table: Callable[[Any, list[Table]], Table],
    ) -> ProfileSet:
        """Each node's table, node_table(node, child_tables) in list order; the root's union.

        nodes is the tree's node list, children before parents and the root
        last, as the DP module already holds it (a post-order, or the order
        the nodes were built in), so the tree is not walked again here.  The
        union is read out by one more build_table call: one unary step per
        root key into the key (), so it is checked, and pruned if the run
        prunes, like a cell, and a root of one code cell is not copied.
        """
        stats, tables = self.stats, self.tables
        for node in nodes:
            table = node_table(node, [tables[id(child)] for child in children_of(node)])
            stored = sum(map(len, table.values()))
            stats["dp-cells"] = stats.get("dp-cells", 0) + len(table)
            stats["profiles-stored"] = stats.get("profiles-stored", 0) + stored
            tables[id(node)] = table
        root_table = tables[id(nodes[-1])]
        steps = [((), (key,), 0, ()) for key in root_table]
        cell = build_table(self.k, steps, [root_table], self.cap, self.prune, self.grid)[()]
        return cell if isinstance(cell, ProfileSet) else ProfileSet.from_codes(self.k, cell)

    def walk(self, root: Any, children_of: Callable[[Any], Sequence[Any]], target: int) -> Coloring:
        """A coloring whose profile is the code target, from the first root cell (by key) with it.

        An explicit-stack walk down the tree over the steps the forward pass
        kept (see Step): at each node the kept steps into the current cell
        are tried in child-key order, and the first whose children hold the
        rest of the target is taken.  A binary step splits the target at the
        smallest code of its first child's cell that leaves a member of the
        second.  A difference in which a field would go negative is either
        negative or borrows, leaving a field of at least GUARD, its guard bit
        set; no member is either, so no sign check is needed.
        """
        tables, kept = self.tables, self.kept
        classes: list[set[int]] = [set() for _ in range(self.k)]
        root_table = tables[id(root)]
        key = next(key for key in sorted(root_table) if target in _codes(root_table[key]))
        stack = [(root, key, target)]
        while stack:
            node, key, target = stack.pop()
            children = children_of(node)
            cells = [tables[id(child)] for child in children]
            steps = [step for step in kept[id(node)] if step[0] == key]
            steps.sort(key=itemgetter(1))
            for _, child_keys, offset, assigned in steps:
                rest = target - offset
                if not cells:
                    parts = () if rest == 0 else None
                elif len(cells) == 1:
                    parts = (rest,) if rest in _codes(cells[0][child_keys[0]]) else None
                else:
                    second = _codes(cells[1][child_keys[1]])
                    first = sorted(_codes(cells[0][child_keys[0]]))
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

    The vector-sum kernel of every DP.  out is checked against the cap's limit,
    worked out once, after each row, so a runaway product fails early.
    """
    limit = DEFAULT_PROFILE_CAP if cap is None else cap
    if len(left) > len(right):
        left, right = right, left
    for a in left:
        a += offset
        out.update([a + b for b in right])
        if len(out) > limit:
            raise ProfileCapError(limit)
    return out


def merge_profile_sets(s1: ProfileSet, s2: ProfileSet, cap: int | None = None) -> ProfileSet:
    """All pairwise vector sums {q1 + q2}, deduplicated: one binary build_table step.

    Sets held on one grid are added on it, others as codes.  The sums are
    not checked: sets built from one instance's disjoint parts fit its
    grid and its fields.
    """
    grid = s1.grid if s2.grid is s1.grid else None
    tables = [{(): s if grid is not None else s.codes} for s in (s1, s2)]
    cell = build_table(s1.arity, [((), ((), ()), 0, ())], tables, cap, grid=grid)[()]
    return cell if grid is not None else ProfileSet.from_codes(s1.arity, cell)


def best_satisfaction(s: ProfileSet) -> int:
    """Best attainable satisfaction level: max over members of min entry."""
    if len(s) == 0:
        raise ValueError("empty profile set has no satisfaction level")
    return max(min(q) for q in s)


def best_profile(s: ProfileSet) -> tuple[int, Profile]:
    """Optimum value plus a deterministic witness profile achieving it.

    Of the optimal members of the Pareto front, the lexicographically least
    is taken, as witness walks through pruned tables need.  A pruned run's
    read-out is already a front; unpruned walking solves need the prune.
    """
    best = best_satisfaction(s)
    candidates = dominance_prune(s)
    return best, min(q for q in candidates if min(q) == best)


def dominance_prune(s: ProfileSet) -> ProfileSet:
    """Keep only Pareto-maximal members (see _front); a front is returned as it is."""
    kept = _front(s.codes, s.arity)
    return s if len(kept) == len(s) else ProfileSet.from_codes(s.arity, kept)


def _front(codes: Collection[int], k: int) -> list[int]:
    """The Pareto-maximal codes, descending.

    Sound for optimum extraction (vector addition and min are monotone) but
    never for full profile-set output.  Codes in descending order are
    profiles in descending lexicographic order, so a member's dominators
    all come before it.  For k <= 2 a member is then dominated iff an
    earlier one has a last coordinate at least as large, which a running
    maximum answers (Kung, Luccio & Preparata 1975).  For k >= 3 each q is
    checked against each kept p, newest first: (p | guards) - q borrows
    across no field and keeps a field's guard iff p >= q there (Lamport 1975).
    """
    kept: list[int] = []
    if k <= 2:
        top = -1
        for code in sorted(codes, reverse=True):
            last = code & FIELD_MASK
            if last > top:
                kept.append(code)
                top = last
    else:
        guards = sum(unit_code(k, j, GUARD) for j in range(k))
        for code in sorted(codes, reverse=True):
            if not any(((p | guards) - code) & guards == guards for p in reversed(kept)):
                kept.append(code)
    return kept

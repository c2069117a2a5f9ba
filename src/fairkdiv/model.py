"""Problem instances, colorings, profit profiles, and instance file I/O.

An instance is a conflict graph on n items together with k additive profit
functions, one per agent.  A solution is a partial k-coloring: k pairwise
disjoint independent sets (one bundle per agent); items may stay unassigned.
The value of a solution is the smallest total profit any agent receives.

Vertex ids are 1-based in files and reports, 0-based everywhere else.
"""
from __future__ import annotations

from typing import Iterable, Sequence

# Profit sums must stay representable in a signed 64-bit word so that
# instances stay portable to fixed-width implementations.
MAX_PROFIT_SUM = 2**63 - 1

Profile = tuple[int, ...]
Coloring = tuple[frozenset[int], ...]


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidColoringError(ValueError):
    """A candidate coloring violates disjointness or independence."""


class CapError(RuntimeError):
    """A solver stopped at a configured resource cap (CLI exit 3)."""


class Record:
    """Base of the immutable records, whose fields each class names in _fields.

    A record compares and hashes by its field values, and equals only a
    record of its own class; assigning or deleting an attribute raises.  A
    subclass's __init__ stores its fields with _assign.  Plain classes keep
    start-up cheap: the standard library's record decorator imports inspect
    and execs each class's generated methods at import.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ConflictInstance(Record):
    """Conflict graph plus one nonnegative integer profit row per agent.

    edges are stored canonically as sorted (u, v) pairs with u < v, in
    whatever order they are given, so equal graphs give equal instances;
    profits[j][v] is agent j's profit for item v.
    """

    _fields = ("n", "k", "edges", "profits")
    __slots__ = _fields + ("_adjacency",)

    def __init__(
        self,
        n: int,
        k: int,
        edges: tuple[tuple[int, int], ...],
        profits: tuple[tuple[int, ...], ...],
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if k < 1:
            raise ValueError("agent count must be at least 1")
        # one bulk test; the loop below runs only to name the first violation
        if not (all(0 <= u < v < n for u, v in edges) and len(set(edges)) == len(edges)):
            seen = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u + 1}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u + 1},{v + 1}) out of range")
                if u > v:
                    raise ValueError("edges must be stored as (min, max) pairs")
                if (u, v) in seen:
                    raise ValueError(f"duplicate edge ({u + 1},{v + 1})")
                seen.add((u, v))
        if len(profits) != k:
            raise ValueError(f"expected {k} profit rows, got {len(profits)}")
        for j, row in enumerate(profits):
            if len(row) != n:
                raise ValueError(f"profit row {j + 1} has {len(row)} entries, expected {n}")
            if row and min(row) < 0:
                v = next(v for v, p in enumerate(row) if p < 0)
                raise ValueError(f"negative profit for agent {j + 1}, vertex {v + 1}")
            if sum(row) > MAX_PROFIT_SUM:
                raise ValueError(f"total profit of agent {j + 1} exceeds the 64-bit range")
        # linear when the edges come sorted, as the parser and build pass them
        self._assign(n, k, tuple(sorted(edges)), profits)
        object.__setattr__(self, "_adjacency", None)

    @classmethod
    def build(
        cls,
        n: int,
        k: int,
        edges: Iterable[tuple[int, int]],
        profits: Sequence[Sequence[int]],
    ) -> "ConflictInstance":
        """Construct from 0-based data, canonicalizing edge representation."""
        canon = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        return cls(n=n, k=k, edges=canon, profits=tuple(tuple(row) for row in profits))

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets, built once per instance and cached."""
        cached = self._adjacency
        if cached is None:
            neigh: list[set[int]] = [set() for _ in range(self.n)]
            for u, v in self.edges:
                neigh[u].add(v)
                neigh[v].add(u)
            cached = tuple(frozenset(s) for s in neigh)
            object.__setattr__(self, "_adjacency", cached)
        return cached

    def total_profits(self) -> Profile:
        """Per-agent total profit of all items: (p_1(V), ..., p_k(V))."""
        return tuple(sum(row) for row in self.profits)


def max_total_profit(inst: ConflictInstance) -> int:
    """The largest per-agent total profit; the pseudo-polynomial size driver."""
    return max(inst.total_profits())


def satisfaction_upper_bound(inst: ConflictInstance) -> int:
    """U = min(min_j T_j, floor(sum_v max_j p_j(v) / k)): no coloring's satisfaction exceeds it."""
    return min(min(inst.total_profits()), sum(map(max, zip(*inst.profits))) // inst.k)


def satisfaction_level(profile: Sequence[int]) -> int:
    """Minimum entry of a profit profile: the least happy agent's profit."""
    return min(profile)


def validate_coloring(inst: ConflictInstance, classes: Sequence[Iterable[int]]) -> Coloring:
    """The classes as a Coloring; InvalidColoringError unless they form a partial k-coloring.

    The error message names the first violation found: the number of
    classes, a vertex out of range, a vertex present in two classes, or a
    conflict edge inside one class.
    """
    if len(classes) != inst.k:
        raise InvalidColoringError(f"expected {inst.k} classes, got {len(classes)}")
    out = []
    for cls_index, cls in enumerate(classes):
        members = frozenset(cls)
        for v in members:
            if not (0 <= v < inst.n):
                raise InvalidColoringError(
                    f"vertex {v + 1} in class {cls_index + 1} is out of range"
                )
        out.append(members)
    coloring = tuple(out)
    owner: dict[int, int] = {}
    for j, cls in enumerate(coloring):
        for v in sorted(cls):
            if v in owner:
                raise InvalidColoringError(
                    f"vertex {v + 1} in two classes ({owner[v] + 1} and {j + 1})"
                )
            owner[v] = j
    adj = inst.adjacency()
    for j, cls in enumerate(coloring):
        for v in sorted(cls):
            for w in sorted(adj[v] & cls):
                if v < w:
                    raise InvalidColoringError(
                        f"edge ({v + 1},{w + 1}) inside class {j + 1}"
                    )
    return coloring


def profile_of(inst: ConflictInstance, classes: Sequence[Iterable[int]]) -> Profile:
    """Profit profile (p_1(X_1), ..., p_k(X_k)) of a valid coloring."""
    coloring = validate_coloring(inst, classes)
    return tuple(sum(inst.profits[j][v] for v in cls) for j, cls in enumerate(coloring))


def connected_components(inst: ConflictInstance) -> list[tuple[int, ...]]:
    """Each connected component's sorted vertices, the least vertex's component first."""
    adj = inst.adjacency()
    seen = [False] * inst.n
    comps: list[tuple[int, ...]] = []
    for start in range(inst.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(members)))
    return comps


def _ints(parts: list[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise InstanceFormatError(f"expected integers, got {' '.join(parts)}", lineno) from None


def parse_instance(text: str) -> ConflictInstance:
    """Parse the instance file format.

    Format (UTF-8 text, one record per line):
      c <comment>                          -- anywhere
      p fkd <n> <m> <k>                    -- exactly once, first record
      w <j> <p_j(v_1)> ... <p_j(v_n)>      -- k lines, j = 1..k in order
      e <u> <v>                            -- m lines, 1-based endpoints

    One pass checks each record once; the error on the earliest line wins.
    """
    header: tuple[int, int, int] | None = None
    profits: list[tuple[int, ...]] = []
    # edge {u, v}, u < v, 0-based, as the int u * n + v: the same order as (u, v)
    keys: set[int] = set()
    edges_allowed = False  # header read and all k weight lines after it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if not edges_allowed:
                if header is None:
                    raise InstanceFormatError("edge line before header", lineno)
                raise InstanceFormatError("edge line before all weight lines", lineno)
            if len(parts) != 3:
                _ints(parts[1:], lineno)
                raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise InstanceFormatError(
                    f"expected integers, got {parts[1]} {parts[2]}", lineno
                ) from None
            if u == v:
                raise InstanceFormatError(f"self-loop at vertex {u}", lineno)
            if not (0 < u <= n and 0 < v <= n):
                raise InstanceFormatError(f"edge ({u},{v}) out of range", lineno)
            key = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1
            if key in keys:
                raise InstanceFormatError(f"duplicate edge ({u},{v})", lineno)
            keys.add(key)
        elif tag[0] == "c":
            continue
        elif tag == "p":
            if header is not None:
                raise InstanceFormatError("duplicate header line", lineno)
            if len(parts) != 5 or parts[1] != "fkd":
                raise InstanceFormatError("header must be 'p fkd <n> <m> <k>'", lineno)
            n, m, k = _ints(parts[2:], lineno)
            if n < 0 or m < 0 or k < 1:
                raise InstanceFormatError("header counts out of range", lineno)
            header = (n, m, k)
        elif tag == "w":
            if header is None:
                raise InstanceFormatError("weight line before header", lineno)
            values = _ints(parts[1:], lineno)
            if not values or values[0] != len(profits) + 1:
                raise InstanceFormatError(
                    f"expected weight line for agent {len(profits) + 1}", lineno
                )
            row = values[1:]
            if len(row) != n:
                raise InstanceFormatError(
                    f"agent {values[0]} has {len(row)} profits, expected {n}", lineno
                )
            if row and min(row) < 0:
                raise InstanceFormatError("negative profit", lineno)
            if len(profits) >= k:
                raise InstanceFormatError("more weight lines than agents", lineno)
            profits.append(tuple(row))
            edges_allowed = len(profits) == k
        else:
            raise InstanceFormatError(f"unknown record '{tag}'", lineno)

    if header is None:
        raise InstanceFormatError("missing header line")
    n, m, k = header
    if n == 0 and not profits:
        profits = [()] * k
    if len(profits) != k:
        raise InstanceFormatError(f"expected {k} weight lines, found {len(profits)}")
    if len(keys) != m:
        raise InstanceFormatError(f"header declares {m} edges, found {len(keys)}")
    edges = tuple([divmod(key, n) for key in sorted(keys)])
    try:
        return ConflictInstance(n=n, k=k, edges=edges, profits=tuple(profits))
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def serialize_instance(inst: ConflictInstance, comment: str | None = None) -> str:
    """Canonical file form: header, weight rows, edges ascending."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p fkd {inst.n} {len(inst.edges)} {inst.k}")
    if inst.n > 0:
        for j in range(inst.k):
            lines.append("w " + " ".join(str(x) for x in (j + 1,) + inst.profits[j]))
    for u, v in sorted(inst.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


class SolveResult(Record):
    """Solver output in the shape of the JSON result schema."""

    __slots__ = _fields = ("optimum", "profile", "method", "witness", "stats")

    def __init__(
        self,
        optimum: int,
        profile: Profile,
        method: str,
        witness: Coloring | None = None,
        stats: dict | None = None,
    ):
        self._assign(optimum, profile, method, witness, {} if stats is None else stats)

    def to_json_dict(self) -> dict:
        out: dict = {
            "optimum": self.optimum,
            "profile": list(self.profile),
            "method": self.method,
            "stats": {
                "elapsed-ms": self.stats.get("elapsed-ms", 0.0),
                "dp-cells": self.stats.get("dp-cells", 0),
                "profiles-stored": self.stats.get("profiles-stored", 0),
            },
        }
        if self.witness is not None:
            out["witness"] = [sorted(v + 1 for v in cls) for cls in self.witness]
        return out

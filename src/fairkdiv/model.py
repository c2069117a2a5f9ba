"""Problem instances, colorings, profit profiles, and instance file I/O.

An instance is a conflict graph on n items together with k additive profit
functions, one per agent.  A solution is a partial k-coloring: k pairwise
disjoint independent sets (one bundle per agent); items may stay unassigned.
The value of a solution is the smallest total profit any agent receives.

Vertex ids are 1-based in files and reports, 0-based everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ConflictInstance:
    """Conflict graph plus one nonnegative integer profit row per agent.

    edges are stored canonically as sorted (u, v) pairs with u < v;
    profits[j][v] is agent j's profit for item v.
    """

    n: int
    k: int
    edges: tuple[tuple[int, int], ...]
    profits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.k < 1:
            raise ValueError("agent count must be at least 1")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u + 1}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u + 1},{v + 1}) out of range")
            if u > v:
                raise ValueError("edges must be stored as (min, max) pairs")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u + 1},{v + 1})")
            seen.add((u, v))
        if len(self.profits) != self.k:
            raise ValueError(f"expected {self.k} profit rows, got {len(self.profits)}")
        for j, row in enumerate(self.profits):
            if len(row) != self.n:
                raise ValueError(f"profit row {j + 1} has {len(row)} entries, expected {self.n}")
            total = 0
            for v, p in enumerate(row):
                if p < 0:
                    raise ValueError(f"negative profit for agent {j + 1}, vertex {v + 1}")
                total += p
            if total > MAX_PROFIT_SUM:
                raise ValueError(f"total profit of agent {j + 1} exceeds the 64-bit range")

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
        cached = self.__dict__.get("_adjacency")
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


def normalize_coloring(inst: ConflictInstance, classes: Sequence[Iterable[int]]) -> Coloring:
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
    return tuple(out)


def validate_coloring(inst: ConflictInstance, classes: Sequence[Iterable[int]]) -> None:
    """Raise InvalidColoringError unless classes form a partial k-coloring.

    The error message names the first violation found: either a vertex
    present in two classes or a conflict edge inside one class.
    """
    coloring = normalize_coloring(inst, classes)
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


def profile_of(inst: ConflictInstance, classes: Sequence[Iterable[int]]) -> Profile:
    """Profit profile (p_1(X_1), ..., p_k(X_k)) of a valid coloring."""
    validate_coloring(inst, classes)
    coloring = normalize_coloring(inst, classes)
    return tuple(sum(inst.profits[j][v] for v in cls) for j, cls in enumerate(coloring))


@dataclass(frozen=True)
class Component:
    """One connected component as an induced sub-instance.

    to_parent[i] is the original id of the sub-instance's vertex i.
    """

    vertices: tuple[int, ...]
    instance: ConflictInstance
    to_parent: tuple[int, ...]

    def to_sub(self) -> dict[int, int]:
        return {orig: i for i, orig in enumerate(self.to_parent)}


def connected_components(inst: ConflictInstance) -> list[Component]:
    """Split into connected components, smallest original vertex first."""
    adj = inst.adjacency()
    seen = [False] * inst.n
    comps: list[Component] = []
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
        members.sort()
        index = {orig: i for i, orig in enumerate(members)}
        sub_edges = [
            (index[u], index[v]) for u, v in inst.edges if u in index and v in index
        ]
        sub = ConflictInstance.build(
            n=len(members),
            k=inst.k,
            edges=sub_edges,
            profits=[[inst.profits[j][v] for v in members] for j in range(inst.k)],
        )
        comps.append(Component(vertices=tuple(members), instance=sub, to_parent=tuple(members)))
    return comps


def parse_instance(text: str) -> ConflictInstance:
    """Parse the instance file format.

    Format (UTF-8 text, one record per line):
      c <comment>                          -- anywhere
      p fkd <n> <m> <k>                    -- exactly once, first record
      w <j> <p_j(v_1)> ... <p_j(v_n)>      -- k lines, j = 1..k in order
      e <u> <v>                            -- m lines, 1-based endpoints
    """
    header: tuple[int, int, int] | None = None
    profits: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    edge_set: set[tuple[int, int]] = set()

    def ints(parts: list[str], lineno: int) -> list[int]:
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise InstanceFormatError(f"expected integers, got {' '.join(parts)}", lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if header is not None:
                raise InstanceFormatError("duplicate header line", lineno)
            if len(parts) != 5 or parts[1] != "fkd":
                raise InstanceFormatError("header must be 'p fkd <n> <m> <k>'", lineno)
            n, m, k = ints(parts[2:], lineno)
            if n < 0 or m < 0 or k < 1:
                raise InstanceFormatError("header counts out of range", lineno)
            header = (n, m, k)
        elif tag == "w":
            if header is None:
                raise InstanceFormatError("weight line before header", lineno)
            n, m, k = header
            values = ints(parts[1:], lineno)
            if not values or values[0] != len(profits) + 1:
                raise InstanceFormatError(
                    f"expected weight line for agent {len(profits) + 1}", lineno
                )
            row = values[1:]
            if len(row) != n:
                raise InstanceFormatError(
                    f"agent {values[0]} has {len(row)} profits, expected {n}", lineno
                )
            if any(p < 0 for p in row):
                raise InstanceFormatError("negative profit", lineno)
            if len(profits) >= k:
                raise InstanceFormatError("more weight lines than agents", lineno)
            profits.append(tuple(row))
        elif tag == "e":
            if header is None:
                raise InstanceFormatError("edge line before header", lineno)
            n, m, k = header
            if len(profits) != k:
                raise InstanceFormatError("edge line before all weight lines", lineno)
            endpoints = ints(parts[1:], lineno)
            if len(endpoints) != 2:
                raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
            u, v = endpoints
            if u == v:
                raise InstanceFormatError(f"self-loop at vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(f"edge ({u},{v}) out of range", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in edge_set:
                raise InstanceFormatError(f"duplicate edge ({u},{v})", lineno)
            edge_set.add(key)
            edges.append(key)
        else:
            raise InstanceFormatError(f"unknown record '{tag}'", lineno)

    if header is None:
        raise InstanceFormatError("missing header line")
    n, m, k = header
    if n == 0 and not profits:
        profits = [()] * k
    if len(profits) != k:
        raise InstanceFormatError(f"expected {k} weight lines, found {len(profits)}")
    if len(edges) != m:
        raise InstanceFormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return ConflictInstance.build(n=n, k=k, edges=edges, profits=profits)
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


@dataclass
class SolveResult:
    """Solver output in the shape of the JSON result schema."""

    optimum: int
    profile: Profile
    method: str
    witness: Coloring | None = None
    stats: dict = field(default_factory=dict)

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

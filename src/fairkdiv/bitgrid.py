"""Profile sets held as grid bits: the form of unpruned tables on small boxes.

Every profile of an instance lies in the box [0, T_1] x ... x [0, T_k] of
the agents' total profits.  A Grid numbers its points in mixed radix,
pos(q) = sum_j q_j * stride_j where stride_j is the product of T_i + 1 over
i > j, and a set is one int whose bit pos(q) marks q, so ascending bits are
lexicographic order.  A vector sum A + B is the OR of B shifted left by
pos(a) for each member a of A, one big-int shift per member instead of one
code per pair: the word-RAM subset-sum of Pisinger ("Dynamic programming on
the word RAM", Algorithmica 2003).  pos is linear, so pos(a) + pos(b) =
pos(a + b), but it is one-to-one only on the box.  The mixed radix still
cannot carry into a wrong point, because every profile a DP stores, every
sum included, is the profile of a coloring of some of the items and so lies
in the box.  Grid.table makes a node's cells in the loop that finds its
largest for the cap check, each a grid-backed ProfileSet whose size is
its popcount, taken once, so a cell costs no call.  profiles.profile_grid
imports this module only when it returns a grid, so a pruned run never
compiles it.
"""
from __future__ import annotations

from itertools import compress
from operator import mul
from typing import Hashable, Iterable, Iterator, Sequence

from .model import Profile
from .profiles import FIELD_BITS, ProfileSet, Step, Table, check_cap, decode

# maps the digits of bin() to the selectors of compress()
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_positions(bits: int) -> list[int]:
    """The positions of the set bits of a nonnegative int, ascending.

    A sparse int is scanned from one set bit to the next, a dense one in
    one pass.
    """
    text = bin(bits)[:1:-1]  # text[i] is bit i
    if bits.bit_count() * 8 >= len(text):
        return list(compress(range(len(text)), text.encode().translate(_BIT_BYTES)))
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def _sum_bits(positions: list[int], bits: int) -> int:
    """The grid form of a vector sum: bits shifted to each of positions, ORed."""
    acc = 0
    for pos in positions:
        acc |= bits << pos
    return acc


class Grid:
    """The box [0, T_1] x ... x [0, T_k] of profiles, one bit per point.

    radices[j] = T_j + 1, and strides[j] is the product of the radices
    after j: the profile q sits at bit pos(q) = sum_j q_j * strides[j].
    """

    __slots__ = ("arity", "radices", "strides", "_shifts")

    def __init__(self, totals: Sequence[int]):
        self.arity = len(totals)
        self.radices = tuple(t + 1 for t in totals)
        strides = [1]
        for radix in reversed(self.radices[1:]):
            strides.append(strides[-1] * radix)
        self.strides = tuple(reversed(strides))
        self._shifts: dict[int, int] = {}  # code offset -> bit shift

    def shift(self, offset: int) -> int:
        """The left shift that adds the profile whose code is offset.

        Each distinct offset is converted once.
        """
        shift = self._shifts.get(offset)
        if shift is None:
            shift = self._shifts[offset] = sum(map(mul, decode(offset, self.arity), self.strides))
        return shift

    def columns(self, bits: int) -> list[list[int]]:
        """Each coordinate of the members that bits marks, members ascending."""
        rest = _bit_positions(bits)
        columns = []
        for stride in self.strides[:-1]:
            columns.append([pos // stride for pos in rest])
            rest = [pos % stride for pos in rest]
        columns.append(rest)
        return columns

    def codes(self, bits: int) -> list[int]:
        """The codes of the members that bits marks, ascending."""
        codes, *others = self.columns(bits)
        for column in others:
            codes = [(code << FIELD_BITS) | x for code, x in zip(codes, column)]
        return codes

    def profile_set(self, bits: int) -> ProfileSet:
        """The set of the points that bits marks (not checked)."""
        pset = _GridProfileSet.__new__(_GridProfileSet)
        pset.arity = self.arity
        pset.grid = self
        pset.bits = bits
        pset.size = bits.bit_count()
        return pset

    def table(self, steps: Iterable[Step], child_tables: list[Table], cap: int | None) -> Table:
        """profiles.build_table on grid bits: an offset is a shift, a sum a shift-OR per member.

        A binary step shifts the operand with more members to each member of
        the other (a cell's members are listed once per call) and then shifts
        the OR left by the step's offset.  The cells are made in one loop,
        as profile_set makes them, and the largest is checked against the
        cap.
        """
        shift = self.shift
        raw: dict[Hashable, int] = {}
        if not child_tables:
            for key, _, offset, _ in steps:
                raw[key] = raw.get(key, 0) | 1 << shift(offset)
        elif len(child_tables) == 1:
            (child,) = child_tables
            for key, (child_key,), offset, _ in steps:
                bits = child[child_key].bits
                raw[key] = raw.get(key, 0) | (bits << shift(offset) if offset else bits)
        else:
            left, right = child_tables
            members: dict[int, list[int]] = {}  # id(cell) -> its bit positions
            for key, (key1, key2), offset, _ in steps:
                small, large = left[key1], right[key2]
                if small.size > large.size:
                    small, large = large, small
                positions = members.get(id(small))
                if positions is None:
                    positions = members[id(small)] = _bit_positions(small.bits)
                bits = _sum_bits(positions, large.bits)
                raw[key] = raw.get(key, 0) | (bits << shift(offset) if offset else bits)
        table: Table = {}
        largest = 0
        for key, bits in raw.items():
            cell = table[key] = _GridProfileSet.__new__(_GridProfileSet)
            cell.arity, cell.grid, cell.bits, cell.size = self.arity, self, bits, bits.bit_count()
            largest = cell.size if cell.size > largest else largest
        check_cap(largest, cap)
        return table


class _GridProfileSet(ProfileSet):
    """A ProfileSet held on `grid` as the int `bits` (see the module docstring).

    Its size is a popcount, taken once, and its sorted forms walk the bits
    upwards; `in`, `==` and hash read `codes`, which it decodes when they
    are first read, and keeps.  Only this class has __getattr__, which
    would slow every attribute read of a code-backed set.
    """

    __slots__ = ("grid", "bits", "size")

    def __getattr__(self, name: str):
        # called only for the unset slot `codes`
        if name != "codes":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        codes = self.codes = frozenset(self.grid.codes(self.bits))
        return codes

    def __iter__(self) -> Iterator[Profile]:
        return iter(self.sorted_profiles())

    def __len__(self) -> int:
        return self.size

    def sorted_profiles(self) -> list[Profile]:
        return list(zip(*self.grid.columns(self.bits)))

    def dump(self) -> str:
        line = " ".join(["{}"] * self.arity)
        return "\n".join(map(line.format, *self.grid.columns(self.bits)))

"""Recognition of convex bipartite graphs.

A bipartite graph G = (A ∪ B, E) is convex if A can be ordered so that every
B-vertex's neighborhood is an interval of consecutive A-vertices.  Finding
such an order is the consecutive-ones problem on the B-neighborhoods.  This
module holds the test, the ordering record, its validation and its file
format; it needs none of the solvers, so recognizing a graph loads no
profile code.
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence

from .model import ConflictInstance


class OrderingError(ValueError):
    """The graph or a proposed ordering is not convex bipartite."""


class ConvexOrdering(NamedTuple):
    """A bipartition with an A-order under which B-neighborhoods are intervals.

    intervals maps each non-isolated B-vertex to (lo, hi), the 1-based
    positions in a_order of its first and last neighbor.
    """

    a_order: tuple[int, ...]
    b_vertices: tuple[int, ...]
    intervals: dict[int, tuple[int, int]]


def validate_convex_ordering(
    inst: ConflictInstance,
    a_order: Sequence[int],
    b_vertices: Iterable[int],
) -> ConvexOrdering:
    """Check a bipartition and A-order, computing per-B interval endpoints."""
    a_list, b_list = tuple(a_order), tuple(b_vertices)
    a_set, b_set = frozenset(a_list), frozenset(b_list)
    everything = frozenset(range(inst.n))
    outside = (a_set | b_set) - everything
    if outside:
        bad = next(v for v in a_list + b_list if v in outside)
        raise OrderingError(f"vertex {bad + 1} out of range 1..{inst.n}")
    if len(a_set) != len(a_list):
        raise OrderingError(f"A-order repeats vertex {_first_repeat(a_list) + 1}")
    if len(b_set) != len(b_list):
        raise OrderingError(f"B side repeats vertex {_first_repeat(b_list) + 1}")
    if a_set & b_set:
        overlap = min(a_set & b_set)
        raise OrderingError(f"vertex {overlap + 1} on both sides of the bipartition")
    if a_set | b_set != everything:
        missing = min(everything - (a_set | b_set))
        raise OrderingError(f"vertex {missing + 1} is on neither side")
    # every vertex is on exactly one side now: 1-based A-position, 0 on B
    pos = [0] * inst.n
    for i, a in enumerate(a_list, 1):
        pos[a] = i
    for u, v in inst.edges:
        if (pos[u] > 0) == (pos[v] > 0):
            side = "A" if pos[u] else "B"
            raise OrderingError(f"edge ({u + 1},{v + 1}) inside the {side} side")
    adj = inst.adjacency()
    intervals: dict[int, tuple[int, int]] = {}
    b_sorted = sorted(b_list)
    for b in b_sorted:
        neighbors = adj[b]
        if not neighbors:
            continue
        positions = list(map(pos.__getitem__, neighbors))
        lo, hi = min(positions), max(positions)
        # the positions are distinct, so they fill [lo, hi] iff there are hi - lo + 1
        if hi - lo + 1 != len(positions):
            have = set(positions)
            gap = next(p for p in range(lo, hi + 1) if p not in have)
            raise OrderingError(
                f"neighborhood of vertex {b + 1} is not an interval: "
                f"gap at position {gap} between positions {lo} and {hi}"
            )
        intervals[b] = (lo, hi)
    return ConvexOrdering(a_order=a_list, b_vertices=tuple(b_sorted), intervals=intervals)


def _first_repeat(ids: Sequence[int]) -> int | None:
    """The first id that an earlier position of ids already holds."""
    seen: set[int] = set()
    for v in ids:
        if v in seen:
            return v
        seen.add(v)
    return None


def parse_ordering_file(text: str, inst: ConflictInstance) -> ConvexOrdering:
    """Ordering file: line `A: <ids...>` (in order) and line `B: <ids...>`."""
    ids: dict[str, list[int]] = {}  # "A:" or "B:" -> 0-based ids
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        side = line[:2]
        if side not in ("A:", "B:"):
            raise OrderingError(f"line {lineno}: unexpected ordering line: {line!r}")
        if side in ids:
            raise OrderingError(f"line {lineno}: second '{side}' line")
        try:
            ids[side] = [int(x) - 1 for x in line[2:].split()]
        except ValueError:
            raise OrderingError(f"line {lineno}: expected integers, got {line[2:].strip()}")
    if len(ids) != 2:
        raise OrderingError("ordering file needs one 'A:' and one 'B:' line")
    return validate_convex_ordering(inst, ids["A:"], ids["B:"])


def ordering_file_text(ordering: ConvexOrdering) -> str:
    a_line = "A: " + " ".join(str(a + 1) for a in ordering.a_order)
    b_line = "B: " + " ".join(str(b + 1) for b in ordering.b_vertices)
    return a_line + "\n" + b_line + "\n"


class _Arrangement:
    """The overlap components of the rows added so far, each with its classes in order.

    Rows are sets of columns, added largest first.  Two rows overlap if they
    intersect and neither contains the other.  A component's class is a
    maximal set of its union's columns lying in the same of its rows; in
    every order that makes the rows consecutive the classes are consecutive
    and appear in one order or its reverse.  The unions of the components
    nest, and a component lies inside one class of the smallest component
    around it: that class is its parent, or -1 when no component contains
    it.  A column is an own column of the innermost class holding it.

    Per column: cls[x], the class x is an own column of, or -1.  Per class:
    own[k] counts its own columns, nested[k] counts the components whose
    parent it is, nb[k] holds its two neighbors in its component's list (-1
    past an end; the list has no direction, so joining two lists never turns
    one around), and comp[k] names its component through the union-find
    links up.  Per component: its parent, the size of its union, and the two
    end classes of its list.  While add runs, row holds the row, labels its
    columns' classes in the same order, and counts how many own columns of
    each class it holds.
    """

    def __init__(self, columns: Iterable[int]):
        self.cls = dict.fromkeys(columns, -1)
        self.row: frozenset[int] = frozenset()
        self.labels: list[int] = []
        self.counts: dict[int, int] = {}
        self.own: list[int] = []
        self.nested: list[int] = []
        self.nb: list[list[int]] = []
        self.comp: list[int] = []
        self.up: list[int] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self.ends: list[list[int]] = []

    def _find(self, c: int) -> int:
        up = self.up
        root = c
        while up[root] != root:
            root = up[root]
        while up[c] != root:
            up[c], c = root, up[c]
        return root

    def _new_class(self, comp: int, own: int) -> int:
        k = len(self.own)
        self.own.append(own)
        self.nested.append(0)
        self.nb.append([-1, -1])
        self.comp.append(comp)
        return k

    def add(self, row: frozenset[int]) -> bool:
        """Add a row no larger than any added before; False if no order fits them all.

        The row's work is linear in its size, plus a heap step for each
        class it meets and each component that merges into another.
        """
        cls = self.cls
        labels = list(map(cls.__getitem__, row))
        self.row, self.labels = row, labels
        if len(set(labels)) == 1:
            # among one class's own columns: a new one-class component there
            outer, n = labels[0], len(labels)
            c = len(self.up)
            k = self._new_class(c, n)
            self.up.append(c)
            self.parent.append(outer)
            self.size.append(n)
            self.ends.append([k, k])
            for x in row:
                cls[x] = k
            if outer >= 0:
                self.own[outer] -= n
                self.nested[outer] += 1
            return True

        counts = self.counts = {}
        for k in labels:
            counts[k] = counts.get(k, 0) + 1
        walked = self._walk()
        if walked is None:
            return False
        top, tops, visited, inside = walked
        if top not in counts and len(tops) == 1:
            return self._inside(tops[0], visited, inside)
        # the row leaves each top component at one end
        opens: dict[int, int] = {}
        for h in tops:
            end = self._end_run(visited[h])
            if end is None or not self._split_chain((h, *end), visited, inside, opens):
                return False
        self._join(top, tops, opens)
        return True

    def _full(self, k: int) -> bool:
        """Whether class k lies in the row, with no component in it."""
        return self.own[k] == self.counts.get(k, 0) and not self.nested[k]

    def _covers(self, vis: set[int], ends: Iterable[int]) -> bool:
        """Whether every class of vis but those of ends (a subset) is full.

        A class never holds fewer own columns than the row holds of it, so
        the sums agree exactly when every class does.
        """
        own, nested, counts = self.own, self.nested, self.counts
        spare = sum(map(own.__getitem__, vis)) - sum(map(counts.get, vis, repeat(0)))
        held = sum(map(nested.__getitem__, vis))
        for k in ends:
            spare -= own[k] - counts.get(k, 0)
            held -= nested[k]
        return not spare and not held

    def _walk(self):
        """The components a row overlaps, found by walking up from the classes it meets.

        The walk goes innermost component first, until one class holds the
        whole row (-1 when none does); every component left on the way
        overlaps the row.  Returns (that class, the overlapped components
        directly inside it, visited: component -> its classes met, inside:
        class -> the overlapped components directly inside it), or None if
        some class holds two of them, or the top class more than two.
        """
        comp, parent, size, find = self.comp, self.parent, self.size, self._find
        counts = self.counts
        at_root = -1 in counts
        # group the classes met by component, with one find per distinct link
        met = counts.keys() - {-1}
        roots = {}
        for c in set(map(comp.__getitem__, met)):
            roots[c] = find(c)
        visited: dict[int, set[int]] = {}
        if len(set(roots.values())) == 1:
            h = roots.popitem()[1]
            visited[h] = met
            # the row meets one component h: the walk would stop at the
            # class around h, unless the row has columns in no class and
            # that class is not the root
            if parent[h] < 0 or not at_root:
                return parent[h], [h], visited, {}
        else:
            for k in met:
                c = comp[k] = roots[comp[k]]
                if c in visited:
                    visited[c].add(k)
                else:
                    visited[c] = {k}
        heap: list[tuple[int, int]] = []

        def reach(k: int) -> None:
            c = find(comp[k])
            if c in visited:
                visited[c].add(k)
            else:
                visited[c] = {k}
                heappush(heap, (size[c], -c))

        for c in visited:
            # of two components with equal unions, the inner one is newer
            heappush(heap, (size[c], -c))
        inside: dict[int, list[int]] = {}
        while heap:
            c = -heap[0][1]
            if len(heap) == 1 and not at_root and len(visited[c]) == 1:
                break
            heappop(heap)
            p = parent[c]
            inside.setdefault(p, []).append(c)
            if p < 0:
                at_root = True
            else:
                reach(p)
        top = next(iter(visited[-heap[0][1]])) if heap else -1
        tops = inside.pop(top, [])
        if len(tops) > 2 or any(len(held) > 1 for held in inside.values()):
            return None
        return top, tops, visited, inside

    def _inside(self, h: int, visited: dict[int, set[int]], inside: dict[int, list[int]]) -> bool:
        """Add a row that lies inside component h and meets its classes visited[h].

        The classes must form a run whose inner classes the row covers:
        those hold no component, and their own columns are all the row's.
        The run's two end classes may split, and so may the components in
        them that the row partly covers (the walk's inside).
        """
        vis = visited[h]
        run = self._run(vis)
        if run is None:
            return False
        lx, lb, rx, rb = run
        if not self._covers(vis, {lx, rx}):
            return False
        opens: dict[int, int] = {}
        return (
            self._split_chain((h, rx, rb, -2), visited, inside, opens)
            and self._split_chain((h, lx, lb, -2), visited, inside, opens)
        )

    def _split_chain(self, step, visited, inside, opens) -> bool:
        """Split the class where the row ends, and the nested components it partly covers.

        step is (component, class, its out-side neighbor, open end), the
        open end as _end_run gives it, or -2 when not needed.  The row must
        leave each nested component it partly covers at one end; they are
        split innermost first, and each is put in its place in the class
        around it.  opens receives each one's open end.
        """
        plan = [step]
        while plan[-1][1] in inside:
            d = inside[plan[-1][1]][0]
            end = self._end_run(visited[d])
            if end is None:
                return False
            plan.append((d, *end))
        d = -1
        for h, k, out_nb, open_end in reversed(plan):
            inner = self._split(h, k, out_nb, d, opens)
            if open_end != -2:
                opens[h] = inner if open_end < 0 else open_end
            d = h
        return True

    def _run(self, vis: set[int]) -> tuple[int, int, int, int] | None:
        """The classes vis as one run of their list: (end, beyond it, other end, beyond that).

        None if they do not form a run.  A run of one class has the same
        class at both ends.
        """
        nb = self.nb
        v = next(iter(vis))
        w0, w1 = nb[v]
        count = 1
        lx, lb = v, w0
        while lb >= 0 and lb in vis:
            a, b = nb[lb]
            lx, lb = lb, (b if a == lx else a)
            count += 1
        rx, rb = v, w1
        while rb >= 0 and rb in vis:
            a, b = nb[rb]
            rx, rb = rb, (b if a == rx else a)
            count += 1
        return (lx, lb, rx, rb) if count == len(vis) else None

    def _end_run(self, vis: set[int]) -> tuple[int, int, int] | None:
        """For a row leaving a component at one end: (split class, its out-side neighbor, open end).

        The classes vis must be a run at an end of the list, all full but
        the inner end, which may split.  Open end -1 means the split class
        is itself at the end, so the open end is known after the split.
        """
        run = self._run(vis)
        if run is None:
            return None
        lx, lb, rx, rb = run
        if lx == rx:
            if lb >= 0 and rb >= 0:
                return None
            return lx, (rb if lb < 0 else lb), -1
        if lb < 0 and (rb >= 0 or self._full(lx)):
            open_end, split, out_nb = lx, rx, rb
        elif rb < 0:
            open_end, split, out_nb = rx, lx, lb
        else:
            return None
        if not self._covers(vis, (split,)):
            return None
        return split, out_nb, open_end

    def _join(self, top: int, tops: list[int], opens: dict[int, int]) -> None:
        """Make one component, in class top, of the tops and the row's own columns of top.

        The row leaves each top component at its open end.  The joint list
        is the first top, then a new class of the row's own columns of top
        (if any), then the second top (if any).  The largest top goes on as
        the joint component, so most classes keep a direct link to it.
        """
        size, up, loose = self.size, self.up, self.counts.get(top, 0)
        c = max(tops, key=size.__getitem__)
        size[c] = sum(map(size.__getitem__, tops)) + loose
        closed, link = [], []
        for h in tops:
            e0, e1 = self.ends[h]
            o = opens[h]
            closed.append(e1 if e0 == o else e0)
            link.append(o)
            up[h] = c
        if loose:
            m = self._new_class(c, loose)
            self._relabel(top, m)
            link.insert(1, m)
            if len(tops) == 1:
                closed.append(m)
        for a, b in zip(link, link[1:]):
            self._fill(a, b)
            self._fill(b, a)
        self.ends[c] = closed
        if top >= 0:
            self.own[top] -= loose
            self.nested[top] += 1 - len(tops)

    def _fill(self, k: int, neighbor: int) -> None:
        """Link k, at an end of its list (a -1 slot), to neighbor."""
        slots = self.nb[k]
        slots[slots.index(-1)] = neighbor

    def _relabel(self, old: int, new: int) -> None:
        """Move the row's own columns of class old to class new."""
        cls = self.cls
        for x in compress(self.row, map(old.__eq__, self.labels)):
            cls[x] = new

    def _split(self, h: int, k: int, out_nb: int, d: int, opens: dict[int, int]) -> int:
        """Split class k of component h where the row ends; return the class on the row's side.

        out_nb is k's neighbor away from the row.  From the side away from
        the row, k becomes: its
        own columns outside the row with the components it keeps, then
        component d (the one the row partly covers, -1 if none) with its
        open end opens[d] inward, then k's own columns in the row.  Empty
        parts are left out, and d joins h.
        """
        own, nested, nb, ends = self.own, self.nested, self.nb, self.ends
        a, b = nb[k]
        in_nb = b if a == out_nb else a
        n_in = self.counts.get(k, 0)
        out_own = own[k] - n_in
        if d < 0:
            if not out_own and not nested[k]:
                return k
            # k keeps what lies outside the row; a new class m between k
            # and in_nb takes the row's columns
            own[k] = out_own
            m = self._new_class(h, n_in)
            self._relabel(k, m)
            nb[m] = [k, in_nb]
            slots = nb[k]
            slots[slots.index(in_nb)] = m
            slots = nb[in_nb] if in_nb >= 0 else ends[h]
            slots[slots.index(k)] = m
            return m
        out_nested = nested[k] - 1
        has_out = out_own > 0 or out_nested > 0
        segments: list[tuple[int, int]] = []  # (end, end) of each part, from the out side
        nb[k] = [-1, -1]
        if has_out:
            own[k], nested[k] = out_own, out_nested
            segments.append((k, k))
        e0, e1 = ends[d]
        o = opens[d]
        segments.append((e1 if e0 == o else e0, o))
        self.up[d] = h
        if n_in:
            if has_out:
                m = self._new_class(h, n_in)
                self._relabel(k, m)
            else:
                m = k
                nested[k] = 0
            segments.append((m, m))
        first, last = segments[0][0], segments[-1][1]
        if out_nb >= 0:
            slots = nb[out_nb]
            slots[slots.index(k)] = first
            self._fill(first, out_nb)
        for (_, x), (y, _) in zip(segments, segments[1:]):
            self._fill(x, y)
            self._fill(y, x)
        if in_nb >= 0:
            slots = nb[in_nb]
            slots[slots.index(k)] = last
            self._fill(last, in_nb)
        e = ends[h]
        if out_nb < 0 and in_nb < 0:
            e[:] = [first, last]
        elif out_nb < 0:
            e[e.index(k)] = first
        elif in_nb < 0:
            e[e.index(k)] = last
        return last

    def order(self, columns: list[int]) -> list[int]:
        """The order of the columns that consecutive_ones_order returns.

        A class's own columns have the same rows, so they are one group,
        listed sorted; the groups are numbered by least column, so a node's
        least column stands for its least group.  Each class holds the
        components nested directly in it and its group, in any order; the
        first order sorts those members by the least column each can start
        with and turns every component so that its end with the smaller
        such column comes first.  The columns in no row come last, sorted.
        """
        cls, up, nb, size, parent = self.cls, self.up, self.nb, self.size, self.parent
        group: dict[int, list[int]] = {}  # class -> its own columns
        for c in columns:
            group.setdefault(cls[c], []).append(c)
        free = sorted(group.pop(-1, []))
        # a node is (least column it can start with, id): a component id, or
        # -1 - k for the group of class k
        held: dict[int, list[tuple[int, int]]] = {}
        for k, cols in group.items():
            cols.sort()
            held[k] = [(cols[0], -1 - k)]
        emitted: dict[int, list[list[tuple[int, int]]]] = {}
        # inner components first: a nested one is smaller, or as large and newer
        live = [c for c in range(len(up)) if up[c] == c]
        live.sort(key=lambda c: (size[c], -c))
        for c in live:
            slots = []
            prev, cur = -1, self.ends[c][0]
            while cur >= 0:
                nodes = held[cur]
                nodes.sort()
                slots.append(nodes)
                a, b = nb[cur]
                prev, cur = cur, (b if a == prev else a)
            start, end = slots[0][0][0], slots[-1][0][0]
            emitted[c] = slots[::-1] if end < start else slots
            held.setdefault(parent[c], []).append((min(start, end), c))

        order: list[int] = []
        stack = sorted(held.get(-1, []), reverse=True)
        while stack:
            _, node = stack.pop()
            if node < 0:
                order.extend(group[-1 - node])
            else:
                for nodes in reversed(emitted[node]):
                    stack.extend(reversed(nodes))
        order.extend(free)
        return order


def consecutive_ones_order(
    columns: Sequence[int],
    rows: Iterable[Iterable[int]],
) -> list[int] | None:
    """Order the columns so every row becomes consecutive, or return None.

    Columns with identical row membership form a group, and groups are
    numbered by their least column.  The result is the lexicographically
    first sequence of group numbers under which every row is consecutive,
    with each group's columns sorted, followed by the columns in no row,
    sorted.

    The test is polynomial and iterative.  It follows the overlap-component
    form of the PQ-tree (Hsu, "A simple test for the consecutive ones
    property", J. Algorithms 2002; McConnell, "A certifying algorithm for the
    consecutive-ones property", SODA 2004): each overlap component fixes the
    order of its classes up to reversal, and the components nest.  Rows are
    added largest first, so a row overlaps an earlier row iff it meets it
    and is not inside it; each row finds the components it overlaps by
    walking up from the classes of its own columns (see _Arrangement.add).
    A row's work is bounded by its own size, never by the number of rows it
    meets: for N the total size of the distinct rows and C the number of
    columns, the test takes O(N + C) dict, set and list steps plus a heap
    step for each class a row meets, O((N + C) log N) in all.
    """
    columns = list(columns)
    col_set = set(columns)
    distinct: dict[frozenset[int], None] = {}
    for row in rows:
        members = row if isinstance(row, frozenset) else frozenset(row)
        if members and members not in distinct:
            if not members <= col_set:
                raise ValueError("row mentions a column outside the universe")
            distinct[members] = None
    return _arrange(columns, distinct)


def _arrange(columns: list[int], rows: Iterable[frozenset[int]]) -> list[int] | None:
    """consecutive_ones_order on distinct nonempty rows within the columns."""
    arrangement = _Arrangement(columns)
    for row in sorted(rows, key=len, reverse=True):
        if not arrangement.add(row):
            return None
    return arrangement.order(columns)


def find_convex_ordering(inst: ConflictInstance) -> ConvexOrdering | None:
    """Find an A-order witnessing convexity, or return None.

    Each connected component is 2-colored in one search.  The side holding
    the component's least vertex is tried as A first, then the other side.
    Raises OrderingError on non-bipartite input.
    """
    adj = inst.adjacency()
    color = [-1] * inst.n
    a_order: list[int] = []
    b_side_all: list[int] = []
    for start in range(inst.n):
        if color[start] >= 0:
            continue
        # start is the component's least vertex; its side gets color 0
        color[start] = 0
        comp = [start]
        for v in comp:
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    comp.append(w)
                elif color[w] == color[v]:
                    raise OrderingError("graph is not bipartite: odd cycle found")
        if len(comp) == 1:
            a_order.append(start)
            continue
        comp.sort()
        first = [v for v in comp if not color[v]]
        second = [v for v in comp if color[v]]
        for a_side, b_side in ((first, second), (second, first)):
            order = _arrange(a_side, dict.fromkeys(map(adj.__getitem__, b_side)))
            if order is not None:
                a_order.extend(order)
                b_side_all.extend(b_side)
                break
        else:
            return None
    return validate_convex_ordering(inst, a_order, b_side_all)

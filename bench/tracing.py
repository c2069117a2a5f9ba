"""Per-layer tracing from outside the package.

The tracer wraps the package's public functions at the module attribute
their caller looks up (``treeindep.tin_dp_node`` is looked up by
``treeindep._run_tables``, ``profiles.dominance_prune`` by
``profiles.best_profile``, and so on), records one span per call in memory,
and restores every attribute on exit.  A span's self time is its duration
minus its wrapped children's durations and minus the tracer's own
bookkeeping inside it, so the layers' self times add up to the traced time
of the library call; what no named layer claims is reported as
``trace.other.ms``.  Work counts are read from the wrapped calls' arguments
and results.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from fairkdiv import approx, cliquewidth, convex, model, profiles, treeindep


@dataclass
class Span:
    metric: str | None  # the per-layer time metric the span's self time goes to
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a library call
    hidden: float = 0.0  # tracer bookkeeping inside this span


def _peak(counts: Counter, sets) -> None:
    counts["dp.peak_set"] = max(counts["dp.peak_set"], max(map(len, sets), default=0))


def _count_tin_node(counts: Counter, args, table) -> None:
    node, children = args[0], args[1]
    if node.kind == "join":
        first, second = children
        counts["treeindep.dp.join.pairs"] += sum(
            len(s) * len(second[key]) for key, s in first.items() if key in second
        )
        counts["treeindep.dp.join.out"] += sum(map(len, table.values()))
    _peak(counts, table.values())


def _count_cw_node(counts: Counter, args, table) -> None:
    node, children = args[0], args[1]
    if isinstance(node, cliquewidth.UnionNode):
        left, right = children
        counts["cliquewidth.dp.union.pairs"] += sum(map(len, left.values())) * sum(
            map(len, right.values())
        )
        counts["cliquewidth.dp.union.out"] += sum(map(len, table.values()))
    _peak(counts, table.values())


def _count_merge(counts: Counter, args, result) -> None:
    counts["profiles.merge_profile_sets.pairs"] += len(args[0]) * len(args[1])
    counts["profiles.merge_profile_sets.out"] += len(result)
    _peak(counts, [result])


def _count_prune(counts: Counter, args, result) -> None:
    counts["profiles.dominance_prune.in"] += len(args[0])
    counts["profiles.dominance_prune.out"] += len(result)


def _count_recognition(counts: Counter, args, result) -> None:
    counts["convex.find_convex_ordering.calls"] += 1


def _tin_metric(args) -> str | None:
    kind = args[0].kind
    return None if kind == "leaf" else f"treeindep.dp.{kind}.ms"


_CW_KINDS = {
    cliquewidth.UnionNode: "cliquewidth.dp.union.ms",
    cliquewidth.EtaNode: "cliquewidth.dp.eta.ms",
    cliquewidth.RhoNode: "cliquewidth.dp.rho.ms",
}


def _cw_metric(args) -> str | None:
    return _CW_KINDS.get(type(args[0]))


Metric = str | None | Callable[[tuple], str | None]
Count = Callable[[Counter, tuple, Any], None] | None

# (module, attribute, time metric, counter): one entry per caller's lookup
TARGETS: list[tuple[Any, str, Metric, Count]] = [
    (model, "parse_instance", "model.parse_instance.ms", None),
    (model, "validate_coloring", "model.validate_coloring.ms", None),
    (profiles, "dominance_prune", "profiles.dominance_prune.ms", _count_prune),
    (treeindep, "solve_tin", "treeindep.extract.self_ms", None),
    (treeindep, "validate_td", "treeindep.validate_td.ms", None),
    (treeindep, "make_nice", "treeindep.make_nice.ms", None),
    (treeindep, "tin_dp_node", _tin_metric, _count_tin_node),
    (treeindep, "dominance_prune", "profiles.dominance_prune.ms", _count_prune),
    (treeindep, "best_profile", "profiles.best_profile.ms", None),
    (treeindep, "validate_coloring", "model.validate_coloring.ms", None),
    (cliquewidth, "parse_k_expression", "cliquewidth.parse_k_expression.ms", None),
    (cliquewidth, "cliquewidth_profile_set", "cliquewidth.profile_set.self_ms", None),
    (cliquewidth, "check_expression_matches", "cliquewidth.check_expression_matches.ms", None),
    (cliquewidth, "dp_node", _cw_metric, _count_cw_node),
    (cliquewidth, "dominance_prune", "profiles.dominance_prune.ms", _count_prune),
    (cliquewidth, "best_profile", "profiles.best_profile.ms", None),
    (cliquewidth, "validate_coloring", "model.validate_coloring.ms", None),
    (convex, "find_convex_ordering", "convex.find_convex_ordering.ms", _count_recognition),
    (convex, "solve_convex", "convex.solve_convex.self_ms", None),
    (convex, "merge_profile_sets", "profiles.merge_profile_sets.ms", _count_merge),
    (convex, "dominance_prune", "profiles.dominance_prune.ms", _count_prune),
    (convex, "best_profile", "profiles.best_profile.ms", None),
    (convex, "validate_coloring", "model.validate_coloring.ms", None),
    (approx, "fptas", "approx.fptas.self_ms", None),
]

TIME_METRICS = sorted({m for _, _, m, _ in TARGETS if isinstance(m, str)} | set(_CW_KINDS.values()) | {
    f"treeindep.dp.{kind}.ms" for kind in ("join", "introduce", "forget")
})


class Tracer:
    """Spans and counts of one traced pass; install() wraps, and always unwraps."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, metric: Metric, count: Count) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            parent = stack[-1] if stack else -1
            span = Span(metric(args) if callable(metric) else metric, 0.0, 0.0, parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            if parent >= 0:
                spans[parent].hidden += (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for module, attr, metric, count in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, metric, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, fn: Callable, *args):
        """Run one library call as a root span (its self time counts as other)."""
        return self._wrap(fn, None, None)(*args)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (ms, summed over the pass) and work counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        lib_ms = 0.0
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            if span.parent < 0:
                lib_ms += duration * 1000.0
            if span.metric is not None:
                out[span.metric] += (duration - children - span.hidden) * 1000.0
        c = self.counts
        out.update(
            {
                "trace.lib_ms": lib_ms,
                "trace.other.ms": lib_ms - sum(out[name] for name in TIME_METRICS),
                "treeindep.dp.join.pairs": c["treeindep.dp.join.pairs"],
                "treeindep.dp.join.useful_ratio": _ratio(
                    c["treeindep.dp.join.out"], c["treeindep.dp.join.pairs"]
                ),
                "cliquewidth.dp.union.pairs": c["cliquewidth.dp.union.pairs"],
                "cliquewidth.dp.union.useful_ratio": _ratio(
                    c["cliquewidth.dp.union.out"], c["cliquewidth.dp.union.pairs"]
                ),
                "profiles.merge_profile_sets.pairs": c["profiles.merge_profile_sets.pairs"],
                "profiles.merge_profile_sets.useful_ratio": _ratio(
                    c["profiles.merge_profile_sets.out"], c["profiles.merge_profile_sets.pairs"]
                ),
                "profiles.dominance_prune.in": c["profiles.dominance_prune.in"],
                "profiles.dominance_prune.kept_ratio": _ratio(
                    c["profiles.dominance_prune.out"], c["profiles.dominance_prune.in"]
                ),
                "convex.find_convex_ordering.calls": c["convex.find_convex_ordering.calls"],
                "dp.peak_set": c["dp.peak_set"],
            }
        )
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

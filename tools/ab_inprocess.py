"""Interleaved A/B timing of one bench workload's library call, two trees in one process.

Usage, from anywhere:

    python3 tools/ab_inprocess.py PARENT_TREE CHANGED_TREE --workload cw-profiles \\
        --seed 1 --rounds 8

Each tree is a checkout root (it holds ``src/fairkdiv`` and ``bench/``).  Its
package is imported under a name of its own (``fairkdiv_a``, ``fairkdiv_b``),
and its ``bench/workloads.py`` and ``bench/gen.py`` are loaded bound to that
package, so each side runs its own tree's ``call`` for the workload.  Both
sides generate the workload's pool (instance ``i`` from generator seed
``1000 * seed + i``, as the bench does) and must write the same files.  One
untimed pass then checks that the two sides give equal outputs and counters
on every instance.  In each round the instances are timed one by one, A and
B back to back, with the order flipped every round; the process time of each
call is summed per side.  The report gives each side's mean time per call
and the ratio B / A, overall and per round.

It sizes a change quickly, with the machine's drift shared by both sides.
It is not the bench protocol: a claim still needs the alternating
``bench/run.py`` pairs that ROADMAP.md describes.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType


def _load(name: str, path: Path, package_dir: Path | None = None) -> ModuleType:
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(package_dir)] if package_dir else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(tree: Path, tag: str) -> ModuleType:
    """The tree's bench/workloads.py, with its package imported as fairkdiv_<tag>.

    While workloads.py and gen.py load, the plain names fairkdiv, fairkdiv.*
    and gen stand for this tree's modules; they are removed afterwards, so
    the next tree loads its own.
    """
    src = tree / "src" / "fairkdiv"
    if not (src / "__init__.py").is_file() or not (tree / "bench" / "workloads.py").is_file():
        raise SystemExit(f"error: {tree} has no src/fairkdiv or bench/workloads.py")
    name = f"fairkdiv_{tag}"
    package = _load(name, src / "__init__.py", src)
    aliases = {"fairkdiv": package}
    for path in sorted(src.glob("*.py")):
        if not path.stem.startswith("_"):
            aliases[f"fairkdiv.{path.stem}"] = importlib.import_module(f"{name}.{path.stem}")
    sys.modules.update(aliases)
    try:
        aliases["gen"] = _load(f"gen_{tag}", tree / "bench" / "gen.py")
        sys.modules["gen"] = aliases["gen"]
        return _load(f"workloads_{tag}", tree / "bench" / "workloads.py")
    finally:
        for alias in aliases:
            sys.modules.pop(alias, None)


def canonical(value):
    """A form of an output that compares equal across the two trees' classes."""
    if hasattr(value, "dump"):
        return ("set", value.dump())
    if isinstance(value, (set, frozenset)):
        return sorted(map(canonical, value))
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {key: canonical(v) for key, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path, help="the parent checkout")
    parser.add_argument("tree_b", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--instances", type=int, default=0, help="first N pool instances (0: all)")
    args = parser.parse_args(argv)

    sides = [load_workloads(args.tree_a.resolve(), "a"), load_workloads(args.tree_b.resolve(), "b")]
    workloads = [side.WORKLOADS.get(args.workload) for side in sides]
    if None in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    size = args.instances or workloads[0].pool
    seeds = [1000 * args.seed + i for i in range(size)]
    pools = [[w.make(s) for s in seeds] for w in workloads]
    if pools[0] != pools[1]:
        raise SystemExit("error: the two trees generate different pools")
    calls = [w.call for w in workloads]
    for i, files in enumerate(pools[0]):
        outputs = [canonical(call(files)) for call in calls]
        if outputs[0] != outputs[1]:
            raise SystemExit(f"error: outputs differ on pool instance {i}")
    print(f"{args.workload}: {size} instances, outputs and counters equal")

    gc.collect()
    gc.freeze()
    clock = time.process_time
    totals = [0.0, 0.0]
    ratios = []
    for r in range(args.rounds):
        spent = [0.0, 0.0]
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for files in pools[0]:
            for side in order:
                start = clock()
                calls[side](files)
                spent[side] += clock() - start
        ratios.append(spent[1] / spent[0])
        totals = [t + s for t, s in zip(totals, spent)]
        print(f"round {r}: A {spent[0] / size * 1e3:.3f} ms  B {spent[1] / size * 1e3:.3f} ms"
              f"  B/A {ratios[-1]:.3f}")
    calls_made = size * args.rounds
    print(f"mean per call: A {totals[0] / calls_made * 1e3:.3f} ms, "
          f"B {totals[1] / calls_made * 1e3:.3f} ms")
    print(f"B/A {totals[1] / totals[0]:.3f} (rounds {min(ratios):.3f}-{max(ratios):.3f}, "
          f"median {statistics.median(ratios):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the fairkdiv CLI and library on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tin-solve --seed 1 --seconds 30 --trace 0

One run generates a seeded pool of instances, then measures a closed loop
with one client for ``--seconds``.  It alternates in-process library calls
with one CLI run (a child ``python -m fairkdiv.cli`` with ``src`` on the
path, spawned by ``spawner.py``); the CLI runs get two thirds of the loop's
time.  Both walk the pool in order, so every CLI output is compared with
the library output on the same instance; an instance's files are written
under ``.bench_work/`` before its first CLI run.  Every output is checked;
a failed check or a nonzero exit counts as a failed operation.  Set-up
(generate the pool, then one warm-up: the workload's canary through the CLI
and the library) is repeated and its median reported.  The canary (n <= 9)
is checked against the brute-force oracle.  A fixed speed probe runs
between the timed operations, and every reported time is scaled by it to a
reference speed of the machine (see ``harness.speed_scale``); the report
also gives the wall times as measured.

With ``--trace 1`` a traced library pass over the first pool instances
follows, and the per-layer metrics replace the end-to-end ones in the JSON
line.  The last line of standard output is that JSON object; the lines above
it are a readable report.  The exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairkdiv" / "cli.py").is_file():
        print(f"error: fairkdiv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    lines, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line, file=sys.stderr if line.startswith("FAILED") else sys.stdout)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

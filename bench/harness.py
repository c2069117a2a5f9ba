"""One benchmark run: set-up, the measured loop, checks and metrics (see run.py)."""
from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracing import Tracer
from workloads import CheckFailed, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Seconds the spawner gets to finish its child and exit before it is killed.
SPAWNER_EXIT_TIMEOUT = 120
# Set-up probes the speed after every this many pool instances it generates.
SETUP_PROBE_EVERY = 32
# Wall time of a round's library calls, as a share of the round's CLI run
# (each with its probes and checks).  A CLI run is longer and noisier than a
# library call, so the CLI gets two thirds of the loop and its median rests
# on more samples.
LIB_PER_CLI = 0.5
# The first pool instances, which every run times both ways and traces: a
# fixed set, so the per-layer numbers do not depend on how many operations
# fit into the run.
FIXED_PREFIX = 16
# The probe's time, in ms, at the reference speed every reported time is
# scaled to (see speed_scale): about its mean on the machine the figures in
# BENCHMARK.md come from, so scaled times read close to wall times there.
PROBE_REF_MS = 4.0


def _probe_kernel() -> int:
    """Fixed pure-Python work of the kind the solvers do: tuple keys, dicts, sets."""
    table: dict[tuple[int, int], int] = {}
    for i in range(8000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i
    seen = {(a + b, a * b % 29) for a in range(50) for b in range(50)}
    return len(table) + len(seen) + len(sorted(table.values()))


def probe() -> float:
    """Seconds the fixed probe kernel takes now: a sample of the machine's speed.

    The kernel runs once untimed first, so that what ran before it (a
    library call's heap, an idle wait for a CLI child) barely moves the
    timed run.
    """
    _probe_kernel()
    start = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - start


def speed_scale(probes: list[float]) -> float:
    """Factor that scales a time measured between these probes to reference speed.

    With load outside the machine, its speed switches between two levels
    (the probe takes about 2.3 or 4 ms) within a second, with stalls at
    times, and the share of time spent at each level drifts over minutes,
    which moves a 30 s median by up to a third and which no run length
    averages away.  So each timed operation is scaled by the mean of the
    probes just before and just after it, and the median is taken over the
    scaled operations: a stall that hits one operation or one probe moves
    one sample, not the median.  The probe does not touch the package, so a
    change to the package moves the scaled times and not the factor.
    """
    return PROBE_REF_MS / (statistics.fmean(probes) * 1000.0)


class Stopwatch:
    """Times a sequence of steps; lap() runs a probe between two steps, untimed."""

    def __init__(self) -> None:
        self.probes = [probe()]
        self.elapsed = 0.0
        self.start = time.perf_counter()

    def lap(self) -> None:
        self.elapsed += time.perf_counter() - self.start
        self.probes.append(probe())
        self.start = time.perf_counter()

    def stop(self) -> float:
        """The time of the steps, without the probes; ends with a probe."""
        self.lap()
        return self.elapsed


@dataclass
class Timed:
    """A timed loop operation: its wall time, and the index of the probe just before it."""

    seconds: float
    probe: int


@dataclass
class CliRun:
    seconds: float
    maxrss_kb: int
    code: int
    stdout: str
    stderr: str


class Spawner:
    """The small process that runs CLI children (see spawner.py); a context manager.

    On exit it closes the spawner's input and waits for it, so the child it
    may be running ends and is reaped first.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SPAWNER_EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run_cli(self, args: list[str], workdir: Path) -> CliRun:
        """Run one CLI child to completion; wall time from spawn to reaped exit."""
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        request = {
            "argv": [sys.executable, "-m", "fairkdiv.cli", *args],
            "cwd": str(workdir),
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return CliRun(
            reply["seconds"], reply["maxrss_kb"], reply["code"],
            out_path.read_text(), err_path.read_text(),
        )


def cli_env() -> dict:
    """The environment of CLI children: this one, with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_files(prefix: Path, files: dict[str, str]) -> None:
    for suffix, text in files.items():
        Path(str(prefix) + suffix).write_text(text)


def percentile_line(name: str, unit: str, values: list[float]) -> str:
    """Median plus the highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"  {name:<14} p50 {statistics.median(ordered):.4f} {unit}"
    if n > 10:
        line += f", p{(n - 10) * 100 // n} {ordered[n - 11]:.4f} {unit}"
    return line + f" (n={n})"


class Run:
    """One benchmark run of one workload; collects timings and failures."""

    def __init__(self, workload: Workload, seed: int, spawner: Spawner):
        self.w = workload
        self.seed = seed
        self.workdir = WORK / workload.name
        self.spawner = spawner
        self.failures: list[str] = []
        self.attempted = 0
        self.pool: list[tuple[str, dict[str, str]]] = []
        self.written: set[int] = set()  # pool indices whose files are on disk
        self.canary: tuple[dict[str, str], CliRun] | None = None
        self.setup_times: list[float] = []  # wall times
        self.setup_scaled: list[float] = []  # each scaled by its own probes
        self.setup_probes: list[float] = []
        # every probe of the loop, in order; a Timed points at the one before it
        self.loop_probes: list[float] = []
        # pool index -> (output, counters, time) of its first timed library call
        self.lib_first: dict[int, tuple[Any, dict[str, int], Timed]] = {}
        self.lib_times: list[Timed] = []
        self.cli_times: list[Timed] = []
        self.cli_rss_kb: list[int] = []
        # (CLI run, library call) on the same instance
        self.overhead: list[tuple[Timed, Timed]] = []

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failures.append(f"{what}: {exc}")

    def setup(self) -> None:
        """Generate the pool and warm up, probing the speed between steps.

        A pool instance's files are written when the CLI first needs them
        (cli_call), outside set-up and timing: creating some 500 small files
        took 0.1-0.3 s, as much as the rest of set-up and far noisier.
        """
        w = self.w
        clock = Stopwatch()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.pool = []
        self.written = set()
        for i in range(w.pool):
            if i and i % SETUP_PROBE_EVERY == 0:
                clock.lap()
            self.pool.append((str(self.workdir / f"i{i:04d}"), w.make(instance_seed(self.seed, i))))
        canary = w.make_canary(instance_seed(self.seed, 999))
        prefix = self.workdir / "canary"
        write_files(prefix, canary)
        clock.lap()
        run = self.spawner.run_cli(w.argv(str(prefix)), self.workdir)
        clock.lap()
        w.call(canary)
        elapsed = clock.stop()
        self.setup_times.append(elapsed)
        self.setup_scaled.append(elapsed * speed_scale(clock.probes))
        self.setup_probes += clock.probes
        self.canary = (canary, run)

    def check_canary(self) -> None:
        files, run = self.canary
        self.attempted += 1
        if run.code != 0:
            self.fail("canary", f"exit {run.code}: {run.stderr.strip()}")
            return
        try:
            self.w.check_canary(files, run.stdout)
        except CheckFailed as exc:
            self.fail("canary", exc)

    def library_call(self, index: int) -> None:
        """One timed library call on a pool instance, checked."""
        files = self.pool[index][1]
        gc.collect()
        self.loop_probes.append(probe())
        self.attempted += 1
        start = time.perf_counter()
        try:
            output, counts = self.w.call(files)
            elapsed = time.perf_counter() - start
            self.w.check_output(files, output)
        except Exception as exc:  # any library error is a failed operation
            self.fail(f"library call on instance {index}", exc)
            return
        timed = Timed(elapsed, len(self.loop_probes) - 1)
        self.lib_times.append(timed)
        self.lib_first.setdefault(index, (output, counts, timed))

    def cli_call(self, index: int) -> None:
        """One timed CLI run on a pool instance, checked against the library output."""
        prefix, files = self.pool[index]
        if index not in self.written:
            write_files(Path(prefix), files)
            self.written.add(index)
        self.loop_probes.append(probe())
        run = self.spawner.run_cli(self.w.argv(prefix), self.workdir)
        self.attempted += 1
        timed = Timed(run.seconds, len(self.loop_probes) - 1)
        self.cli_times.append(timed)
        self.cli_rss_kb.append(run.maxrss_kb)
        try:
            if run.code != 0:
                raise CheckFailed(f"exit {run.code}: {run.stderr.strip()}")
            if index in self.lib_first:
                output, _, lib_timed = self.lib_first[index]
                self.overhead.append((timed, lib_timed))
            else:  # its timed library call failed; recompute for the check
                output, _ = self.w.call(files)
            self.w.check_cli(files, run.stdout, output)
        except Exception as exc:  # a wrong or missing output is a failed operation
            self.fail(f"CLI on instance {index}", exc)

    def loop(self, until: float) -> None:
        """Alternate CLI runs with library calls, until the deadline.

        Each round's library calls, with their probes and checks, take
        LIB_PER_CLI times as long as the previous CLI run with its probe and
        check.  Interleaving spreads both kinds of operation over
        the whole window, so a slow stretch of the machine affects both
        alike.  The library
        cursor stays ahead of the CLI cursor, so every CLI output is checked
        against the library output for the same instance.
        """
        size = len(self.pool)
        lib_next = cli_next = 0
        cli_round = 0.0
        while True:
            lib_until = time.perf_counter() + cli_round * LIB_PER_CLI
            while time.perf_counter() < lib_until or lib_next <= cli_next:
                self.library_call(lib_next % size)
                lib_next += 1
            start = time.perf_counter()
            self.cli_call(cli_next % size)
            cli_round = time.perf_counter() - start
            cli_next += 1
            if time.perf_counter() >= until and cli_next >= FIXED_PREFIX:
                self.loop_probes.append(probe())  # the last operation's "after"
                return

    def scaled(self, timed: Timed) -> float:
        """An operation's seconds at reference speed, from the probes around it."""
        return timed.seconds * speed_scale(self.loop_probes[timed.probe:timed.probe + 2])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics; times are scaled to reference speed."""
        cli = [self.scaled(t) for t in self.cli_times]
        lib = [self.scaled(t) for t in self.lib_times]
        return {
            "cli_ms_p50": (statistics.median(cli) * 1000.0, "ms"),
            "lib_ms_p50": (statistics.median(lib) * 1000.0, "ms"),
            "ops_per_s": (len(cli) / sum(cli), "1/s"),
            "peak_rss_mb": (statistics.median(self.cli_rss_kb) / 1024.0, "MB"),
            "setup_s": (statistics.median(self.setup_scaled), "s"),
        }

    def traced_pass(self) -> dict[str, tuple[float, str]]:
        tracer = Tracer()
        traced = []
        probes = []
        with tracer.install():
            for index in range(FIXED_PREFIX):
                gc.collect()
                probes.append(probe())
                traced.append(tracer.call(self.w.call, self.pool[index][1]))
        work: dict[str, int] = {}
        untraced_ms = 0.0
        for index, (output, counts) in enumerate(traced):
            self.attempted += 1
            try:
                self.w.check_output(self.pool[index][1], output)
                if index not in self.lib_first:
                    raise CheckFailed("no untraced library call to compare with")
                _, untraced_counts, timed = self.lib_first[index]
                untraced_ms += self.scaled(timed) * 1000.0
                if counts != untraced_counts:
                    raise CheckFailed(f"traced counters {counts} != untraced {untraced_counts}")
            except Exception as exc:  # a wrong output or counter is a failed operation
                self.fail(f"traced call on instance {index}", exc)
            for name, value in counts.items():
                work[name] = work.get(name, 0) + value
        # times scaled to reference speed, by the pass's mean probe: a layer's
        # time is a sum over the whole pass, not one operation
        trace_scale = speed_scale(probes)
        layers = {
            name: value * trace_scale if name.endswith("ms") else value
            for name, value in tracer.layer_metrics().items()
        }
        layers["trace.overhead_frac"] = layers["trace.lib_ms"] / untraced_ms - 1.0 if untraced_ms else 0.0
        overhead = [self.scaled(cli) - self.scaled(lib) for cli, lib in self.overhead]
        layers["cli.overhead_ms"] = statistics.median(overhead) * 1000.0 if overhead else 0.0
        layers.update(work)
        return {name: (value, layer_unit(name)) for name, value in sorted(layers.items())}


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ratio") or name.endswith("frac"):
        return "ratio"
    return "count"


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Run the benchmark once; return the report lines and the result object."""
    with Spawner(cli_env()) as spawner:
        run = Run(workload, seed, spawner)
        for _ in range(SETUP_REPEATS):
            run.setup()
        run.check_canary()
        # Set-up's objects (the pool, the modules) outlive the loop: frozen,
        # the collection before each library call and the collections inside
        # it no longer scan them, which took about 8 ms a call.
        gc.collect()
        gc.freeze()
        try:
            run.loop(time.perf_counter() + seconds)
        finally:
            gc.unfreeze()
    e2e = run.end_to_end()
    layers = run.traced_pass() if trace else {}
    failed = len(run.failures)
    probes = run.loop_probes
    loop_factors = [speed_scale(probes[i:i + 2]) for i in range(len(probes) - 1)]
    setup_factors = [a / b for a, b in zip(run.setup_scaled, run.setup_times)]
    lines = [
        f"workload {workload.name} seed {seed}: {len(run.lib_times)} library calls, "
        f"{len(run.cli_times)} CLI runs, {failed} of {run.attempted} operations failed",
        "  wall times as measured, before scaling to reference speed:",
        percentile_line("cli_ms", "ms", [t.seconds * 1000.0 for t in run.cli_times]),
        percentile_line("lib_ms", "ms", [t.seconds * 1000.0 for t in run.lib_times]),
        percentile_line("setup_s", "s", run.setup_times),
        percentile_line("probe_ms", "ms", [t * 1000.0 for t in run.loop_probes]),
        f"  speed scale (probe reference {PROBE_REF_MS} ms over the probes around each "
        f"operation), median: loop {statistics.median(loop_factors):.4f}, "
        f"set-up {statistics.median(setup_factors):.4f}",
        "  metrics, times scaled to reference speed:",
    ]
    lines += [f"  {name:<14} {value:.4f} {unit}" for name, (value, unit) in e2e.items()]
    lines.append(f"  {'failed_frac':<14} {failed / run.attempted:.4f} ratio")
    lines += [f"  {name:<42} {value:.4f} {unit}" for name, (value, unit) in layers.items()]
    lines += [f"FAILED {line}" for line in run.failures[:10]]
    metrics = layers if trace else e2e
    result = {
        "correct": not failed,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result

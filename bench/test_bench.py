"""Tests of the benchmark itself: exact work counters, tracer hygiene, seeding.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import gen  # noqa: E402
from fairkdiv.cliquewidth import parse_k_expression  # noqa: E402
from fairkdiv.model import parse_instance  # noqa: E402
from harness import Spawner, cli_env, measure  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (11, 12)
# the count each workload must drive above zero, so the comparison means something
EXERCISED = {
    "tin-solve": "treeindep.dp.join.pairs",
    "cw-profiles": "cliquewidth.dp.union.pairs",
    "approx-convex": "profiles.merge_profile_sets.pairs",
    "convex-recognize": "convex.find_convex_ordering.calls",
}
PAIRS = ("treeindep.dp.join.pairs", "cliquewidth.dp.union.pairs", "profiles.merge_profile_sets.pairs")


def _traced(workload, pool):
    tracer = Tracer()
    with tracer.install():
        counts = [tracer.call(workload.call, files)[1] for files in pool]
    return tracer.layer_metrics(), counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counters_repeat_exactly(name):
    workload = WORKLOADS[name]
    pool = [workload.make(seed) for seed in SEEDS]
    untraced = [workload.call(files)[1] for files in pool]
    first, first_counts = _traced(workload, pool)
    second, second_counts = _traced(workload, pool)
    assert first_counts == untraced == second_counts
    for key in PAIRS + ("dp.peak_set", "profiles.dominance_prune.in"):
        assert first[key] == second[key], key
    assert first[EXERCISED[name]] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_named_layers_account_for_traced_time(name):
    metrics, _ = _traced(WORKLOADS[name], [WORKLOADS[name].make(seed) for seed in SEEDS])
    assert all(v >= 0.0 for k, v in metrics.items() if k.endswith("ms")), metrics
    assert metrics["trace.other.ms"] < 0.25 * metrics["trace.lib_ms"]


def test_no_wrapper_left_installed():
    originals = {(module.__name__, attr): getattr(module, attr) for module, attr, _, _ in TARGETS}
    workload = WORKLOADS["tin-solve"]
    _traced(workload, [workload.make_canary(SEEDS[0])])
    with pytest.raises(RuntimeError):
        with Tracer().install():
            raise RuntimeError("fails while traced")
    for module, attr, _, _ in TARGETS:
        assert getattr(module, attr) is originals[(module.__name__, attr)], attr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_bytes_and_not_shape(name):
    workload = WORKLOADS[name]
    a, again, held_out = workload.make(5), workload.make(5), workload.make(987654)
    assert a == again
    assert a != held_out
    assert a.keys() == held_out.keys()
    first, other = parse_instance(a[".fkd"]), parse_instance(held_out[".fkd"])
    assert (first.n, first.k) == (other.n, other.k)
    assert parse_instance(workload.make_canary(5)[".fkd"]).n <= 9


def test_expression_text_round_trips():
    expr = gen.random_k_expression(12, 3, seed=4)
    assert parse_k_expression(gen.expression_text(expr)) == expr


def test_run_reports_every_declared_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["cw-profiles"]
    _, plain = measure(workload, seed=3, seconds=0.5, trace=False)
    _, traced = measure(workload, seed=3, seconds=0.5, trace=True)
    assert plain["correct"] and traced["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert (traced["metrics"].get(m["name"]) or plain["metrics"][m["name"]])["unit"] == m["unit"]


def test_cli_peak_rss_is_the_childs_own(tmp_path):
    # a child's ru_maxrss starts from the peak of the process it was spawned
    # from; the spawner keeps the harness's memory out of it
    ballast = bytearray(64 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    with Spawner(cli_env()) as spawner:
        run = spawner.run_cli(["--help"], tmp_path)
    assert run.code == 0
    assert run.maxrss_kb < 48 * 1024
    assert spawner.proc.returncode == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tin-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

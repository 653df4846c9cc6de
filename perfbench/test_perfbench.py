"""Tests of the benchmark itself: metric names, correctness gates on tiny
runs, self-time arithmetic, and refusal to run without the library sources.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_library()

import calib  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Tracer, calls_under, outer_total, self_times, summarize  # noqa: E402
from workloads import (  # noqa: E402
    CHECKER_FUZZ_SCHEMA, WORKLOADS, BenchFailure, Checker, ContendedSmall, PointLarge,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def _small(name: str, seed: int):
    if name == "point-large":
        return PointLarge(seed, run.ROOT, rows=200)
    return WORKLOADS[name](seed, run.ROOT)


SMOKE_STEPS = {"point-large": 1, "contended-small": 3, "checker": 1}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_passes_every_gate(name):
    # traced() runs the gate twice and compares the untraced and traced
    # end states; any wrong output raises.
    result = run.traced(lambda: _small(name, 7), SMOKE_STEPS[name])
    assert result["attempted"] > 0
    assert [n for n in result["metrics"]] == [n for n, _ in PER_LAYER]
    assert result["metrics"]["engine.is_visible.calls"]["value"] > 0


def test_measured_run_prints_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    result = run.measure(ContendedSmall, 3, 0.3)
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_model_catches_a_wrong_answer():
    workload = PointLarge(5, run.ROOT, rows=100)
    workload.setup()
    victim = workload.model.keys["Artists"].items[0]
    workload.model.artists[victim][1] += 1
    with pytest.raises(BenchFailure):
        workload.gate()


def test_self_time_on_synthetic_span_tree():
    # root [0,10] > a [1,4] > g [2,3];  root > b [5,9];  root > c [8,9.5]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 9.5]
    parents = [-1, 0, 1, 0, 0]
    got = self_times(starts, ends, parents)
    # b and c overlap on [8,9]: root's children cover 3 + 4.5 of its 10.
    assert got == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_tracer_records_nesting_recursion_and_restores():
    box = types.SimpleNamespace()

    def depth(n):
        return 0 if n == 0 else 1 + box.depth(n - 1)

    def outer(n):
        return box.depth(n)

    box.depth, box.outer = depth, outer
    tracer = Tracer()
    tracer.wrap(box, "depth", "depth")
    tracer.wrap(box, "outer", "outer")
    tracer.set_request("req-1")
    assert box.outer(3) == 3
    tracer.uninstall()
    assert box.depth is depth and box.outer is outer
    stats = summarize(tracer)
    assert stats["depth"]["calls"] == 4 and stats["outer"]["calls"] == 1
    assert list(tracer.parent) == [-1, 0, 1, 2, 3]
    assert calls_under(tracer, "depth", "outer") == 4
    # The recursive calls are not counted twice in the total.
    assert outer_total(tracer, "depth") == pytest.approx(tracer.end[1] - tracer.start[1])
    total = sum(s["self_s"] for s in stats.values())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0])
    assert set(tracer.request_id) == {0} and tracer.requests == ["req-1"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "checker",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_checker_reads_every_listed_scenario():
    workload = Checker(1, run.ROOT)
    workload.setup()
    assert len(workload.scenarios) == 13


def test_checker_fuzz_schema_drops_only_the_stock_bound():
    from aqldb import schema as sch

    catalog = sch.parse_schema_text(CHECKER_FUZZ_SCHEMA)
    albums = catalog.table("Albums")
    assert sch.additive_bound(albums.column("Stock")) is None
    assert sch.additive_bound(catalog.table("Accounts").column("Balance")) is not None


def test_ref_clock_leaves_out_the_kernel_and_scales_by_it(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(calib.time, "perf_counter", lambda: now[0])

    def kernel():  # takes half the reference time: the machine is twice as fast
        now[0] += calib.KERNEL_REF_S / 2

    monkeypatch.setattr(calib, "kernel", kernel)
    clock = calib.RefClock()
    t0 = clock()
    clock.calibrate()
    assert clock() == pytest.approx(t0)
    now[0] += 1.0
    assert clock() - t0 == pytest.approx(2.0)
    clock.tick()  # EVERY_S has gone by: samples again, time stands still
    assert len(clock.samples) == 2 and clock() - t0 == pytest.approx(2.0)
    off = calib.RefClock(enabled=False)
    off.tick()
    assert off() == now[0] and off.samples == []

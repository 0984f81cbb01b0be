"""Tests of the benchmark's own helpers (no workload is run here)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog
from perfbench.common import (OpenLoopLog, faster_windows, hist_mean,
                              percentile, pooled_rate, run_open_loop,
                              samples_beyond, schedule, tail, upper_quartile,
                              valid_metric_name)
from perfbench.serving import pooled_batching, split_latency
from perfbench.tracing import Patcher, Span, Tracer, self_times, \
    union_length

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, None, "recipe", 0.0, 10.0, 1),
        Span(1, 0, "train", 1.0, 6.0, 1),
        Span(2, 1, "fft", 2.0, 3.0, 1),
        Span(3, 1, "fft", 4.0, 4.5, 1),
        Span(4, 0, "twopi", 7.0, 9.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 3.5, 2: 1.0, 3: 0.5, 4: 2.0}
    # Self times partition the top-level span.
    assert sum(selfs.values()) == 10.0


def test_tracer_nests_spans_per_thread_and_adds_up():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(1.0)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        clock.advance(2.0)
        traced_inner()
        traced_inner()
        clock.advance(0.5)

    tracer.wrap("outer", outer)()
    assert tracer.self_seconds() == {"outer": 2.5, "inner": 2.0}
    assert tracer.counters["inner.calls"] == 2
    import threading
    assert tracer.covered(threading.get_ident(), 0.0, 10.0) == 4.5


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    assert tracer.wrap("f", lambda: 7)() == 7
    assert tracer.spans == [] and not tracer.counters


def test_patcher_wraps_every_binding_and_restores():
    tracer = Tracer()
    home = types.ModuleType("repro_fake.home")
    user = types.ModuleType("repro_fake.user")

    def func(x):
        return x + 1

    home.func = func
    user.func = func  # as after ``from home import func``
    sys.modules["repro_fake.home"] = home
    sys.modules["repro_fake.user"] = user
    try:
        with Patcher(tracer) as patcher:
            patcher.function("repro_fake.home", "func", "fake")
            assert home.func is user.func is not func
            assert user.func(1) == 2
        assert home.func is func and user.func is func
        assert tracer.counters["fake.calls"] == 1
    finally:
        del sys.modules["repro_fake.home"], sys.modules["repro_fake.user"]


# ----------------------------------------------------------------------
# Percentiles: at least ten samples beyond
# ----------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99) == 5.0


@pytest.mark.parametrize("count, pct, beyond", [
    (1000, 99, 10), (999, 99, 9), (1100, 99, 11), (200, 95, 10),
    (199, 95, 9), (54, 80, 10), (0, 99, 0),
])
def test_samples_beyond(count, pct, beyond):
    assert samples_beyond(count, pct) == beyond


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(999)), 99) is None
    assert tail(list(range(1000)), 99) == 989


# ----------------------------------------------------------------------
# Open loop: timed from the due time, lateness kept apart
# ----------------------------------------------------------------------
def test_open_loop_times_from_due_and_records_lateness():
    clock = FakeClock()
    finishers = []

    def submit(index, finish):
        if index == 1:
            clock.advance(0.030)  # the generator stalls for 30 ms here
        finishers.append(finish)

    log = run_open_loop(100.0, schedule(100.0, 4), submit, clock=clock,
                        sleep=clock.advance)
    # Due at 0, 10, 20, 30 ms; request 1's submit stalls until 40 ms, so
    # 2 and 3 go out late, at 40 ms.
    assert log.late_ms() == pytest.approx([0.0, 0.0, 20.0, 10.0])
    clock.now = 0.050
    for finish in finishers:
        finish(True)
    # Every answer lands at 50 ms; latency counts from each due time.
    assert log.latencies_ms() == pytest.approx([50.0, 40.0, 30.0, 20.0])
    assert log.failed() == 0
    assert log.completion_rate() == pytest.approx(4 / 0.050)


def test_poisson_schedule_is_seeded_with_the_mean_rate():
    offsets = schedule(200.0, 4000, np.random.default_rng(3))
    assert offsets == schedule(200.0, 4000, np.random.default_rng(3))
    assert offsets[0] == 0.0 and offsets == sorted(offsets)
    assert offsets[-1] == pytest.approx(3999 / 200.0)
    assert schedule(100.0, 3) == [0.0, 0.01, 0.02]


def test_open_loop_counts_failures_and_missing_answers():
    log = OpenLoopLog(10.0, schedule(10.0, 3), start=0.0)
    log.record_done(0, 0.01, ok=True)
    log.record_done(1, 0.2, ok=False)
    assert log.failed() == 2  # one error, one never answered
    assert log.latencies_ms() == pytest.approx([10.0])


def test_pooled_rate_weighs_every_second_alike():
    fast = OpenLoopLog(100.0, schedule(100.0, 4), start=0.0)
    slow = OpenLoopLog(100.0, schedule(100.0, 2), start=5.0)
    for index in range(4):
        fast.record_done(index, 0.1 * (index + 1), ok=True)  # 10/s
    slow.record_done(0, 5.5, ok=True)
    slow.record_done(1, 6.0, ok=False)  # a failure is not an answer
    assert slow.completion_rate() == pytest.approx(2.0)
    # 5 answers over 0.4 + 0.5 s, not the mean of 10/s and 2/s.
    assert pooled_rate([fast, slow]) == pytest.approx(5 / 0.9)


def test_pooled_batching_is_rows_over_batches_of_all_steps():
    steps = [{"rows": 10, "batches": 5, "full_flushes": 1,
              "timer_flushes": 4},
             {"rows": 32, "batches": 1, "full_flushes": 1,
              "timer_flushes": 0}]
    assert pooled_batching(steps) == {"mean_batch": 7.0, "batches": 6,
                                      "full_flushes": 2, "timer_flushes": 4}


# ----------------------------------------------------------------------
# Steadiness on a shared host: faster windows, upper quartile
# ----------------------------------------------------------------------
def test_faster_windows_keeps_the_fastest_share_of_whole_windows():
    # Windows of 3: medians 10, 20 (a neighbour's load), 11, 30; the
    # trailing 2 values do not fill a window and are dropped.
    values = [10, 9, 12, 20, 21, 19, 11, 11, 50, 30, 30, 30, 1, 1]
    assert faster_windows(values, 3) == [10, 9, 12, 11, 11, 50]
    assert faster_windows(values, 3, share=0.25) == [10, 9, 12]
    assert faster_windows(values[:3], 3) == [10, 9, 12]


def test_upper_quartile_matches_statistics_quantiles():
    values = [1228.4, 1603.2, 1980.9, 1830.1, 1825.1, 1261.0, 1683.7]
    assert upper_quartile(values) == pytest.approx(1830.1)
    assert upper_quartile([5.0]) == 5.0


def test_split_latency_weights_batches_by_rows():
    log = OpenLoopLog(100.0, [0.0, 0.01, 0.02], start=10.0)
    for index, sent in enumerate([10.0, 10.011, 10.020]):
        log.record_sent(index, sent)
    for index, done in enumerate([10.016, 10.016, 10.026]):
        log.record_done(index, done, ok=True)
    # Requests 0 and 1 ride in one batch, request 2 in the next.
    spans = [Span(0, None, "serve.dispatch", 10.012, 10.0121, 1, 2.0),
             Span(1, None, "runtime.engine", 10.013, 10.015, 2, 2.0),
             Span(2, None, "serve.dispatch", 10.022, 10.0221, 1, 1.0),
             Span(3, None, "runtime.engine", 10.022, 10.025, 2, 1.0)]
    split = split_latency(log, spans)
    assert split["dispatch_rows"] == split["engine_rows"] == 3
    assert split["latency"] == pytest.approx(0.028)
    assert split["late"] == pytest.approx(0.001)
    assert split["batch_wait"] == pytest.approx(0.012 + 0.001 + 0.002)
    assert split["shard_queue"] == pytest.approx(0.002)
    assert split["engine"] == pytest.approx(0.004 + 0.003)
    assert split["unattributed"] == pytest.approx(0.003)
    parts = ("late", "batch_wait", "shard_queue", "engine", "unattributed")
    assert sum(split[part] for part in parts) == pytest.approx(
        split["latency"])


def test_hist_mean_pools_processes_between_scrapes():
    def scrape(count, total):
        family = "lat"
        return {family: {"samples": {"lat_count": count, "lat_sum": total}}}

    mean, count = hist_mean([scrape(1, 0.5), scrape(0, 0.0)],
                            [scrape(3, 1.5), scrape(2, 3.0)], "lat")
    assert count == 4 and mean == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Metric names and the benchmark description
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("serve.ladder.r300.p99_ms", True),
    ("backend.fft-calls", True), ("9lives", True), ("_hidden", False),
    ("a b", False), ("p99{kind}", False), ("", False), ("x" * 65, False),
])
def test_metric_name_validity(name, ok):
    assert valid_metric_name(name) is ok


def test_catalog_names_are_valid_and_unique():
    names = catalog.end_to_end_names() + catalog.per_layer_names() + [
        name for name, _ in catalog.WORKLOADS]
    assert all(valid_metric_name(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in catalog.end_to_end_names()
    assert set(catalog.TAIL_PCT) == {name for name, _ in catalog.WORKLOADS}
    assert catalog.REFERENCE_RATE in [rate for rate, _ in catalog.LADDER]


def test_every_layer_metric_names_what_it_should_move():
    workloads = {name for name, _ in catalog.WORKLOADS}
    for name in catalog.per_layer_names():
        assert any(name.startswith(prefix)
                   for prefix in catalog.LAYER_MOVES), name
    for moves in catalog.LAYER_MOVES.values():
        for metric, workload in moves:
            assert metric in catalog.end_to_end_names()
            assert workload in workloads


def test_benchmark_json_keys_and_bounds():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    ladder = [f"serve.ladder.r{rate}.{what}" for rate, _ in catalog.LADDER
              for what in ("mean_batch", "p99_ms", "answered_per_s")]
    assert set(ladder) <= set(catalog.per_layer_names())


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http_routed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""

"""``serve_open_loop``: the in-process Server under an open-loop ladder.

The default :class:`~repro.serve.ServeConfig` (what ``repro serve``
runs) over an n=40 artifact.  One generator thread calls
``Server.submit("predict", ...)`` on a fixed-rate schedule, stepping
through :data:`~perfbench.catalog.LADDER` and then alternating the
reference rate with an overload burst; every answer is compared
byte for byte with a serial ``engine.predict`` of the same sample.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from . import catalog
from .common import (Job, OpenLoopLog, Outcome, check_attribution,
                     hist_mean, median, note, peak_rss_mb_self, percentile,
                     pooled_rate, run_open_loop, schedule, scrape_delta, tail,
                     upper_quartile)
from .tracing import (COMPUTE_TARGETS, SERVE_TARGETS, Patcher, Span, Tracer,
                      compute_layers, install)

NAME = "serve_open_loop"
SETUP_REPEATS = 21
#: Distinct request samples (28x28 images in steps of 1/255).
POOL = 512
IMAGE = 28


def make_inputs(seed: int, count: int = POOL) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, IMAGE, IMAGE)) / 255.0


def build_artifact(path: Path, n: int, seed: int) -> Path:
    """A seeded, untrained DONN at the laptop geometry, saved in double."""
    from repro.donn import DONN, DONNConfig

    model = DONN(DONNConfig.laptop(n=n, phase_init="high"),
                 rng=np.random.default_rng(seed))
    return model.save(path, precision="double")


def serial_predictions(artifact: Path, inputs: np.ndarray) -> List[int]:
    """Labels from a serial ``engine.predict``, one sample per call."""
    from repro.utils import load_model

    engine = load_model(artifact).inference_engine(precision="double")
    return [int(engine.predict(sample[None])[0]) for sample in inputs]


def _start_server(job: Job, index: int):
    from repro.runtime.kernel_cache import clear_kernel_cache
    from repro.serve import ServeConfig, Server

    clear_kernel_cache()  # every start pays what a fresh process pays
    start = time.perf_counter()
    artifact = build_artifact(job.tmp / f"model-{index}.npz", 40, job.seed)
    server = Server(artifact=artifact, config=ServeConfig())
    server.start()
    server.warmup()
    return server, artifact, time.perf_counter() - start


class Ladder:
    """Runs ladder rates against one server and keeps per-rate results."""

    def __init__(self, server, inputs: np.ndarray, expected: List[bytes],
                 seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.server = server
        self.inputs = inputs
        self.expected = expected

    def step(self, rate: float, count: int) -> Dict[str, object]:
        from repro.obs import parse_prometheus
        from repro.serve import ServeError

        server, inputs, expected = self.server, self.inputs, self.expected
        answered = threading.Semaphore(0)
        submitted = 0

        def submit(index: int, finish) -> None:
            nonlocal submitted
            sample = index % len(inputs)
            submitted += 1
            try:
                future = server.submit("predict", inputs[sample])
            except ServeError:
                finish(False)
                answered.release()
                return

            def done(future, sample=sample) -> None:
                try:
                    ok = (np.asarray(future.result()).tobytes()
                          == expected[sample])
                except Exception:  # noqa: BLE001 — counted as failed
                    ok = False
                finish(ok)
                answered.release()

            future.add_done_callback(done)

        before = parse_prometheus(server.metrics_text())
        batcher_before = server.stats()["batcher"]
        start = time.perf_counter()
        offsets = schedule(rate, count, self.rng)
        log = run_open_loop(rate, offsets, submit)
        for _ in range(submitted):
            if not answered.acquire(timeout=120):
                break  # unanswered requests count as failed
        end = time.perf_counter()
        after = parse_prometheus(server.metrics_text())
        batcher_after = server.stats()["batcher"]
        rows = batcher_after["requests"] - batcher_before["requests"]
        batches = batcher_after["batches"] - batcher_before["batches"]
        return {"rate": rate, "log": log, "start": start, "end": end,
                "before": before, "after": after,
                "rows": rows, "batches": batches,
                "full_flushes": batcher_after["full_flushes"]
                - batcher_before["full_flushes"],
                "timer_flushes": batcher_after["timer_flushes"]
                - batcher_before["timer_flushes"]}


def meets_limit(steps: Sequence[Dict[str, object]]) -> bool:
    """A rate meets the limit: over all its steps, p99 within it, every
    request answered correctly, and answers keeping up with the
    schedule."""
    logs: List[OpenLoopLog] = [step["log"] for step in steps]
    p99 = tail([value for log in logs for value in log.latencies_ms()],
               99.0)
    return (p99 is not None and p99 <= catalog.LATENCY_LIMIT_MS
            and sum(log.failed() for log in logs) == 0
            and pooled_rate(logs) >= catalog.KEEP_UP * logs[0].rate)


def pooled_latencies(steps: Sequence[Dict[str, object]]) -> List[float]:
    return [value for step in steps for value in step["log"].latencies_ms()]


def pooled_batching(steps: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Batcher counts summed over ``steps``; the mean batch is rows over
    batches of them all."""
    rows = sum(step["rows"] for step in steps)
    batches = sum(step["batches"] for step in steps)
    return {"mean_batch": rows / batches if batches else 0.0,
            "batches": batches,
            "full_flushes": sum(step["full_flushes"] for step in steps),
            "timer_flushes": sum(step["timer_flushes"] for step in steps)}


def split_latency(log: OpenLoopLog, spans: Sequence[Span]
                  ) -> Dict[str, float]:
    """Split the summed latency of one ladder rate along each request's
    path, in seconds: generator lateness (due -> sent), batch wait (sent
    -> the micro-batcher hands the request's batch to the shard pool),
    shard queue (-> its engine call starts), engine (-> the call ends)
    and the rest (-> the answer reaches the caller), which no named layer
    explains.

    ``spans`` are the rate's ``serve.dispatch`` and ``runtime.engine``
    spans, each weighted by its rows.  Every request rides in exactly
    one batch, so a sum over requests of its batch's times is the
    row-weighted sum over batches; no request needs matching to its
    batch.  ``rows`` counts the rows of each layer, which must equal the
    requests for the split to hold.
    """
    base = log.start
    dispatch = [span for span in spans if span.name == "serve.dispatch"]
    engine = [span for span in spans if span.name == "runtime.engine"
              and span.parent is None]
    due = sum(log.offsets)
    sent = sum(when - base for when in log.sent if when is not None)
    done = sum(when - base for when in log.done if when is not None)
    dispatched = sum(span.weight * (span.start - base) for span in dispatch)
    started = sum(span.weight * (span.start - base) for span in engine)
    finished = sum(span.weight * (span.end - base) for span in engine)
    return {
        "requests": log.count,
        "answered": sum(1 for when in log.done if when is not None),
        "dispatch_rows": sum(span.weight for span in dispatch),
        "engine_rows": sum(span.weight for span in engine),
        "latency": done - due,
        "late": sent - due,
        "batch_wait": dispatched - sent,
        "shard_queue": started - dispatched,
        "engine": finished - started,
        "unattributed": done - finished,
    }


def _run_ladder(ladder: Ladder, job: Job) -> List[Dict[str, object]]:
    """The rates between the reference rate and the burst once, then
    rounds of the reference rate and an overload burst until
    ``--seconds`` are used up (at least :data:`~perfbench.catalog.ROUNDS`
    of them), so that both sample the whole run."""
    requests = dict(catalog.LADDER)
    rounds = (catalog.REFERENCE_RATE, catalog.BURST_RATE)
    steps = []
    begin = time.perf_counter()
    for rate, count in catalog.LADDER:
        if rate not in rounds:
            steps.append(ladder.step(rate, count))
    done = 0
    while done < catalog.ROUNDS or time.perf_counter() - begin < job.seconds:
        for rate in rounds:
            steps.append(ladder.step(rate, requests[rate]))
        done += 1
    for rate, _ in catalog.LADDER:
        _report_rate([step for step in steps if step["rate"] == rate])
    return steps


def _report_rate(steps: Sequence[Dict[str, object]]) -> None:
    logs = [step["log"] for step in steps]
    latencies = pooled_latencies(steps)
    p99 = tail(latencies, 99.0)
    note(f"  rate={logs[0].rate:g}/s steps={len(steps)} "
         f"requests={sum(log.count for log in logs)} "
         f"p50_ms={median(latencies) if latencies else float('nan'):.2f}"
         f" p99_ms={p99 if p99 is not None else float('nan'):.2f} "
         f"answered_per_s={pooled_rate(logs):.1f} "
         f"failed={sum(log.failed() for log in logs)} "
         f"mean_batch={pooled_batching(steps)['mean_batch']:.2f} "
         f"late_ms_max={max(max(log.late_ms()) for log in logs):.2f} "
         f"{'meets' if meets_limit(steps) else 'misses'} the limit")


def run(job: Job) -> Outcome:
    tracer = Tracer()
    tracer.enabled = job.trace
    note(f"{NAME}: default ServeConfig, n=40 artifact, ladder "
         f"{[rate for rate, _ in catalog.LADDER]} req/s, reference "
         f"{catalog.REFERENCE_RATE} req/s, p99 limit "
         f"{catalog.LATENCY_LIMIT_MS:g} ms")
    with Patcher(tracer) as patcher:
        if job.trace:
            install(patcher, COMPUTE_TARGETS + SERVE_TARGETS)
        setups, servers = [], []
        try:
            for index in range(SETUP_REPEATS):
                server, artifact, seconds = _start_server(job, index)
                setups.append(seconds)
                servers.append(server)
                if index < SETUP_REPEATS - 1:
                    server.stop()
            server = servers[-1]
            inputs = make_inputs(job.seed)
            tracer.enabled = False
            expected = [np.int64(label).tobytes()
                        for label in serial_predictions(artifact, inputs)]
            ladder = Ladder(server, inputs, expected, job.seed)
            ladder.step(catalog.REFERENCE_RATE, 200)  # warm the path
            baseline = None
            if job.trace:
                baseline = ladder.step(catalog.REFERENCE_RATE,
                                       catalog.BASELINE_REQUESTS)
                tracer.enabled = True
            setup_counters = dict(tracer.counters)
            traced_start = time.perf_counter()
            steps = _run_ladder(ladder, job)
            traced_end = time.perf_counter()
            tracer.enabled = False
        finally:
            for server in servers:
                server.stop()

    outcome = Outcome(attempted=0, failed=0)
    for step in steps:
        outcome.attempted += step["log"].count
        outcome.failed += step["log"].failed()
    outcome.check(outcome.failed == 0,
                  f"{outcome.failed} of {outcome.attempted} requests failed "
                  f"or differed from serial engine.predict")
    references = [step for step in steps
                  if step["rate"] == catalog.REFERENCE_RATE]
    latencies = pooled_latencies(references)
    pct = catalog.TAIL_PCT[NAME]
    tail_ms = tail(latencies, pct)
    outcome.check(tail_ms is not None,
                  f"too few samples for p{pct:g} at the reference rate")
    bursts = [step["log"].completion_rate() for step in steps
              if step["rate"] == catalog.BURST_RATE]
    capacity = upper_quartile(bursts)
    if capacity >= catalog.KEEP_UP * catalog.BURST_RATE:
        note(f"  the {catalog.BURST_RATE} req/s burst no longer overloads "
             f"the server, so throughput_per_s reads the burst rate, not "
             f"the capacity: raise the burst rate in catalog.LADDER")
    outcome.samples = len(latencies)
    outcome.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": capacity,
        "p50_ms": median(latencies),
        "tail_ms": tail_ms if tail_ms is not None
        else percentile(latencies, pct),
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss_mb_self(),
    }
    note(f"  reference rate: {len(latencies)} samples over "
         f"{len(references)} rounds; capacity {capacity:.1f} req/s (upper "
         f"quartile of {len(bursts)} bursts at {catalog.BURST_RATE} req/s, "
         f"which ranged {min(bursts):.0f} to {max(bursts):.0f})")
    if job.trace:
        outcome.layers = _layers(outcome, tracer, setup_counters, steps,
                                 baseline, traced_end - traced_start)
    return outcome


def _layers(outcome: Outcome, tracer: Tracer, setup_counters, steps,
            baseline, wall: float) -> Dict[str, float]:
    """Layer numbers of the traced ladder; engine builds happen in the
    (also traced) set-up, so ``runtime.engine_build_s`` covers the
    set-up starts instead.  A rate run in several steps reports them
    pooled."""
    from repro.runtime.kernel_cache import cache_info

    ladder = [span for span in tracer.spans if span.start >= steps[0]["start"]]
    counts = {name: value - setup_counters.get(name, 0.0)
              for name, value in tracer.counters.items()}
    layers = compute_layers(tracer.self_seconds(ladder), counts, wall)
    layers["runtime.engine_build_s"] = tracer.self_seconds().get(
        "runtime.engine_build", 0.0)
    cache = cache_info()
    layers["runtime.kernel_cache_hits"] = cache["hits"]
    layers["runtime.kernel_cache_misses"] = cache["misses"]

    # Each step's summed latency, split along the request path; the
    # named layers must explain all but the slack of it.
    unattributed = 0.0
    for step in steps:
        spans = [span for span in ladder
                 if step["start"] <= span.start <= step["end"]]
        split = step["split"] = split_latency(step["log"], spans)
        what = f"rate {step['rate']}/s"
        outcome.check(
            split["answered"] == split["dispatch_rows"]
            == split["engine_rows"] == split["requests"],
            f"{what}: {split['requests']} requests, {split['answered']} "
            f"answered, {split['dispatch_rows']:g} rows dispatched, "
            f"{split['engine_rows']:g} rows through the engine")
        check_attribution(outcome, split["unattributed"], split["latency"],
                          catalog.UNATTRIBUTED_SLACK,
                          f"{what}, summed request latency")
        unattributed += split["unattributed"]

    by_rate = {rate: [step for step in steps if step["rate"] == rate]
               for rate, _ in catalog.LADDER}
    for rate, group in by_rate.items():
        parts = {key: sum(step["split"][key] for step in group)
                 for key in ("requests", "latency", "late", "batch_wait",
                             "shard_queue", "engine", "unattributed")}
        count = parts["requests"]
        note(f"  rate={rate}/s mean latency "
             f"{parts['latency'] / count * 1e3:.3f} ms = late "
             f"{parts['late'] / count * 1e3:.3f} + batch wait "
             f"{parts['batch_wait'] / count * 1e3:.3f} + shard queue "
             f"{parts['shard_queue'] / count * 1e3:.3f} + engine "
             f"{parts['engine'] / count * 1e3:.3f} + unattributed "
             f"{parts['unattributed'] / count * 1e3:.3f}")
        prefix = f"serve.ladder.r{rate}"
        layers[f"{prefix}.mean_batch"] = pooled_batching(group)["mean_batch"]
        layers[f"{prefix}.p99_ms"] = percentile(pooled_latencies(group), 99.0)
        layers[f"{prefix}.answered_per_s"] = pooled_rate(
            [step["log"] for step in group])
        if rate == catalog.REFERENCE_RATE:
            reference = parts

    references = by_rate[catalog.REFERENCE_RATE]
    before, after = steps[0]["before"], steps[-1]["after"]
    scrapes = ([step["before"] for step in references],
               [step["after"] for step in references])
    server_s, _ = hist_mean(*scrapes, "repro_server_request_latency_seconds")
    flush_s, _ = hist_mean(*scrapes, "repro_batcher_flush_latency_seconds")
    batching = pooled_batching(references)
    layers.update({
        "serve.batching.mean_batch": batching["mean_batch"],
        "serve.batching.batches": batching["batches"],
        "serve.batching.full_flushes": batching["full_flushes"],
        "serve.batching.timer_flushes": batching["timer_flushes"],
        "serve.batching.flush_latency_ms": flush_s * 1e3,
        "serve.server.admitted": scrape_delta(
            before, after, "repro_server_requests_total"),
        "serve.server.rejected": scrape_delta(
            before, after, "repro_server_admission_rejects_total"),
        "serve.server.latency_mean_ms": server_s * 1e3,
        "serve.workers.dispatched": scrape_delta(
            before, after, "repro_pool_dispatched_total"),
        "serve.workers.retries": scrape_delta(
            before, after, "repro_pool_retries_total"),
        "serve.workers.failures": scrape_delta(
            before, after, "repro_pool_failures_total"),
        "serve.wait_ms": (reference["batch_wait"] + reference["shard_queue"])
        / reference["requests"] * 1e3,
        "loadgen.late_ms_max": max(max(step["log"].late_ms())
                                   for step in references),
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
    })
    # Overhead: the reference rate's summed latency, traced minus the
    # untraced baseline scaled to the same request count.
    base_ms = baseline["log"].latencies_ms()
    layers["trace.overhead_s"] = (
        reference["latency"]
        - reference["requests"] * (sum(base_ms) / len(base_ms)) / 1e3)
    return layers

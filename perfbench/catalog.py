"""What the benchmark measures: workloads, metrics and how they relate.

The workloads and the metric lists are read from ``BENCHMARK.json`` at
the repository root; this module adds what that file has no room for —
what each end-to-end metric means on each workload, the open-loop
ladder, the latency limits, the tail percentile each workload supports,
and which end-to-end metric each layer metric should move on which
workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_SPEC = json.loads(SPEC_FILE.read_text())

#: ``(name, why)`` — the workloads, in the order ``--workload all`` runs.
WORKLOADS: List[Tuple[str, str]] = [
    (entry["name"], entry["why"]) for entry in _SPEC["workloads"]]

#: ``(name, unit, better, bound)`` — reported by every workload.
END_TO_END: List[Tuple[str, str, str, float]] = [
    (entry["name"], entry["unit"], entry["better"], entry["bound"])
    for entry in _SPEC["end_to_end"]]

#: ``(name, unit, better)`` — reported by every traced run; a layer a
#: workload does not exercise reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    (entry["name"], entry["unit"], entry["better"])
    for entry in _SPEC["per_layer"]]

#: What each end-to-end metric means on each workload.
END_TO_END_MEANING: Dict[str, Dict[str, str]] = {
    "setup_s": {
        "train_ours_c": "median of 3 data generations",
        "serve_open_loop": "median of 21 cold model+artifact builds and "
                           "Server start+warmup (kernel cache cleared)",
        "http_routed": "median of 5 artifact builds + `repro serve "
                       "--replicas 2` starts until router /healthz is ok",
    },
    "throughput_per_s": {
        "train_ours_c": "training samples per second of step time, over "
                        "the faster half of the run's 10-step windows",
        "serve_open_loop": "capacity: correct answers per second while "
                           "an overload burst keeps the server "
                           "backlogged (upper quartile of the run's "
                           "bursts)",
        "http_routed": "completed requests per second (closed loop)",
    },
    "p50_ms": {
        "train_ours_c": "median training-step latency (first "
                        "DONN.forward after zero_grad to Adam.step end, "
                        "batch of 100), over the faster half of the "
                        "run's 10-step windows",
        "serve_open_loop": "median latency from due time at the "
                           "reference rate (every round pooled)",
        "http_routed": "median client latency per request",
    },
    "tail_ms": {
        "train_ours_c": "p80 training-step latency, same steps as p50_ms",
        "serve_open_loop": "p95 latency from due time at the reference "
                           "rate (every round pooled)",
        "http_routed": "p95 client latency",
    },
    "ok_frac": {
        "train_ours_c": "recipe runs passing every check / runs",
        "serve_open_loop": "answers byte-identical to serial "
                           "engine.predict / requests attempted",
        "http_routed": "200 responses byte-identical to serial "
                       "engine.predict / requests attempted",
    },
    "peak_rss_mb": {
        "train_ours_c": "benchmark process",
        "serve_open_loop": "benchmark process (server is in-process)",
        "http_routed": "router process + replica processes",
    },
}

#: The tail percentile each workload reports as ``tail_ms``: the highest
#: with at least ten samples beyond it at today's rates that is also
#: steady from run to run (p99 at the open-loop reference rate spread
#: 0.15 between runs, p95 0.04; the ladder still judges rates by p99).
TAIL_PCT: Dict[str, float] = {
    "train_ours_c": 80.0,
    "serve_open_loop": 95.0,
    "http_routed": 95.0,
}

#: Open-loop ladder: ``(rate in req/s, requests per step)``.  The knee
#: of the default ServeConfig lies between the last two rates, well away
#: from both: on a 2-core box it measured from about 1,100 req/s (with
#: busy neighbours) to over 2,600 req/s.  The last rate is an overload
#: burst: it keeps the server backlogged, so its answered rate is the
#: server's capacity.  The rates in between run once; then the reference
#: rate and the burst alternate, one step each per round, until the run's
#: seconds are used up.  A shared host's speed drops by up to half for
#: seconds at a time, so both are sampled across the whole run instead of
#: in one stretch of it.
LADDER: List[Tuple[int, int]] = [(300, 300), (500, 1100), (8000, 1000)]
REFERENCE_RATE = 300
BURST_RATE = LADDER[-1][0]
#: Rounds per run at least, whatever ``--seconds`` says.
ROUNDS = 4
#: Untraced reference-rate requests a traced run compares itself with.
BASELINE_REQUESTS = 1100
#: A ladder rate meets the limit when its p99 is within it, every
#: request is answered correctly and the answers keep up with the
#: schedule (reported per rate; the knee lies where rates stop meeting
#: it).
LATENCY_LIMIT_MS = 50.0
KEEP_UP = 0.95

#: ``trace.unattributed_s`` may be at most this share of the time the
#: named layers split (the recipe wall, or the summed request latency).
UNATTRIBUTED_SLACK = 0.05

#: Layer metric (prefix) -> ``[(end-to-end metric, workload), ...]`` it
#: should move.  Written down before any optimisation is measured.
LAYER_MOVES: Dict[str, List[Tuple[str, str]]] = {
    "pipeline.stage": [("throughput_per_s", "train_ours_c")],
    "backend.fft": [("throughput_per_s", "train_ours_c"),
                    ("p50_ms", "train_ours_c"),
                    ("throughput_per_s", "serve_open_loop")],
    "donn.encode": [("throughput_per_s", "train_ours_c")],
    "autodiff": [("throughput_per_s", "train_ours_c"),
                 ("p50_ms", "train_ours_c")],
    "roughness.regularizer": [("throughput_per_s", "train_ours_c")],
    "sparsify.slr": [("throughput_per_s", "train_ours_c")],
    "twopi": [("throughput_per_s", "train_ours_c")],
    "runtime.engine_build": [("setup_s", "serve_open_loop"),
                             ("setup_s", "http_routed")],
    "runtime.engine": [("throughput_per_s", "serve_open_loop"),
                       ("tail_ms", "serve_open_loop")],
    "runtime.kernel_cache": [("setup_s", "serve_open_loop"),
                             ("peak_rss_mb", "serve_open_loop")],
    "serve.batching": [("throughput_per_s", "serve_open_loop"),
                       ("p50_ms", "http_routed")],
    "serve.ladder": [("throughput_per_s", "serve_open_loop")],
    "serve.server": [("tail_ms", "serve_open_loop"),
                     ("ok_frac", "serve_open_loop"),
                     ("tail_ms", "http_routed")],
    "serve.workers": [("ok_frac", "serve_open_loop"),
                      ("tail_ms", "serve_open_loop")],
    "serve.wait": [("tail_ms", "serve_open_loop")],
    "serve.http": [("p50_ms", "http_routed"),
                   ("throughput_per_s", "http_routed")],
    "serve.router": [("p50_ms", "http_routed"),
                     ("throughput_per_s", "http_routed")],
    "serve.cluster": [("ok_frac", "http_routed")],
    "loadgen": [],  # validity of serve_open_loop, not performance
    "trace": [],    # benchmark health
}


def end_to_end_names() -> List[str]:
    return [name for name, *_ in END_TO_END]


def per_layer_names() -> List[str]:
    return [name for name, *_ in PER_LAYER]


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, *_ in END_TO_END}
    table.update({name: unit for name, unit, _ in PER_LAYER})
    return table

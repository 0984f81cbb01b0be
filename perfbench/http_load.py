"""``http_routed``: keep-alive HTTP against ``repro serve --replicas 2``.

The server (a router in front of two replica processes) runs as its own
process tree (``python -m repro.cli serve --replicas 2``) so it does not
share an interpreter lock with the client.  Two threads, each holding one
persistent HTTP/1.1 connection, run a closed loop of single-sample
``POST /v1/predict``; every response body must equal, byte for byte,
the body a serial ``engine.predict`` of the same sample implies.

Server-side time comes from the servers' own ``/metrics``: the request
latency histograms of the router and of each replica (whose URLs the
router's ``/healthz`` lists), so the client latency splits into
transport, router hop and server time.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import catalog
from .common import (Job, Outcome, check_attribution, hist_mean, median,
                     note, percentile, scrape_delta, tail, tree_peak_rss_mb)
from .serving import build_artifact, make_inputs, serial_predictions

SETUP_REPEATS = 5
CONNECTIONS = 2
REPLICAS = 2
#: The artifact's geometry.
N = 20
START_TIMEOUT = 90.0
STOP_TIMEOUT = 30.0
_URL = re.compile(r"http://[0-9.]+:[0-9]+")


class ServeProcess:
    """One ``repro serve`` process tree, started in its own session."""

    def __init__(self, job: Job, artifact: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(job.root / "src"),
                   PYTHONUNBUFFERED="1", TMPDIR=str(job.tmp))
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--model", str(artifact), "--port", "0",
                   "--replicas", str(REPLICAS)]
        self.proc = subprocess.Popen(
            command, cwd=job.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        self.url = self._read_url()

    def _read_url(self) -> str:
        found: List[str] = []

        def read() -> None:
            for line in self.proc.stdout:
                match = _URL.search(line)
                if match:
                    found.append(match.group(0))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if not found:
            self.stop()
            raise RuntimeError("repro serve printed no URL")
        return found[0]

    @property
    def address(self) -> Tuple[str, int]:
        parsed = urllib.parse.urlsplit(self.url)
        return parsed.hostname, parsed.port

    def get(self, path: str, url: Optional[str] = None) -> Tuple[int, bytes]:
        parsed = urllib.parse.urlsplit(url or self.url)
        conn = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_healthy(self) -> Dict[str, object]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                status, body = self.get("/healthz")
                health = json.loads(body)
                if status == 200 and health.get("status") == "ok":
                    return health
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError(f"{self.url} never became healthy")

    def stop(self) -> None:
        """Ctrl-C (a graceful drain), then kill the session if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass  # the whole session already exited
        self.proc.wait()
        self.proc.stdout.close()


def _start(job: Job, index: int):
    start = time.perf_counter()
    artifact = build_artifact(job.tmp / f"model-{index}.npz", N, job.seed)
    server = ServeProcess(job, artifact)
    try:
        health = server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server, artifact, health, time.perf_counter() - start


def closed_loop(address: Tuple[str, int], bodies: List[bytes],
                expected: List[bytes], seconds: float, offset: int
                ) -> List[Tuple[float, float, float, bool]]:
    """One connection's closed loop: ``(start, headers, end, ok)`` per
    request, ``headers`` being when the response headers had arrived."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    headers = {"Content-Type": "application/json"}
    records = []
    index = offset
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            sample = index % len(bodies)
            index += CONNECTIONS
            start = time.perf_counter()
            arrived = start
            try:
                conn.request("POST", "/v1/predict", bodies[sample], headers)
                response = conn.getresponse()
                arrived = time.perf_counter()
                body = response.read()
                ok = response.status == 200 and body == expected[sample]
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()  # reconnects on the next request
            records.append((start, arrived, time.perf_counter(), ok))
    finally:
        conn.close()
    return records


def _load(server: ServeProcess, bodies, expected, seconds: float):
    results: List[list] = [[]] * CONNECTIONS
    threads = []

    def drive(slot: int) -> None:
        results[slot] = closed_loop(server.address, bodies, expected,
                                    seconds, slot)

    for slot in range(CONNECTIONS):
        thread = threading.Thread(target=drive, args=(slot,))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    return [record for per_thread in results for record in per_thread]


def _scrape(server: ServeProcess, urls: List[str]):
    from repro.obs import parse_prometheus

    return [parse_prometheus(server.get("/metrics", url)[1].decode())
            for url in urls]


def run(job: Job) -> Outcome:
    note(f"{job.workload}: repro serve --replicas {REPLICAS}, n={N} "
         f"artifact, {CONNECTIONS} keep-alive connections, closed loop")
    inputs = make_inputs(job.seed)
    bodies = [json.dumps({"inputs": sample.tolist()}).encode()
              for sample in inputs]
    setups = []
    server = None
    try:
        for index in range(SETUP_REPEATS):
            server, artifact, health, seconds = _start(job, index)
            setups.append(seconds)
            if index < SETUP_REPEATS - 1:
                server.stop()
        expected = [json.dumps({"predictions": label}).encode()
                    for label in serial_predictions(artifact, inputs)]
        replica_urls = [member["url"] for member in health.get("replicas",
                                                              [])]
        _load(server, bodies, expected, 1.0)  # warm the path
        baseline = None
        if job.trace:
            baseline = _load(server, bodies, expected, job.seconds)
        before = _scrape(server, [server.url] + replica_urls)
        records = _load(server, bodies, expected, job.seconds)
        after = _scrape(server, [server.url] + replica_urls)
        final_health = json.loads(server.get("/healthz")[1])
        peak_rss = tree_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    outcome = Outcome(attempted=len(records),
                      failed=sum(1 for *_, ok in records if not ok))
    outcome.check(outcome.failed == 0,
                  f"{outcome.failed} of {outcome.attempted} responses failed "
                  f"or differed from serial engine.predict")
    latencies = [(end - start) * 1e3 for start, _, end, ok in records
                 if ok]
    pct = catalog.TAIL_PCT[job.workload]
    tail_ms = tail(latencies, pct)
    outcome.check(tail_ms is not None,
                  f"{len(latencies)} samples do not support p{pct:g}")
    throughput = len(latencies) / _span(records)
    outcome.samples = len(latencies)
    outcome.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": throughput,
        "p50_ms": median(latencies),
        "tail_ms": tail_ms if tail_ms is not None
        else percentile(latencies, pct),
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "peak_rss_mb": peak_rss,
    }
    note(f"  requests={outcome.attempted} samples={len(latencies)} "
         f"throughput={throughput:.1f}/s p50_ms={median(latencies):.2f} "
         f"p{pct:g}_ms={outcome.end_to_end['tail_ms']:.2f}")
    if job.trace:
        outcome.layers = _layers(outcome, records, baseline, before, after,
                                 final_health)
    return outcome


def _layers(outcome: Outcome, records, baseline, before, after,
            health) -> Dict[str, float]:
    """Split the client latency into transport, router hop and server
    time.

    Only two clocks see a request: the client's and the servers' own
    latency histograms.  So, as per request means, transport is the
    client latency minus the router's latency and the router hop is the
    router's latency minus the replicas'.  The split holds only when every mean is over the same
    requests and no part is negative; that is what is checked here.
    The client's wait for the response body after its headers arrived
    is measured on its own, as the part of transport where a stalled
    write shows.
    """
    # Scrapes: index 0 is the router the client talks to; the rest are
    # its replicas.
    servers = (before[1:], after[1:])
    router = (before[0], after[0])

    def server_delta(family: str) -> float:
        return sum(scrape_delta(b, a, family) for b, a in zip(*servers))

    count = len(records)
    client_s = sum(end - start for start, _, end, _ in records)
    client_ms = client_s / count * 1e3
    header_wait_ms = sum(arrived - start for start, arrived, _, _ in records) \
        / count * 1e3
    server_s, served = hist_mean(*servers,
                                 "repro_server_request_latency_seconds")
    front_s, fronted = hist_mean(before[:1], after[:1],
                                 "repro_router_request_latency_seconds")
    server_ms, front_ms = server_s * 1e3, front_s * 1e3
    batch = "repro_batcher_batch_size"
    layers = {
        "serve.http.transport_ms": client_ms - front_ms,
        "serve.http.body_wait_ms": sum(end - arrived
                                       for _, arrived, end, _ in records)
        / count * 1e3,
        "serve.http.server_latency_ms": server_ms,
        "serve.batching.mean_batch": hist_mean(*servers, batch)[0],
        "serve.batching.batches": sum(
            scrape_delta(b, a, batch, batch + "_count")
            for b, a in zip(*servers)),
        "serve.batching.full_flushes": _flushes(*servers, "full"),
        "serve.batching.timer_flushes": _flushes(*servers, "timer"),
        "serve.batching.flush_latency_ms": hist_mean(
            *servers, "repro_batcher_flush_latency_seconds")[0] * 1e3,
        "serve.server.admitted": server_delta("repro_server_requests_total"),
        "serve.server.rejected": server_delta(
            "repro_server_admission_rejects_total"),
        "serve.server.latency_mean_ms": server_ms,
        "serve.workers.dispatched": server_delta(
            "repro_pool_dispatched_total"),
        "serve.workers.retries": server_delta("repro_pool_retries_total"),
        "serve.workers.failures": server_delta("repro_pool_failures_total"),
        "serve.router.latency_mean_ms": front_ms,
        "serve.router.hop_ms": front_ms - server_ms,
        "serve.router.failovers": scrape_delta(
            *router, "repro_router_failovers_total"),
        "serve.router.sheds": scrape_delta(
            *router, "repro_router_sheds_total"),
        "serve.router.hedges": scrape_delta(
            *router, "repro_router_hedges_total"),
        "serve.cluster.respawns": float(health.get("restarts", 0)),
    }
    note(f"  client mean {client_ms:.3f} ms = transport "
         f"{layers['serve.http.transport_ms']:.3f} ms (of which body wait "
         f"{layers['serve.http.body_wait_ms']:.3f} ms) + router hop "
         f"{layers['serve.router.hop_ms']:.3f} ms + server "
         f"{server_ms:.3f} ms")

    outcome.check(fronted == count and served == count,
                  f"{count} client requests, but the router timed "
                  f"{fronted:g} and the server side {served:g}")
    outcome.check(
        0.0 <= server_ms <= front_ms <= header_wait_ms <= client_ms,
        f"layers out of order: server {server_ms:.3f} ms, router "
        f"{front_ms:.3f} ms, client header wait {header_wait_ms:.3f} ms, "
        f"client {client_ms:.3f} ms")
    # The split charges every client request the router's mean
    # latency; requests the router did not time leave that much
    # of the summed client latency unexplained.
    unattributed = (count - fronted) * front_s
    check_attribution(outcome, abs(unattributed), client_s,
                      catalog.UNATTRIBUTED_SLACK,
                      "summed client latency")
    # Overhead: traced minus untraced time per request, over the traced
    # requests (both loops keep CONNECTIONS requests in flight).
    layers["trace.overhead_s"] = (_span(records) / count
                                  - _span(baseline) / len(baseline)) * count
    layers["trace.wall_s"] = _span(records)
    layers["trace.unattributed_s"] = unattributed
    return layers


def _flushes(before, after, reason: str) -> float:
    family = "repro_batcher_flushes_total"
    sample = f'{family}{{reason="{reason}"}}'
    return sum(a.get(family, {}).get("samples", {}).get(sample, 0.0)
               - b.get(family, {}).get("samples", {}).get(sample, 0.0)
               for b, a in zip(before, after))


def _span(records) -> float:
    """From the first request's start to the last one's end."""
    return (max(end for _, _, end, _ in records)
            - min(start for start, *_ in records))

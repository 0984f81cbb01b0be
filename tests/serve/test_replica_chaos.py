"""Replica chaos: SIGKILL one of three replicas behind the router.

The router's own telemetry must see and heal the loss: ``/healthz``
walks ``ok -> degraded -> ok``, ``/metrics`` counts exactly one
respawn, and every response on the way stays byte-identical to the
in-process model.  CI runs this module as its replica-chaos step.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.obs import parse_prometheus
from repro.serve import ReplicaSet, Router, RouterConfig, ServeConfig
from repro.utils.serialization import save_model


@pytest.fixture(scope="module")
def model():
    return DONN(DONNConfig.laptop(n=20), rng=spawn_rng(0))


@pytest.fixture(scope="module")
def artifact(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("replica-chaos") / "model.npz"
    return str(save_model(path, model))


def get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def test_sigkill_one_of_three_replicas(model, artifact):
    images = spawn_rng(1).random((6, 28, 28))
    expected = model.predict(images).tolist()
    config = ServeConfig(max_batch=8, max_delay=0.002)
    with ReplicaSet(artifact, replicas=3, config=config) as rs:
        router = Router(replica_set=rs,
                        config=RouterConfig(probe_interval=0.05))
        router.start()
        try:
            url = router.serve_http(port=0).url

            def predict():
                request = urllib.request.Request(
                    url + "/v1/predict",
                    data=json.dumps({"inputs": images.tolist()}).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request,
                                            timeout=30) as response:
                    return json.loads(response.read())["predictions"]

            def healthz():
                return json.loads(get(url + "/healthz"))["status"]

            assert healthz() == "ok"
            # A fast poller records every healthz transition: the
            # degraded windows are short (about one probe interval).
            trajectory = ["ok"]
            done = threading.Event()

            def poll():
                while not done.is_set():
                    status = router.health()["status"]
                    if status != trajectory[-1]:
                        trajectory.append(status)
                    time.sleep(0.001)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            os.kill(rs.pids()[1], 9)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                assert predict() == expected  # never a bad byte
                if ("degraded" in trajectory
                        and rs.stats()["restarts"] == 1
                        and healthz() == "ok"):
                    break
                time.sleep(0.05)
            done.set()
            poller.join(5)
            assert trajectory[0] == "ok", trajectory
            assert "degraded" in trajectory, trajectory
            assert healthz() == "ok", trajectory
            respawns = parse_prometheus(get(url + "/metrics"))[
                "repro_router_replica_respawns_total"]["samples"]
            assert sum(respawns.values()) == 1, respawns
        finally:
            router.stop()

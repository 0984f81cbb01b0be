"""The restart budget shared by ShardedPool and ReplicaSet."""

import threading
import time

import pytest

from repro.serve.faults import FaultPlan
from repro.serve.supervision import Supervisor, Worker


def make(states, max_restarts=1, scope="shard", live=("ok",), plan=None):
    changed = threading.Condition()
    workers = [Worker(index, plan, state) for index, state in
               enumerate(states)]
    return Supervisor(workers, max_restarts, changed, scope=scope,
                      live=live), changed


class TestStrike:
    def test_within_budget_respawns_with_the_kill_consumed(self):
        plan = FaultPlan.parse("kill:replica=0; kill:shard=0; "
                               "kill:replica=0")
        supervisor, changed = make(["ok"], scope="replica", plan=plan)
        worker = supervisor.workers[0]
        with changed:
            assert supervisor.strike(worker)
        assert (worker.state, worker.restarts) == ("respawning", 1)
        # Only the first kill in this worker's own scope is consumed.
        assert str(worker.plan) == "kill:shard=0; kill:replica=0"

    def test_over_budget_quarantines(self):
        supervisor, changed = make(["ok"], max_restarts=1)
        worker = supervisor.workers[0]
        with changed:
            assert supervisor.strike(worker)
            worker.state = "ok"
            assert not supervisor.strike(worker)
        assert (worker.state, worker.restarts) == ("quarantined", 2)

    def test_stopping_quarantines(self):
        supervisor, changed = make(["ok"], max_restarts=5)
        with changed:
            assert not supervisor.strike(supervisor.workers[0],
                                         stopping=True)
        assert supervisor.workers[0].state == "quarantined"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            make(["ok"], max_restarts=-1)

    def test_handles_ride_on_the_record(self):
        worker = Worker(3, None, "starting", port=None, id="r3")
        assert (worker.index, worker.id, worker.port) == (3, "r3", None)


class TestRollup:
    @pytest.mark.parametrize("states,status", [
        (["ok", "ok"], "ok"),
        (["ok", "respawning"], "degraded"),
        (["respawning", "recovering"], "degraded"),
        (["quarantined", "ok"], "degraded"),
        (["quarantined", "quarantined"], "unhealthy"),
    ])
    def test_shard_rollup(self, states, status):
        supervisor, _ = make(states,
                             live=("ok", "respawning", "recovering"))
        assert supervisor.status() == status

    @pytest.mark.parametrize("states,status", [
        (["ok", "ok"], "ok"),
        (["ok", "respawning"], "degraded"),
        (["respawning", "starting"], "unhealthy"),
        (["quarantined", "quarantined"], "unhealthy"),
    ])
    def test_replica_rollup(self, states, status):
        supervisor, _ = make(states, live=("ok",))
        assert supervisor.status() == status


class TestSettle:
    def test_settled_when_nothing_is_pending(self):
        supervisor, _ = make(["ok", "recovering", "quarantined"])
        assert supervisor.settle(timeout=0.01)

    def test_times_out_while_respawning(self):
        supervisor, _ = make(["ok", "respawning"])
        begin = time.monotonic()
        assert not supervisor.settle(timeout=0.05)
        assert time.monotonic() - begin >= 0.05

    def test_wakes_on_a_state_change(self):
        supervisor, changed = make(["starting"])

        def ready():
            time.sleep(0.05)
            with changed:
                supervisor.workers[0].state = "ok"
                changed.notify_all()

        thread = threading.Thread(target=ready)
        thread.start()
        assert supervisor.settle(timeout=10.0)
        thread.join()

"""The restart budget shared by the serving tier's two supervisors.

:class:`~repro.serve.workers.ShardedPool` (engine shards) and
:class:`~repro.serve.cluster.ReplicaSet` (server processes) both keep
one :class:`Worker` record per worker and hand every death to one
:class:`Supervisor`.  It alone decides restart-or-quarantine: a worker
whose ``restarts`` exceed ``max_restarts`` is quarantined for good,
anything else goes to ``respawning`` with the fault plan's kill for that
worker consumed, so one configured kill dies exactly once.  How a worker
is rebuilt (an executor, a spawned process) stays with its owner.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, List, Optional

from .faults import FaultPlan

__all__ = ["Worker", "Supervisor"]

#: States that :meth:`Supervisor.settle` waits out.
_PENDING = ("starting", "respawning")


class Worker:
    """Supervision record of one worker.

    ``plan`` is the worker's remaining fault plan (fired kills are
    consumed).  Owners attach their own handles as keyword attributes
    (a shard's executor, a replica's process and port).
    """

    def __init__(self, index: int, plan: Optional[FaultPlan], state: str,
                 **handles: Any) -> None:
        self.index = index
        self.state = state
        self.restarts = 0
        self.plan = plan
        self.__dict__.update(handles)


class Supervisor:
    """Restart budget and health rollup over a fixed set of workers.

    ``workers`` is the owner's own list of records (the owner may fill
    it after construction); ``changed`` is the owner's condition, whose
    lock guards every record (:meth:`strike` and :meth:`status` expect
    it held).  ``scope`` names the fault-plan scope of the workers
    (``"shard"`` or ``"replica"``); ``live`` are the states that still
    serve traffic.
    """

    def __init__(self, workers: List[Worker], max_restarts: int,
                 changed: threading.Condition, scope: str,
                 live: Iterable[str]) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.workers = workers
        self.max_restarts = int(max_restarts)
        self.scope = scope
        self.live = tuple(live)
        self._changed = changed

    def strike(self, worker: Worker, stopping: bool = False) -> bool:
        """Count one death of ``worker``; ``True`` when it should be
        respawned, ``False`` when it is now quarantined (over budget,
        or the owner is ``stopping``)."""
        worker.restarts += 1
        if worker.restarts > self.max_restarts or stopping:
            worker.state = "quarantined"
        else:
            worker.state = "respawning"
            if worker.plan is not None:
                worker.plan = worker.plan.without_kill(worker.index,
                                                       scope=self.scope)
        self._changed.notify_all()
        return worker.state == "respawning"

    def settle(self, timeout: float) -> bool:
        """Block until no worker is starting or respawning (or
        ``timeout`` seconds pass); ``True`` when settled."""
        end = time.monotonic() + timeout
        with self._changed:
            while any(w.state in _PENDING for w in self.workers):
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._changed.wait(min(remaining, 0.25))
            return True

    def status(self) -> str:
        """``ok`` (every worker ok), ``unhealthy`` (none live) or
        ``degraded`` (anything between)."""
        states = [w.state for w in self.workers]
        if all(state == "ok" for state in states):
            return "ok"
        if not any(state in self.live for state in states):
            return "unhealthy"
        return "degraded"

"""Job leases: heartbeat-renewed ownership with expiry reclamation.

A lease binds one LEASED/RUNNING job to one service *incarnation* (a
single ``repro serve`` process lifetime).  While a supervised worker
runs, the supervisor's heartbeat hook renews the lease every poll slice
(see :meth:`~repro.engine.supervision.Supervisor._wait_for_report`), so
a live lease proves a live service without journal traffic proportional
to cell runtime.

Expiry matters in two places:

* **recovery** — after a crash, every lease the journal believes is
  outstanding belongs to a dead incarnation and is reclaimed (the job
  returns to SUBMITTED, attempts preserved);
* **liveness display** — ``repro status`` shows lease ages, and flags a
  lease whose age exceeds its TTL as stale (the holding process has
  stopped heartbeating: hung, or killed without recovery yet).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from ..engine.errors import JournalError


@dataclass
class Lease:
    """Ownership of one job by one service incarnation."""

    job_id: str
    owner: str
    #: monotonic timestamps from the owning process's clock
    granted_at: float
    last_heartbeat: float
    ttl: float
    heartbeats: int = 0
    #: absolute wall-clock deadline propagated from the request
    #: (0 = none); the worker heartbeat checks it so a cell past its
    #: deadline is preempted, never silently kept running
    deadline_unix: float = 0.0

    def age(self, now: float) -> float:
        return now - self.granted_at

    def idle(self, now: float) -> float:
        """Seconds since the last heartbeat."""
        return now - self.last_heartbeat

    def expired(self, now: float) -> bool:
        return self.idle(now) > self.ttl

    def past_deadline(self, now_unix: float) -> bool:
        return bool(self.deadline_unix) and now_unix > self.deadline_unix


class LeaseTable:
    """All outstanding leases of one live service process."""

    def __init__(
        self,
        ttl: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.ttl = ttl
        self.clock = clock
        self._leases: Dict[str, Lease] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._leases

    def grant(
        self,
        job_id: str,
        owner: str,
        deadline_unix: float = 0.0,
    ) -> Lease:
        if job_id in self._leases:
            raise JournalError(
                f"job {job_id!r} already leased to "
                f"{self._leases[job_id].owner!r}"
            )
        now = self.clock()
        lease = Lease(
            job_id=job_id,
            owner=owner,
            granted_at=now,
            last_heartbeat=now,
            ttl=self.ttl,
            deadline_unix=deadline_unix,
        )
        self._leases[job_id] = lease
        return lease

    def heartbeat(self, job_id: str) -> None:
        lease = self._leases.get(job_id)
        if lease is None:
            raise JournalError(
                f"heartbeat for job {job_id!r} without a lease"
            )
        lease.last_heartbeat = self.clock()
        lease.heartbeats += 1

    def release(self, job_id: str) -> None:
        if self._leases.pop(job_id, None) is None:
            raise JournalError(
                f"release of job {job_id!r} without a lease"
            )

    def expired(self) -> List[Lease]:
        now = self.clock()
        return [l for l in self._leases.values() if l.expired(now)]

    def ages(self) -> Dict[str, float]:
        now = self.clock()
        return {
            job_id: lease.age(now)
            for job_id, lease in self._leases.items()
        }

    def leases(self) -> List[Lease]:
        return list(self._leases.values())

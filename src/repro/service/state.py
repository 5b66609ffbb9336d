"""Job records and the journal-reduced queue state machine.

A *job* is one sweep cell (benchmark × named configuration) travelling
through the service state machine::

    SUBMITTED ──lease──► LEASED ──start──► RUNNING ──done──► DONE
        ▲                  │                  │ ├────fail──► FAILED
        │                  │                  │
        └─ reclaim/preempt ┴──────────────────┘
    SUBMITTED ──quarantine (breaker open)──► QUARANTINED
    SUBMITTED ──cancel──► CANCELLED
    SUBMITTED ──fail (deadline expired)──► FAILED

Every arrow is journaled *before* it is taken (see
:mod:`repro.service.journal`); :class:`QueueState` is the pure reducer
that folds the record stream back into queue state — the same code path
serves live operation and crash recovery, so the two can never drift.
An arrow not in :data:`LEGAL_TRANSITIONS` raises
:class:`~repro.engine.errors.JournalError`: an illegal transition in a
checksummed log means the log was produced by a buggy or foreign
writer, and replaying it would corrupt the sweep.

Only one process ever takes those arrows: the service incarnation that
holds the directory's pidfile (see
:meth:`~repro.service.pool.SweepService.assert_no_live_server`), so a
lease needs no ownership token: replay trusts the log's per-record CRC,
strictly rising ``seq`` and :data:`LEGAL_TRANSITIONS` instead.

Journals written while the service still had a remote worker fleet
replay as long as they only hold local records (their legacy ``fence``
payload keys are ignored); a ``worker_*`` or ``fenced`` record, or a
snapshot that lists workers, is refused with a
:class:`~repro.engine.errors.JournalError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..engine.errors import JournalError

# Job states (stable strings: they appear in journal payloads)
SUBMITTED = "SUBMITTED"
LEASED = "LEASED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
QUARANTINED = "QUARANTINED"
CANCELLED = "CANCELLED"

JOB_STATES = (
    SUBMITTED, LEASED, RUNNING, DONE, FAILED, QUARANTINED, CANCELLED,
)

#: terminal states: the job will never run again
TERMINAL_STATES = frozenset({DONE, FAILED, QUARANTINED, CANCELLED})

#: legal (from, to) state-machine arrows
LEGAL_TRANSITIONS = frozenset(
    {
        (SUBMITTED, LEASED),       # lease
        (LEASED, RUNNING),         # start
        (RUNNING, DONE),           # done
        (RUNNING, FAILED),         # fail
        (SUBMITTED, FAILED),       # deadline expired before leasing
        (SUBMITTED, QUARANTINED),  # breaker open at lease time
        (SUBMITTED, CANCELLED),    # client cancel before running
        (LEASED, SUBMITTED),       # reclaim (service died before start)
        (RUNNING, SUBMITTED),      # reclaim (died mid-cell) or preempt
    }
)

#: service counters journal replay must reproduce exactly
COUNTER_NAMES = (
    "queued",
    "shed",
    "leased",
    "retried",
    "reclaimed",
    "done",
    "failed",
    "quarantined",
    "cancelled",
)


@dataclass
class Job:
    """One sweep cell travelling through the service."""

    job_id: str
    benchmark: str
    config_name: str
    scale: str = "small"
    seed: int = 0
    #: config hash pinned at submit time; cross-validated at lease time
    #: so a config edit between submit and run is refused, exactly like
    #: a ``--resume`` after a config edit
    config_hash: str = ""
    state: str = SUBMITTED
    #: failed attempts so far (retries survive reclamation)
    attempts: int = 0
    error_class: str = ""
    message: str = ""
    #: RunResult.to_dict() payload once DONE
    result: Optional[Dict[str, Any]] = None
    #: lease owner (service incarnation) while LEASED/RUNNING
    owner: str = ""
    #: wall-clock time the current lease was granted (status display)
    leased_unix: float = 0.0
    #: journal seq of the last record that touched this job
    updated_seq: int = 0
    #: scheduling priority (higher runs first; ties break FIFO)
    priority: int = 0
    #: absolute wall-clock deadline (0 = none); a job past it is
    #: preempted/refused and journaled FAILED(deadline)
    deadline_unix: float = 0.0
    #: content-derived idempotency key: sha256 of
    #: (benchmark, config-hash, scale, seed) — a retried submission
    #: with the same key joins this job instead of duplicating it
    idempotency_key: str = ""

    @property
    def marker(self) -> str:
        """Cell marker for tables: metrics cell or ``FAILED(<reason>)``."""
        if self.state == DONE:
            return "DONE"
        if self.state in (FAILED, QUARANTINED, CANCELLED):
            return f"FAILED({self.error_class})"
        return self.state

    def past_deadline(self, now_unix: float) -> bool:
        return bool(self.deadline_unix) and now_unix > self.deadline_unix

    def to_payload(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "scale": self.scale,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "state": self.state,
            "attempts": self.attempts,
            "error_class": self.error_class,
            "message": self.message,
            "result": self.result,
            "owner": self.owner,
            "leased_unix": self.leased_unix,
            "updated_seq": self.updated_seq,
            "priority": self.priority,
            "deadline_unix": self.deadline_unix,
            "idempotency_key": self.idempotency_key,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Job":
        # older journals also carry the removed fleet's lease ``fence``
        return cls(**{k: v for k, v in payload.items() if k != "fence"})


class QueueState:
    """Pure reducer: journal records in, consistent queue state out."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        #: submission order (scheduling is FIFO and deterministic)
        self.order: List[str] = []
        #: idempotency key -> job_id (dedup joins; rebuilt on replay)
        self.by_key: Dict[str, str] = {}
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        #: breaker snapshots restored from a compaction record
        self.breaker_payloads: Dict[str, Dict[str, Any]] = {}
        #: True once a clean-shutdown record has been applied with no
        #: later mutation (recovery can trust every lease was released)
        self.clean_shutdown = False

    # ------------------------------------------------------------------ #
    # Reducer
    # ------------------------------------------------------------------ #
    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the state (live and replay)."""
        rtype = record["type"]
        payload = record["payload"]
        seq = record["seq"]
        handler = getattr(self, f"_apply_{rtype}", None)
        if handler is None:
            if rtype.startswith("worker_") or rtype == "fenced":
                raise JournalError(
                    f"journal record {rtype!r} (seq {seq}) was written by "
                    f"the remote worker fleet, which this build no longer "
                    f"has; start a fresh service directory"
                )
            raise JournalError(
                f"unknown journal record type {rtype!r} (seq {seq})"
            )
        if rtype != "shutdown":
            self.clean_shutdown = False
        handler(payload, seq)

    def _job(self, payload: Dict[str, Any], seq: int) -> Job:
        job_id = payload["job_id"]
        job = self.jobs.get(job_id)
        if job is None:
            raise JournalError(
                f"journal record (seq {seq}) references unknown job "
                f"{job_id!r}"
            )
        return job

    def _transition(self, job: Job, to_state: str, seq: int) -> None:
        if (job.state, to_state) not in LEGAL_TRANSITIONS:
            raise JournalError(
                f"illegal state transition {job.state} -> {to_state} for "
                f"job {job.job_id!r} (seq {seq})"
            )
        job.state = to_state
        job.updated_seq = seq

    # --- record handlers ---------------------------------------------- #
    def _apply_submit(self, payload: Dict[str, Any], seq: int) -> None:
        job = Job.from_payload(payload["job"])
        if job.job_id in self.jobs:
            raise JournalError(
                f"duplicate submission of job {job.job_id!r} (seq {seq})"
            )
        if job.state != SUBMITTED:
            raise JournalError(
                f"job {job.job_id!r} submitted in state {job.state} "
                f"(seq {seq})"
            )
        job.updated_seq = seq
        self.jobs[job.job_id] = job
        self.order.append(job.job_id)
        if job.idempotency_key:
            self.by_key[job.idempotency_key] = job.job_id
        self.counters["queued"] += 1

    def _apply_shed(self, payload: Dict[str, Any], seq: int) -> None:
        # the job never entered the queue; only the counter remembers it
        self.counters["shed"] += 1

    def _apply_lease(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, LEASED, seq)
        job.owner = payload["owner"]
        job.leased_unix = float(payload.get("unix", 0.0))
        self.counters["leased"] += 1

    def _apply_start(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, RUNNING, seq)

    def _apply_retry(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        if job.state != RUNNING:
            raise JournalError(
                f"retry journaled for job {job.job_id!r} in state "
                f"{job.state} (seq {seq})"
            )
        job.attempts = payload["attempt"] + 1
        job.error_class = payload["error_class"]
        job.updated_seq = seq
        self.counters["retried"] += 1

    def _apply_done(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, DONE, seq)
        job.result = payload["result"]
        job.attempts = payload.get("attempts", job.attempts + 1)
        job.error_class = ""
        job.message = ""
        job.owner = ""
        self.counters["done"] += 1

    def _apply_fail(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, FAILED, seq)
        job.error_class = payload["error_class"]
        job.message = payload.get("message", "")
        job.attempts = payload.get("attempts", job.attempts)
        job.owner = ""
        self.counters["failed"] += 1

    def _apply_quarantine(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, QUARANTINED, seq)
        job.error_class = f"quarantined:{payload['cause_class']}"
        job.message = payload.get("message", "")
        job.owner = ""
        self.counters["quarantined"] += 1

    def _apply_cancel(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, CANCELLED, seq)
        job.error_class = "cancelled"
        job.message = payload.get("message", "")
        job.owner = ""
        self.counters["cancelled"] += 1

    def _apply_reclaim(self, payload: Dict[str, Any], seq: int) -> None:
        job = self._job(payload, seq)
        self._transition(job, SUBMITTED, seq)
        job.owner = ""
        self.counters["reclaimed"] += 1

    def _apply_serve_start(self, payload: Dict[str, Any], seq: int) -> None:
        pass  # provenance only: incarnation id, pid, wall time

    def _apply_shutdown(self, payload: Dict[str, Any], seq: int) -> None:
        self.clean_shutdown = bool(payload.get("clean", False))

    def _apply_snapshot(self, payload: Dict[str, Any], seq: int) -> None:
        if payload.get("workers"):
            raise JournalError(
                f"journal record 'snapshot' (seq {seq}) lists remote "
                f"workers of the removed worker fleet; start a fresh "
                f"service directory"
            )
        self.jobs = {
            job_id: Job.from_payload(job_payload)
            for job_id, job_payload in payload["jobs"].items()
        }
        self.order = list(payload["order"])
        self.by_key = {
            job.idempotency_key: job.job_id
            for job in self.jobs.values()
            if job.idempotency_key
        }
        self.counters = {
            name: int(payload["counters"].get(name, 0))
            for name in COUNTER_NAMES
        }
        self.breaker_payloads = dict(payload.get("breakers", {}))

    # ------------------------------------------------------------------ #
    # Snapshots (compaction)
    # ------------------------------------------------------------------ #
    def snapshot_payload(
        self, breakers: Optional[Dict[str, Dict[str, Any]]] = None
    ) -> Dict[str, Any]:
        return {
            "jobs": {
                job_id: job.to_payload()
                for job_id, job in self.jobs.items()
            },
            "order": list(self.order),
            "counters": dict(self.counters),
            "breakers": dict(breakers or {}),
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def pending(self) -> List[Job]:
        """SUBMITTED jobs in deterministic (submission) order."""
        return [
            self.jobs[job_id]
            for job_id in self.order
            if self.jobs[job_id].state == SUBMITTED
        ]

    def leased(self) -> List[Job]:
        return [
            self.jobs[job_id]
            for job_id in self.order
            if self.jobs[job_id].state in (LEASED, RUNNING)
        ]

    def depths(self) -> Dict[str, int]:
        """Job count per state (zero-filled, stable order)."""
        depths = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            depths[job.state] += 1
        return depths

    def pending_depth(self) -> int:
        """Jobs that still demand service work (admission-relevant)."""
        return sum(
            1
            for job in self.jobs.values()
            if job.state not in TERMINAL_STATES
        )

    def results(self) -> Dict[Tuple[str, str], Job]:
        """``(benchmark, config) -> job`` for every known job."""
        return {
            (job.benchmark, job.config_name): job
            for job in self.jobs.values()
        }

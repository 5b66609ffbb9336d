"""The sweep service: WAL-backed job queue + supervised worker pool.

:class:`SweepService` composes the pieces of this package into one
crash-safe execution service:

* every state transition is journaled (fsynced) *before* it is applied
  (:mod:`.journal` + :mod:`.state`), so ``kill -9`` at any instant
  recovers to a consistent queue;
* cells run through :class:`~repro.engine.supervision.Supervisor`
  workers holding heartbeat-renewed leases (:mod:`.leases`); stale
  leases from dead incarnations are reclaimed on recovery;
* per-workload circuit breakers (:mod:`.breaker`) quarantine repeat
  offenders instead of burning the sweep's retry budget;
* admission control (:mod:`.admission`) bounds queue depth and
  journals every shed submission;
* service counters live in a :class:`~repro.engine.stats.StatRegistry`
  group ``service``; every completed job writes a run-manifest sidecar;
  journal submissions pin the PR 2 config hash, cross-validated at
  lease time exactly like ``--resume``.

One directory = one service.  A ``serve.pid`` guard refuses two live
servers on the same journal; a stale pidfile (previous ``kill -9``)
is detected via ``/proc`` liveness and taken over.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Dict, List, Optional

from ..engine.errors import (
    AdmissionError,
    DeadlineError,
    JournalError,
    SimulationError,
    classify,
)
from ..engine.faults import FaultPlan
from ..engine.stats import StatRegistry
from ..engine.storage import Storage, get_storage
from ..engine.supervision import CellSpec, RetryPolicy, Supervisor
from ..engine.interrupt import GracefulInterrupt
from ..telemetry import RunManifest, config_hash
from .admission import AdmissionController, AdmissionPolicy
from .breaker import BreakerPolicy, CircuitBreaker
from .invariants import check_service_invariants
from .journal import JOURNAL_NAME, Journal
from .leases import LeaseTable
from .policy import SchedulingPolicy
from .protocol import idempotency_key as derive_idempotency_key
from .results import RESULTS_DIR, ResultCache
from .state import (
    DONE,
    FAILED,
    QUARANTINED,
    RUNNING,
    SUBMITTED,
    TERMINAL_STATES,
    Job,
    QueueState,
)

#: pidfile guarding one live server per service directory
PIDFILE_NAME = "serve.pid"

#: failure classes that say nothing about the *workload*'s health —
#: deadline blows and client cancels must not feed the breaker window
NON_WORKLOAD_FAILURES = frozenset({"deadline", "cancelled"})


def job_id_for(benchmark: str, config_name: str) -> str:
    """Stable job identity: one job per sweep cell."""
    return f"{benchmark}:{config_name}"


class PreemptRequest(Exception):
    """Internal: the heartbeat decided the running cell must yield.

    Raised out of the supervisor's heartbeat hook; the worker is killed
    on the way out and the pool requeues (or cancels) the cell.  Never
    a :class:`SimulationError` — preemption is a scheduling decision,
    not a cell failure.
    """

    def __init__(self, job_id: str, reason: str) -> None:
        super().__init__(f"{job_id}: {reason}")
        self.job_id = job_id
        self.reason = reason


def _proc_starttime(pid: int) -> str:
    """Kernel start-time ticks of a pid ("" when unavailable).

    Field 22 of ``/proc/<pid>/stat``: together with the pid it names a
    unique process incarnation, so a recycled PID cannot impersonate a
    dead server.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[19]
    except (OSError, IndexError):
        return ""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # a SIGKILLed server lingers as a zombie until its parent reaps
    # it; it can never write the journal again, so it is not "alive"
    try:
        with open(f"/proc/{pid}/stat") as handle:
            if handle.read().rpartition(")")[2].split()[0] == "Z":
                return False
    except (OSError, IndexError):
        pass  # no procfs (macOS): fall back to the signal-0 verdict
    return True


class SweepService:
    """Crash-safe, self-protecting sweep execution service."""

    def __init__(
        self,
        directory: str,
        scale: str = "small",
        seed: int = 0,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sanitize: Optional[str] = None,
        admission: Optional[AdmissionPolicy] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        lease_ttl: float = 60.0,
        compact_after: int = 256,
        registry: Optional[StatRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        policy: Optional[SchedulingPolicy] = None,
        wall_clock: Callable[[], float] = time.time,
        storage: Optional[Storage] = None,
        cache_bytes: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.scale = scale
        self.seed = seed
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.sanitize = sanitize
        self.breaker_policy = (
            breaker_policy if breaker_policy is not None else BreakerPolicy()
        )
        self.compact_after = compact_after
        self.lease_ttl = lease_ttl
        self.clock = clock
        #: injectable filesystem shim: every durable byte this service
        #: writes (journal, result cache, manifests via atomic_write)
        #: goes through it, so disk faults and crash points are testable
        self.storage = storage if storage is not None else get_storage()
        os.makedirs(directory, exist_ok=True)
        self.journal = Journal(
            os.path.join(directory, JOURNAL_NAME),
            scale=scale,
            seed=seed,
            storage=self.storage,
        )
        self.state = QueueState()
        self.leases = LeaseTable(ttl=lease_ttl, clock=clock)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.admission = AdmissionController(
            admission if admission is not None else AdmissionPolicy()
        )
        self.registry = registry if registry is not None else StatRegistry()
        self.stats = self.registry.group("service")
        self.incarnation = f"serve-{os.getpid()}"
        self.policy = policy if policy is not None else SchedulingPolicy()
        self.wall_clock = wall_clock
        self.results = ResultCache(
            os.path.join(directory, RESULTS_DIR),
            storage=self.storage,
            max_bytes=cache_bytes,
        )
        #: journal records appended since the last snapshot compaction
        #: (storage-health observability for ``repro status``)
        self._records_since_snapshot = 0
        #: job_ids a client asked to cancel while LEASED/RUNNING; the
        #: heartbeat preempts them, then the pool journals the cancel
        self._cancel_requested: "set[str]" = set()
        #: extra per-heartbeat hook while a cell runs (the daemon pumps
        #: its socket here so clients stay served mid-cell)
        self.on_heartbeat: Optional[Callable[[], None]] = None
        self._recovered = False
        #: False while replaying the journal (breaker decisions are
        #: re-derived from the record stream instead of re-decided)
        self._live = True

    # ------------------------------------------------------------------ #
    # Journal plumbing: journal first, then reduce — one code path for
    # live operation and replay, so they cannot drift.
    # ------------------------------------------------------------------ #
    def _journal(self, rtype: str, payload: Dict[str, Any]) -> None:
        seq = self.journal.append(rtype, payload)
        self._reduce({"seq": seq, "type": rtype, "payload": payload})

    def _reduce(self, record: Dict[str, Any]) -> None:
        rtype = record["type"]
        payload = record["payload"]
        self.state.apply(record)
        if rtype == "snapshot":
            self._records_since_snapshot = 0
        else:
            self._records_since_snapshot += 1
        # mirror the journal's counters into the telemetry registry
        if rtype == "submit":
            self.stats.counter("queued").inc()
        elif rtype in (
            "shed", "lease", "retry", "done", "fail", "reclaim", "cancel",
        ):
            name = {
                "shed": "shed",
                "lease": "leased",
                "retry": "retried",
                "done": "done",
                "fail": "failed",
                "reclaim": "reclaimed",
                "cancel": "cancelled",
            }[rtype]
            self.stats.counter(name).inc()
        elif rtype == "quarantine":
            self.stats.counter("quarantined").inc()
        # lease table bookkeeping
        if rtype == "lease":
            job = self.state.jobs[payload["job_id"]]
            self.leases.grant(
                payload["job_id"], payload["owner"],
                deadline_unix=job.deadline_unix,
            )
        elif rtype in ("done", "fail", "quarantine", "reclaim", "cancel"):
            if payload.get("job_id") in self.leases:
                self.leases.release(payload["job_id"])
        # breaker bookkeeping (replay rebuilds the exact live state:
        # every journaled admit/deny decision and every outcome drives
        # the same breaker methods the live path used)
        if rtype == "snapshot":
            self.breakers = {
                workload: CircuitBreaker.from_payload(
                    breaker_payload, self.breaker_policy
                )
                for workload, breaker_payload in (
                    self.state.breaker_payloads.items()
                )
            }
        elif rtype in ("lease", "quarantine") and not self._live:
            # the live path called allow() exactly once before
            # journaling either record; replay must advance the breaker
            # state machine (cooldown, half-open transition) identically
            job = self.state.jobs[payload["job_id"]]
            self.breaker_for(job.benchmark).allow()
        elif rtype in ("retry", "fail"):
            # deadline blows and cancels are request-level outcomes, not
            # workload pathology: they never feed the breaker window
            # (same rule live and on replay, so state cannot drift)
            if payload["error_class"] not in NON_WORKLOAD_FAILURES:
                job = self.state.jobs[payload["job_id"]]
                self.breaker_for(job.benchmark).record_failure(
                    payload["error_class"]
                )
        elif rtype == "done":
            job = self.state.jobs[payload["job_id"]]
            self.breaker_for(job.benchmark).record_success()

    def breaker_for(self, workload: str) -> CircuitBreaker:
        if workload not in self.breakers:
            self.breakers[workload] = CircuitBreaker(
                workload, self.breaker_policy
            )
        return self.breakers[workload]

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def recover(self, readonly: bool = False) -> int:
        """Replay the journal; reclaim stale leases. Returns #reclaimed.

        ``readonly`` (``repro status``) replays without journaling
        reclamation — the queue is inspected exactly as the log left
        it, stale leases included.
        """
        self._live = False
        try:
            for record in self.journal.replay():
                self._reduce(record)
        finally:
            self._live = True
        self._recovered = True
        reclaimed = 0
        if not readonly:
            self.assert_no_live_server()
            # every outstanding lease belongs to a dead incarnation:
            # the guard above makes this process the only writer
            for job in list(self.state.leased()):
                self._journal("reclaim", {"job_id": job.job_id})
                reclaimed += 1
            check_service_invariants(self.state, self.leases)
        return reclaimed

    # ------------------------------------------------------------------ #
    # Submission (admission-controlled)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        benchmark: str,
        config_name: str,
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Enqueue one sweep cell; idempotent per (benchmark, config)
        *and* per content-derived idempotency key.

        ``deadline`` is relative seconds from now; the job carries the
        absolute wall-clock deadline from here on (client → queue →
        worker lease).  A submission whose idempotency key matches a
        known job — in flight or finished — joins that job instead of
        duplicating it, which is what makes a timed-out-and-retried
        client request safe.

        Raises :class:`AdmissionError` when the queue refuses the job
        (the refusal itself is journaled as a ``shed`` record and the
        error carries the admission controller's ``retry_after`` hint).
        """
        from ..experiments.configs import get_config

        self._require_recovered()
        job_id = job_id_for(benchmark, config_name)
        existing = self.state.jobs.get(job_id)
        if existing is not None:
            return existing  # resubmission of a known cell is a no-op
        current_hash = config_hash(get_config(config_name))
        key = idempotency_key or derive_idempotency_key(
            benchmark, current_hash, self.scale, self.seed
        )
        joined_id = self.state.by_key.get(key)
        if joined_id is not None:
            # identical content under another config name: join it
            return self.state.jobs[joined_id]
        decision = self.admission.decide(self.state.pending_depth())
        if not decision.admitted:
            self._journal(
                "shed",
                {
                    "job_id": job_id,
                    "benchmark": benchmark,
                    "config_name": config_name,
                    "reason": decision.reason,
                },
            )
            exc = AdmissionError(
                f"job {job_id!r} refused: {decision.reason}"
            )
            exc.retry_after = decision.retry_after
            raise exc
        job = Job(
            job_id=job_id,
            benchmark=benchmark,
            config_name=config_name,
            scale=self.scale,
            seed=self.seed,
            config_hash=current_hash,
            priority=priority,
            deadline_unix=(
                self.wall_clock() + deadline if deadline else 0.0
            ),
            idempotency_key=key,
        )
        self._journal("submit", {"job": job.to_payload()})
        return self.state.jobs[job_id]

    def cancel(self, job_id: str) -> Job:
        """Cancel one job: pending jobs cancel immediately; a running
        job is flagged and preempted at the next heartbeat, then
        journaled CANCELLED.  Terminal jobs are left untouched (the
        cancel lost the race — the caller sees the terminal state).
        """
        self._require_recovered()
        job = self.state.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.state in TERMINAL_STATES:
            return job
        if job.state == SUBMITTED:
            self._journal(
                "cancel",
                {"job_id": job_id, "message": "cancelled by client"},
            )
        else:  # LEASED/RUNNING: the heartbeat will preempt it
            self._cancel_requested.add(job_id)
        return self.state.jobs[job_id]

    def cached_result(self, key: str) -> Optional[Dict[str, Any]]:
        """Content-addressed lookup: a validated cache entry or None."""
        return self.results.get(key)

    # ------------------------------------------------------------------ #
    # The pool loop
    # ------------------------------------------------------------------ #
    def run(
        self, interrupt: Optional[GracefulInterrupt] = None
    ) -> Dict[str, int]:
        """Serve jobs until the queue is idle (or a drain is requested).

        Returns the end-of-run depth dict.  On a drain request the
        current job finishes (its lease is honoured), remaining jobs
        stay SUBMITTED for the next incarnation, and a clean-shutdown
        record is journaled either way.
        """
        self._require_recovered()
        self._acquire_pidfile()
        try:
            self._journal(
                "serve_start",
                {
                    "incarnation": self.incarnation,
                    "pid": os.getpid(),
                    "unix": time.time(),
                },
            )
            while not (interrupt is not None and interrupt.requested):
                job = self.next_job()
                if job is None:
                    break
                self._run_job(job)
                if self.sanitize:
                    check_service_invariants(self.state, self.leases)
            self._shutdown(interrupt)
        finally:
            self._release_pidfile()
        return self.state.depths()

    def next_job(self) -> Optional[Job]:
        """Scheduling-policy front door: expire, then pick.

        Journals ``FAILED(deadline)`` for every pending job already
        past its deadline (dead on arrival — it must never consume a
        worker), then returns the policy's choice among the survivors.
        """
        now = self.wall_clock()
        for job in self.policy.expired(self.state, now):
            self._fail_deadline(job)
        return self.policy.pick_next(self.state, now)

    def _fail_deadline(self, job: Job) -> None:
        overdue = self.wall_clock() - job.deadline_unix
        self._journal(
            "fail",
            {
                "job_id": job.job_id,
                "error_class": "deadline",
                "message": (
                    f"deadline expired {overdue:.1f}s before the cell "
                    f"could run"
                ),
                "attempts": job.attempts,
            },
        )

    def compact_now(self, force: bool = False) -> bool:
        """Snapshot-compact the journal immediately, when safe.

        Refuses (returns False) while any lease is outstanding: the
        snapshot would freeze a LEASED/RUNNING job whose in-memory
        lease cannot be rebuilt from the snapshot alone, desyncing the
        lease table from the journal.  Without ``force`` it also waits
        for the log to reach ``compact_after`` records.
        """
        if len(self.leases):
            return False
        if self.journal.seq is None:
            return False
        if not force and self.journal.seq < self.compact_after:
            return False
        self.journal.compact(
            self.state.snapshot_payload(
                {w: b.to_payload() for w, b in self.breakers.items()}
            )
        )
        self._records_since_snapshot = 0
        return True

    def _shutdown(self, interrupt: Optional[GracefulInterrupt]) -> None:
        """Journal a clean shutdown; compact when the log has grown."""
        drained = interrupt is not None and interrupt.requested
        shield = (
            interrupt.shield()
            if interrupt is not None
            else contextlib.nullcontext()
        )
        with shield:
            self._journal(
                "shutdown",
                {
                    "clean": True,
                    "drained": drained,
                    "pending": len(self.state.pending()),
                },
            )
            self.compact_now()
            self.write_manifest()

    def _run_job(self, job: Job) -> None:
        from ..experiments.configs import get_config

        if job.past_deadline(self.wall_clock()):
            self._fail_deadline(job)
            return
        breaker = self.breaker_for(job.benchmark)
        allowed, note = breaker.allow()
        if not allowed:
            self._journal(
                "quarantine",
                {
                    "job_id": job.job_id,
                    "cause_class": breaker.dominant_class(),
                    "message": note,
                },
            )
            return
        config = get_config(job.config_name)
        current_hash = config_hash(config)
        if job.config_hash and current_hash != job.config_hash:
            raise JournalError(
                f"job {job.job_id!r} was submitted for config hash "
                f"{job.config_hash} but {job.config_name!r} now hashes to "
                f"{current_hash}; the configuration changed between submit "
                f"and run — resubmit into a fresh service directory"
            )
        self._journal(
            "lease",
            {
                "job_id": job.job_id,
                "owner": self.incarnation,
                # wall clock so `repro status` from another process can
                # report lease ages (liveness is the in-memory table)
                "unix": time.time(),
            },
        )
        self._journal("start", {"job_id": job.job_id})
        probe = note == "probe"
        retry = (
            RetryPolicy(
                max_attempts=1,
                backoff_base=self.retry.backoff_base,
                backoff_factor=self.retry.backoff_factor,
                jitter=self.retry.jitter,
            )
            if probe  # a half-open probe gets no retry budget
            else self.retry
        )
        # the deadline caps the worker's wall-clock budget.  The
        # heartbeat enforces the *precise* deadline (journaling an
        # honest FAILED(deadline)); the watchdog runs with one slack
        # heartbeat interval on top as a backstop for stalled
        # heartbeats — without the slack the two would race and a blown
        # deadline could surface as a retried transient timeout instead
        timeout = self.timeout
        if job.deadline_unix:
            remaining = max(0.05, job.deadline_unix - self.wall_clock())
            capped = remaining + 2.0
            timeout = capped if timeout is None else min(timeout, capped)
        started_wall = self.wall_clock()
        supervisor = Supervisor(
            timeout=timeout,
            retry=retry,
            fault_plan=self.fault_plan,
            heartbeat=lambda: self._heartbeat(job, started_wall),
            on_retry=lambda attempt, exc: self._journal(
                "retry",
                {
                    "job_id": job.job_id,
                    "attempt": attempt,
                    "error_class": classify(exc),
                },
            ),
        )
        spec = CellSpec(
            benchmark=job.benchmark,
            config=config,
            config_tag=job.config_name,
            scale=self.scale,
            seed=self.seed,
            sanitize=self.sanitize,
        )
        try:
            result = self._execute_cell(supervisor, spec)
        except PreemptRequest as request:
            # preemption-safe requeue: the same journaled arrow crash
            # recovery uses, attempts preserved — then the cancel, if
            # that is what triggered the preemption
            self._journal(
                "reclaim",
                {"job_id": job.job_id, "reason": request.reason},
            )
            if request.reason == "cancel":
                self._cancel_requested.discard(job.job_id)
                self._journal(
                    "cancel",
                    {
                        "job_id": job.job_id,
                        "message": "cancelled while running",
                    },
                )
            return
        except SimulationError as exc:
            self._journal(
                "fail",
                {
                    "job_id": job.job_id,
                    "error_class": classify(exc),
                    "message": str(exc).splitlines()[0],
                    "attempts": getattr(exc, "attempts", 1),
                },
            )
            return
        self._journal(
            "done",
            {
                "job_id": job.job_id,
                "result": result,
                "attempts": job.attempts + 1,
            },
        )
        done = self.state.jobs[job.job_id]
        if done.idempotency_key:
            self.results.put(
                done.idempotency_key,
                done.result,
                job_id=done.job_id,
                benchmark=done.benchmark,
                config_name=done.config_name,
                config_hash=done.config_hash,
                scale=self.scale,
                seed=self.seed,
            )
        self._write_job_manifest(done)

    def _execute_cell(
        self, supervisor: Supervisor, spec: CellSpec
    ) -> Dict[str, Any]:
        """Run one leased cell to completion (the only compute seam).

        Every journaled transition surrounds this call; overriding it
        is how the crash-point explorer
        (:mod:`repro.service.crashpoints`) substitutes deterministic
        canned results so a scripted session exercises the full
        journal/cache/lease protocol without simulating anything.
        """
        return supervisor.run_cell(spec)

    def _heartbeat(self, job: Job, started_wall: float) -> None:
        """Per-slice liveness hook while ``job``'s worker runs.

        Renews the lease, pumps the daemon (when attached), and decides
        whether the cell must yield: a blown deadline raises
        :class:`DeadlineError` (the supervisor kills the worker and the
        pool journals ``FAILED(deadline)``), a pending cancel or a
        strictly-higher-priority job raises :class:`PreemptRequest`
        (requeue, attempts preserved).
        """
        self.leases.heartbeat(job.job_id)
        if self.on_heartbeat is not None:
            self.on_heartbeat()
        now = self.wall_clock()
        if job.job_id in self._cancel_requested:
            raise PreemptRequest(job.job_id, "cancel")
        if job.past_deadline(now):
            raise DeadlineError(
                f"cell {job.job_id!r} blew its deadline mid-run "
                f"({now - job.deadline_unix:.1f}s over); worker preempted"
            )
        winner = self.policy.should_preempt(
            self.state, job, now, held_for=now - started_wall
        )
        if winner is not None:
            raise PreemptRequest(
                job.job_id,
                f"preempted by higher-priority job {winner.job_id!r} "
                f"(priority {winner.priority} > {job.priority})",
            )

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #
    def _write_job_manifest(self, job: Job) -> str:
        path = os.path.join(
            self.directory,
            "manifests",
            f"{job.job_id.replace(':', '__')}.manifest.json",
        )
        manifest = RunManifest(
            artifact_kind="job",
            artifact_path=self.journal.path,
            scale=self.scale,
            seed=self.seed,
            benchmarks=[job.benchmark],
            config_hashes={job.config_name: job.config_hash},
            cells_simulated=1,
            extra={
                "job_id": job.job_id,
                "attempts": job.attempts,
                "incarnation": self.incarnation,
            },
        )
        return manifest.write(path)

    def write_manifest(self) -> str:
        """Service-level manifest next to the journal."""
        hashes = {
            job.config_name: job.config_hash
            for job in self.state.jobs.values()
        }
        manifest = RunManifest(
            artifact_kind="service",
            artifact_path=self.journal.path,
            scale=self.scale,
            seed=self.seed,
            benchmarks=sorted(
                {job.benchmark for job in self.state.jobs.values()}
            ),
            config_hashes=dict(sorted(hashes.items())),
            cells_simulated=self.state.counters["done"],
            extra={"counters": dict(self.state.counters)},
        )
        return manifest.write()

    # ------------------------------------------------------------------ #
    # Status
    # ------------------------------------------------------------------ #
    def status_lines(self) -> List[str]:
        """Human-readable ``repro status`` block."""
        depths = self.state.depths()
        pending = self.state.pending_depth()
        lines = [
            "queue            "
            + " ".join(f"{s.lower()}={depths[s]}" for s in depths),
            f"backpressure     {self.admission.describe(pending)}",
        ]
        if self.breakers:
            lines.append("breakers         " + "; ".join(
                self.breakers[w].describe() for w in sorted(self.breakers)
            ))
        for job in self.state.leased():
            age_text = "age unknown"
            if job.leased_unix:
                age = time.time() - job.leased_unix
                age_text = f"age {age:.1f}s"
            stale = ""
            owner_pid = job.owner.rpartition("-")[2]
            if owner_pid.isdigit() and not _pid_alive(int(owner_pid)):
                stale = ", stale (owner dead)"
            lines.append(
                f"lease            {job.job_id} -> {job.owner} "
                f"({job.state}, {age_text}, ttl {self.lease_ttl:g}s{stale})"
            )
        counters = " ".join(
            f"{name}={value}"
            for name, value in self.state.counters.items()
        )
        lines.append(f"counters         {counters}")
        try:
            journal_bytes = os.path.getsize(self.journal.path)
        except OSError:
            journal_bytes = 0
        lines.append(
            f"storage          journal={journal_bytes}B "
            f"records_since_compaction={self._records_since_snapshot} "
            f"cached_results={len(self.results)}"
        )
        return lines

    def golden_gate(self, path: str) -> "tuple[bool, List[str]]":
        """Gate this service's DONE results against a golden file.

        The chaos CI job kills and restarts a service mid-sweep, then
        requires the recovered results to match the same pinned metrics
        the cold-run golden gate uses — byte-identical recovery is not
        an aspiration, it is asserted.
        """
        from ..sanitizer.goldens import (
            GOLDEN_METRICS,
            compare_goldens,
            load_goldens,
        )

        try:
            payload = load_goldens(path)
        except (OSError, ValueError) as exc:
            return False, [f"unreadable golden file {path}: {exc}"]
        if payload.get("scale") != self.scale or (
            payload.get("seed") != self.seed
        ):
            return False, [
                f"golden file {path} pins scale={payload.get('scale')!r} "
                f"seed={payload.get('seed')}, but this service runs "
                f"scale={self.scale!r} seed={self.seed}"
            ]
        cells = {
            f"{job.benchmark}:{job.config_name}": {
                metric: job.result.get(metric)
                for metric in GOLDEN_METRICS
            }
            for job in self.state.jobs.values()
            if job.state == DONE and job.result is not None
        }
        problems = compare_goldens(cells, payload)
        if problems:
            return False, problems
        return True, [
            f"{len(cells)} recovered cells match {path}"
        ]

    # ------------------------------------------------------------------ #
    # Lifecycle guards
    # ------------------------------------------------------------------ #
    def _require_recovered(self) -> None:
        if not self._recovered:
            raise JournalError(
                "service used before recover(): the journal must be "
                "replayed before any mutation"
            )

    @property
    def pidfile(self) -> str:
        return os.path.join(self.directory, PIDFILE_NAME)

    def assert_no_live_server(self) -> None:
        """Refuse to mutate a journal another live process is serving.

        ``recover()`` reclaims every outstanding lease on the assumption
        that this process is the only writer; a submit/serve racing a
        live server would steal its leases and fork the queue state.

        A pidfile abandoned by a SIGKILLed server (dead PID, or a PID
        the kernel has since recycled onto an unrelated process) is
        *stale*: it is removed and startup proceeds, instead of
        refusing until someone hand-deletes it.  Recycling is detected
        by the process start-time recorded next to the PID — same pid
        with a different start time is a different process.
        """
        if not os.path.exists(self.pidfile):
            return
        try:
            with open(self.pidfile) as handle:
                fields = handle.read().split()
            pid = int(fields[0])
        except (OSError, ValueError, IndexError):
            # unreadable garbage guards nothing: reclaim it
            self._reclaim_pidfile("unreadable")
            return
        if pid == os.getpid():
            return
        recorded_start = fields[1] if len(fields) > 1 else ""
        if not _pid_alive(pid):
            self._reclaim_pidfile(f"owner pid {pid} is dead")
            return
        if recorded_start and _proc_starttime(pid) != recorded_start:
            # the owner died and the kernel recycled its PID onto an
            # unrelated live process — the guard is stale all the same
            self._reclaim_pidfile(f"pid {pid} was recycled")
            return
        raise JournalError(
            f"service directory {self.directory!r} is already "
            f"served by live pid {pid}; two concurrent writers "
            f"would race the journal"
        )

    def _reclaim_pidfile(self, why: str) -> None:
        try:
            os.remove(self.pidfile)
        except OSError:
            pass

    def _acquire_pidfile(self) -> None:
        self.assert_no_live_server()
        with open(self.pidfile, "w") as handle:
            handle.write(f"{os.getpid()} {_proc_starttime(os.getpid())}\n")

    def _release_pidfile(self) -> None:
        try:
            os.remove(self.pidfile)
        except OSError:
            pass

    def close(self) -> None:
        self.journal.close()

"""Service-level invariant checkers (journal/lease/counter coherence).

The simulator's sanitizer (:mod:`repro.sanitizer`) guards the timing
model; these checkers guard the *service* — the queue state machine,
the lease table, and the counters the journal claims to maintain.  They
run at every recovery (always: a journal we just replayed must reduce
to a coherent queue) and after every job when the service runs with
``--sanitize`` (the sanitized-sweep acceptance gate).

Violations raise :class:`~repro.engine.errors.SanitizerError` with a
stable ``service.``-prefixed tag, so they exit 9 and degrade exactly
like timing-model invariant breaches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..engine.errors import SanitizerError
from .state import (
    COUNTER_NAMES,
    DONE,
    FAILED,
    JOB_STATES,
    LEASED,
    QUARANTINED,
    RUNNING,
)

if TYPE_CHECKING:  # pragma: no cover
    from .leases import LeaseTable
    from .state import QueueState


def _violate(tag: str, message: str) -> None:
    raise SanitizerError(f"sanitizer[{tag}]: {message}", tag=tag)


def check_service_invariants(state: "QueueState", leases: "LeaseTable") -> None:
    """Assert queue/lease/counter coherence; raise SanitizerError on breach.

    Tags (all ``service.``-prefixed, stable):

    * ``service.state.unknown`` — a job is in a state outside the
      machine;
    * ``service.lease.missing`` — a LEASED/RUNNING job holds no live
      lease;
    * ``service.lease.orphan`` — a lease exists for a job that is not
      LEASED/RUNNING (or not known at all);
    * ``service.lease.owner`` — a job's journaled owner disagrees with
      the lease table;
    * ``service.counter.desync`` — terminal-state job counts disagree
      with the journal's counters;
    * ``service.counter.negative`` — any counter went negative.
    """
    for job in state.jobs.values():
        if job.state not in JOB_STATES:
            _violate(
                "service.state.unknown",
                f"job {job.job_id!r} is in unknown state {job.state!r}",
            )
        if job.state in (LEASED, RUNNING):
            if job.job_id not in leases:
                _violate(
                    "service.lease.missing",
                    f"job {job.job_id!r} is {job.state} but holds no lease",
                )
    for lease in leases.leases():
        job = state.jobs.get(lease.job_id)
        if job is None or job.state not in (LEASED, RUNNING):
            holder = "unknown job" if job is None else job.state
            _violate(
                "service.lease.orphan",
                f"lease for job {lease.job_id!r} but the job is {holder}",
            )
        elif job.owner != lease.owner:
            _violate(
                "service.lease.owner",
                f"job {lease.job_id!r} journaled owner {job.owner!r} but "
                f"the lease belongs to {lease.owner!r}",
            )
    for name in COUNTER_NAMES:
        if state.counters.get(name, 0) < 0:
            _violate(
                "service.counter.negative",
                f"counter {name!r} is negative "
                f"({state.counters.get(name)})",
            )
    depths = state.depths()
    for counter_name, job_state in (
        ("done", DONE),
        ("failed", FAILED),
        ("quarantined", QUARANTINED),
    ):
        if state.counters[counter_name] != depths[job_state]:
            _violate(
                "service.counter.desync",
                f"counter {counter_name}={state.counters[counter_name]} "
                f"but {depths[job_state]} jobs are {job_state}",
            )

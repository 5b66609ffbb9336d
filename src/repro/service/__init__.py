"""What is left of the sweep-queue service: its journal and state machine.

The daemon, its socket protocol, worker pool and CLI commands are gone;
``repro report --checkpoint --resume`` is the crash-safe sweep.  These
modules have no caller in the reproduction path and are kept, with
their tests, only until they are deleted in turn:

* :mod:`.state` — job records and the journal-reduced queue reducer;
* :mod:`.journal` — the CRC'd JSONL write-ahead log;
* :mod:`.admission`, :mod:`.leases`, :mod:`.policy`, :mod:`.breaker` —
  queue-depth gate, lease table, pick order/preemption rules and
  per-workload circuit breaker;
* :mod:`.invariants` — queue/lease/counter coherence checks;
* :mod:`.results` — the content-addressed result cache.
"""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from .breaker import (
    BREAKER_STATES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from .invariants import check_service_invariants
from .journal import JOURNAL_NAME, JOURNAL_VERSION, Journal
from .leases import Lease, LeaseTable
from .policy import PolicyConfig, SchedulingPolicy
from .results import RESULTS_DIR, ResultCache
from .state import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    LEASED,
    LEGAL_TRANSITIONS,
    QUARANTINED,
    RUNNING,
    SUBMITTED,
    TERMINAL_STATES,
    Job,
    QueueState,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BREAKER_STATES",
    "BreakerPolicy",
    "CANCELLED",
    "CircuitBreaker",
    "CLOSED",
    "DONE",
    "FAILED",
    "HALF_OPEN",
    "JOB_STATES",
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "Job",
    "Journal",
    "LEASED",
    "LEGAL_TRANSITIONS",
    "Lease",
    "LeaseTable",
    "OPEN",
    "PolicyConfig",
    "QUARANTINED",
    "QueueState",
    "RESULTS_DIR",
    "ResultCache",
    "RUNNING",
    "SchedulingPolicy",
    "SUBMITTED",
    "TERMINAL_STATES",
    "check_service_invariants",
]

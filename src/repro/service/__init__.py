"""Crash-safe sweep service: WAL-journaled queue, breakers, admission.

The durable, self-protecting execution layer behind ``repro serve`` /
``repro submit`` / ``repro status`` and ``repro compare --service``.
See DESIGN.md §9 for the journal format, the job state machine, the
breaker policy, and recovery semantics; §11 for the daemon's
intake/policy/execution layering (:mod:`.server`, :mod:`.policy`,
:mod:`.pool`), the socket protocol (:mod:`.protocol`), and the
content-addressed result cache (:mod:`.results`).
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
from .client import DaemonClient, DaemonUnavailable
from .crashpoints import (
    AckFact,
    CrashPointOutcome,
    CrashReport,
    explore,
)
from .invariants import check_service_invariants
from .journal import JOURNAL_NAME, JOURNAL_VERSION, Journal
from .leases import Lease, LeaseTable
from .policy import PolicyConfig, SchedulingPolicy
from .pool import (
    NON_WORKLOAD_FAILURES,
    PIDFILE_NAME,
    PreemptRequest,
    SweepService,
    job_id_for,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SOCKET_NAME,
    NetFaultKind,
    NetFaults,
    NetFaultSpec,
    get_net_faults,
    idempotency_key,
    parse_net_spec,
    set_net_faults,
)
from .results import RESULTS_DIR, ResultCache
from .server import SweepDaemon
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
    "AckFact",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BREAKER_STATES",
    "CrashPointOutcome",
    "CrashReport",
    "BreakerPolicy",
    "CANCELLED",
    "CircuitBreaker",
    "CLOSED",
    "DaemonClient",
    "DaemonUnavailable",
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
    "MAX_FRAME_BYTES",
    "NON_WORKLOAD_FAILURES",
    "NetFaultKind",
    "NetFaultSpec",
    "NetFaults",
    "OPEN",
    "PIDFILE_NAME",
    "PolicyConfig",
    "PreemptRequest",
    "PROTOCOL_VERSION",
    "QUARANTINED",
    "QueueState",
    "RESULTS_DIR",
    "ResultCache",
    "RUNNING",
    "SchedulingPolicy",
    "SOCKET_NAME",
    "SUBMITTED",
    "SweepDaemon",
    "SweepService",
    "TERMINAL_STATES",
    "check_service_invariants",
    "explore",
    "get_net_faults",
    "idempotency_key",
    "job_id_for",
    "parse_net_spec",
    "set_net_faults",
]

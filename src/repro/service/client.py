"""Client library for the sweep daemon: retries, deadlines, idempotency.

:class:`DaemonClient` is the *only* supported way to talk to
``repro serve --daemon``; the CLI's ``submit/status/wait/cancel``
daemon paths all go through it.  It owns the client half of the
end-to-end failure semantics:

* **reconnect with deterministic backoff** — a refused or dropped
  connection is retried with exponential backoff whose jitter is
  sha256-derived from the client's identity and attempt number (never
  wall-clock entropy), matching the supervisor's retry discipline;
* **idempotent retries** — every ``submit`` carries the content-derived
  idempotency key, so retrying after a timeout can only join the
  in-flight job or hit the result cache — never duplicate work;
* **retry-after honoured** — a load-shed response's ``retry_after``
  hint is slept *before* the next attempt, so shedding actually sheds;
* **deadlines propagate** — the requested deadline rides the submit
  frame and becomes the job's absolute deadline on the server, carried
  through queue and lease;
* **deadline-capped backoff** — a ``deadline=`` on :meth:`request`
  bounds the *cumulative* retry sleep: each standoff is clamped to the
  remaining budget and an exhausted budget raises
  :class:`~repro.engine.errors.DeadlineError` instead of sleeping past
  the point where the answer could still matter;
* **duplicate-safe exchanges** — every request is stamped with a
  monotonically increasing ``rq`` number the server echoes; a response
  carrying a stale ``rq`` (a duplicated or reordered frame injected by
  the ``net:`` chaos shim, or a late response from an abandoned
  attempt) is discarded, so frame duplication can never desynchronise
  the strict request/response stream.
"""

from __future__ import annotations

import hashlib
import os
import socket
import time
from typing import Any, Callable, Dict, Optional

from ..engine.errors import (
    CancelledJobError,
    DeadlineError,
    ProtocolError,
    SimulationError,
    error_from_class,
)
from .protocol import SOCKET_NAME, recv_frame, send_frame

#: error classes the client retries (connectivity + shedding); anything
#: else is the *request's* outcome and must surface to the caller
RETRYABLE_ERRORS = frozenset({"admission"})


class DaemonUnavailable(SimulationError):
    """The daemon could not be reached within the retry budget."""

    error_class = "protocol"
    exit_code = 14


class DaemonClient:
    """One client of a sweep daemon's Unix socket."""

    def __init__(
        self,
        directory: str,
        socket_path: Optional[str] = None,
        timeout: float = 10.0,
        max_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        jitter: float = 0.5,
        identity: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.socket_path = socket_path or os.path.join(
            directory, SOCKET_NAME
        )
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.jitter = jitter
        self.identity = (
            identity if identity is not None else f"client-{os.getpid()}"
        )
        self.sleep = sleep
        self._sock: Optional[socket.socket] = None
        #: monotonically increasing per-client request counter: the
        #: ``rq`` stamp echoed by the server (stale-response discard)
        #: and part of the jitter token so two requests back off on
        #: distinct (still deterministic) schedules
        self._request_no = 0

    # ------------------------------------------------------------------ #
    # Connection + retry machinery
    # ------------------------------------------------------------------ #
    def jitter_u(self, attempt: int) -> float:
        """Deterministic jitter draw in ``[0, 1)`` for one retry."""
        token = f"{self.identity}:{self._request_no}:{attempt}"
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2 ** 64

    def backoff(self, attempt: int) -> float:
        return (
            self.backoff_base
            * (self.backoff_factor ** attempt)
            * (1.0 + self.jitter * self.jitter_u(attempt))
        )

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        return sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def request(
        self,
        body: Dict[str, Any],
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request/response exchange, retried until the budget runs
        out.

        Connectivity failures (daemon down, dropped mid-stream, timed
        out) reconnect and resend — safe because every mutating request
        is idempotent by key.  Load-shed errors honour the server's
        ``retry_after`` hint.  A response with any other ``ok: false``
        error is raised as its taxonomy error.

        ``deadline`` (relative seconds) caps the cumulative standoff:
        every pre-attempt sleep — jittered backoff *or* honoured
        retry-after — is clamped to the remaining budget, and when the
        budget is spent before the next attempt could start, a
        :class:`~repro.engine.errors.DeadlineError` is raised instead
        of sleeping uselessly past it.
        """
        self._request_no += 1
        rq = self._request_no
        body = dict(body)
        body["rq"] = rq
        budget = self.max_attempts
        started = time.monotonic()
        last_failure = "never attempted"
        shed_hint = 0.0
        for attempt in range(budget):
            if attempt:
                # a honoured retry-after REPLACES the backoff for this
                # retry — exactly one standoff per attempt, never both
                standoff = shed_hint or self.backoff(attempt - 1)
                if deadline is not None:
                    remaining = deadline - (time.monotonic() - started)
                    if remaining <= 0:
                        raise DeadlineError(
                            f"request {body.get('op')!r} ran out of its "
                            f"{deadline:g}s deadline after {attempt} "
                            f"attempts (last: {last_failure})"
                        )
                    standoff = min(standoff, remaining)
                self.sleep(standoff)
            shed_hint = 0.0
            try:
                if self._sock is None:
                    self._sock = self._connect()
                send_frame(self._sock, body, side="client")
                response = self._recv_matching(rq)
            except (OSError, ProtocolError) as exc:
                # covers ConnectionRefused/Reset, socket.timeout, EOF
                # mid-frame — reconnect and retry the same request
                last_failure = f"{type(exc).__name__}: {exc}"
                self._disconnect()
                continue
            if response.get("ok"):
                return response
            error = response.get("error", "protocol")
            message = response.get("message", "daemon refused the request")
            if error in RETRYABLE_ERRORS and attempt < budget - 1:
                shed_hint = float(response.get("retry_after", 0.0) or 0.0)
                last_failure = f"shed: {message}"
                continue
            exc = error_from_class(error, message)
            if error == "admission":
                retry_after = response.get("retry_after", 0.0)
                exc.retry_after = retry_after
            raise exc
        raise DaemonUnavailable(
            f"daemon at {self.socket_path!r} unreachable after "
            f"{budget} attempts (last: {last_failure})"
        )

    def _recv_matching(self, rq: int) -> Dict[str, Any]:
        """Read responses until one answers *this* request.

        The server echoes the request's ``rq`` stamp.  A response
        carrying an older stamp is a leftover — a duplicated frame from
        the ``net:`` shim, or the answer to an attempt we abandoned
        after a timeout — and is discarded, not delivered.  Responses
        without a stamp are accepted as-is (pre-stamp servers).
        """
        while True:
            response = recv_frame(self._sock, timeout=self.timeout)
            echoed = response.get("rq")
            if echoed is None or echoed == rq:
                return response
            if isinstance(echoed, int) and echoed > rq:
                raise ProtocolError(
                    f"response rq {echoed} from the future "
                    f"(awaiting {rq}); stream corrupt"
                )
            # stale: drop it and keep reading

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def submit(
        self,
        benchmark: str,
        config: str,
        priority: int = 0,
        deadline: Optional[float] = None,
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "op": "submit",
            "benchmark": benchmark,
            "config": config,
            "priority": priority,
        }
        if deadline is not None:
            body["deadline"] = deadline
        if key is not None:
            body["key"] = key
        return self.request(body)

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {"op": "status"}
        if job_id is not None:
            body["job_id"] = job_id
        return self.request(body)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})

    def wait(
        self,
        job_id: Optional[str] = None,
        key: Optional[str] = None,
        deadline: Optional[float] = None,
        poll_base: float = 0.05,
        poll_cap: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal (client-side wait).

        ``deadline`` is relative seconds for the *wait itself*; past it
        a :class:`~repro.engine.errors.DeadlineError` is raised — the
        job keeps running server-side (use :meth:`cancel` to stop it).
        Raises the job's taxonomy error for FAILED/QUARANTINED/
        CANCELLED outcomes, returns the terminal response for DONE.
        """
        if job_id is None and key is None:
            raise ValueError("wait() needs a job_id or an idempotency key")
        body: Dict[str, Any] = {"op": "wait"}
        if job_id is not None:
            body["job_id"] = job_id
        if key is not None:
            body["key"] = key
        started = clock()
        poll = 0
        while True:
            response = self.request(dict(body))
            if response.get("done"):
                state = response.get("state")
                if state == "DONE":
                    return response
                error = response.get("error") or "workload"
                message = response.get("message", "")
                if state == "CANCELLED":
                    raise CancelledJobError(
                        f"job {response.get('job_id')!r} was cancelled"
                        + (f": {message}" if message else "")
                    )
                raise error_from_class(
                    error,
                    f"job {response.get('job_id')!r} ended {state}"
                    + (f": {message}" if message else ""),
                )
            if deadline is not None and clock() - started > deadline:
                raise DeadlineError(
                    f"gave up waiting for job "
                    f"{response.get('job_id') or key!r} after "
                    f"{deadline:g}s (state {response.get('state')!r}); "
                    f"the job is still queued server-side"
                )
            standoff = min(
                poll_cap,
                poll_base
                * (self.backoff_factor ** min(poll, 8))
                * (1.0 + self.jitter * self.jitter_u(poll)),
            )
            if deadline is not None:
                # never sleep past the wait deadline: the next poll
                # happens while the answer can still matter
                standoff = min(
                    standoff, max(0.0, deadline - (clock() - started))
                )
            self.sleep(standoff)
            poll += 1


__all__ = ["DaemonClient", "DaemonUnavailable", "RETRYABLE_ERRORS"]

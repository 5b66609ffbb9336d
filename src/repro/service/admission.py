"""Admission control: bounded queue depth and load shedding.

The service refuses work it cannot credibly serve instead of letting
the queue grow without bound.  :class:`AdmissionController` makes one
deterministic decision per submission from the current *pending depth*
(jobs not yet in a terminal state):

* at or beyond ``max_depth`` the queue is hard-capped — reject;
* at or beyond ``high_watermark`` the service is shedding load —
  reject-with-reason, and the rejection is journaled as a ``shed``
  record so the queue counters account for every refused job;
* between the watermarks, *backpressure* is signalled (hysteresis:
  raised at the high watermark, cleared at the low one) so upstream
  producers can slow down before rejections start.

A rejection is an :class:`AdmissionDecision` with ``admitted`` false
and a reason; the controller raises nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth bounds for one service."""

    #: hard cap: submissions at this pending depth are always refused
    max_depth: int = 256
    #: shed load at or beyond this pending depth
    high_watermark: int = 64
    #: backpressure clears once pending depth falls back to this
    low_watermark: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.low_watermark <= self.high_watermark <= self.max_depth:
            raise ValueError(
                f"admission watermarks must satisfy 0 < low <= high <= max, "
                f"got low={self.low_watermark} high={self.high_watermark} "
                f"max={self.max_depth}"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one submission attempt."""

    admitted: bool
    reason: str = ""
    #: shed responses carry a deterministic retry hint (seconds) the
    #: daemon client honors before resubmitting; 0 when admitted
    retry_after: float = 0.0


class AdmissionController:
    """Stateful (hysteresis only) admission gate for one service."""

    def __init__(self, policy: AdmissionPolicy = AdmissionPolicy()) -> None:
        self.policy = policy
        self._backpressure = False

    def backpressure(self, pending_depth: int) -> bool:
        """Update + return the backpressure signal (with hysteresis)."""
        if pending_depth >= self.policy.high_watermark:
            self._backpressure = True
        elif pending_depth <= self.policy.low_watermark:
            self._backpressure = False
        return self._backpressure

    def retry_after_hint(self, pending_depth: int) -> float:
        """Deterministic retry-after (seconds) for a shed submission.

        Scales with how far past the low watermark the queue is, so the
        deeper the backlog, the longer clients stand off — a pure
        function of depth (no wall clock, no randomness), so equal-load
        replays hint identically.
        """
        excess = max(1, pending_depth - self.policy.low_watermark)
        return min(60.0, 0.5 * excess)

    def decide(self, pending_depth: int) -> AdmissionDecision:
        """Admit or reject one submission at the given pending depth."""
        self.backpressure(pending_depth)
        if pending_depth >= self.policy.max_depth:
            return AdmissionDecision(
                False,
                f"queue at hard depth cap ({pending_depth} >= "
                f"max_depth {self.policy.max_depth})",
                retry_after=self.retry_after_hint(pending_depth),
            )
        if pending_depth >= self.policy.high_watermark:
            return AdmissionDecision(
                False,
                f"load shed: pending depth {pending_depth} >= high "
                f"watermark {self.policy.high_watermark} (retry when the "
                f"queue drains below {self.policy.low_watermark})",
                retry_after=self.retry_after_hint(pending_depth),
            )
        return AdmissionDecision(True)

    def describe(self, pending_depth: int) -> str:
        """One-line backpressure status."""
        if self.backpressure(pending_depth):
            return (
                f"backpressure (pending {pending_depth} >= high watermark "
                f"{self.policy.high_watermark}; clears at "
                f"{self.policy.low_watermark})"
            )
        return (
            f"none (pending {pending_depth} < high watermark "
            f"{self.policy.high_watermark})"
        )

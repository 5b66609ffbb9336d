"""Scheduling policy: which pending job runs next, and who yields.

The ROADMAP's intake/policy/execution split puts every *ordering*
decision here, between the request intake (:mod:`.server`) and the
execution pool (:mod:`.pool`):

* **pick order** — highest priority first, then earliest deadline
  (EDF within a priority band), then submission order.  A pure
  function of queue state, so two replicas looking at the same journal
  agree on the next job without coordination;
* **deadline expiry** — jobs whose absolute deadline has already
  passed are *refused before leasing* (``FAILED(deadline)``), so a
  dead-on-arrival cell never consumes a worker;
* **preemption** — a strictly-higher-priority pending job preempts a
  running lower-priority cell: the runner is killed, the cell is
  requeued (attempts preserved — requeue is the same journaled
  ``reclaim`` arrow crash recovery uses, so it is preemption-safe by
  construction), and the high-priority job runs first.  Preemption of
  equal or higher priority is never allowed — it would livelock two
  equal jobs into taking turns killing each other.

The policy never mutates state and never touches the journal; it only
reads :class:`~repro.service.state.QueueState` and answers questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .state import SUBMITTED, Job, QueueState


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for the scheduling policy."""

    #: allow a higher-priority pending job to preempt a running cell
    preemption: bool = True
    #: a running cell is only preempted once it has held the worker at
    #: least this long (seconds) — bounds thrash under bursty submits
    min_run_before_preempt: float = 0.0


class SchedulingPolicy:
    """Deterministic priority + earliest-deadline-first job ordering."""

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config if config is not None else PolicyConfig()

    # ------------------------------------------------------------------ #
    # Ordering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rank(position: Dict[str, int], job: Job) -> tuple:
        # deadline 0 means "none": sort it after every real deadline
        deadline = job.deadline_unix if job.deadline_unix else float("inf")
        return (-job.priority, deadline, position[job.job_id])

    def runnable(self, state: QueueState, now_unix: float) -> List[Job]:
        """Pending jobs in run order, expired deadlines excluded."""
        # submission positions resolved once per call: order.index()
        # inside the sort key would be O(n^2) in queue depth, and this
        # runs on every next_job() and heartbeat preemption check
        position = {
            job_id: index for index, job_id in enumerate(state.order)
        }
        ready = [
            job
            for job in state.pending()
            if not job.past_deadline(now_unix)
        ]
        ready.sort(key=lambda job: self._rank(position, job))
        return ready

    def pick_next(self, state: QueueState, now_unix: float) -> Optional[Job]:
        """The job the pool should lease next, or None when idle."""
        ready = self.runnable(state, now_unix)
        return ready[0] if ready else None

    def expired(self, state: QueueState, now_unix: float) -> List[Job]:
        """Pending jobs already past their deadline, submission order.

        The pool journals each as ``FAILED(deadline)`` — dead on
        arrival, never leased, never silently kept.
        """
        return [
            job
            for job in state.pending()
            if job.past_deadline(now_unix)
        ]

    # ------------------------------------------------------------------ #
    # Preemption
    # ------------------------------------------------------------------ #
    def should_preempt(
        self,
        state: QueueState,
        running: Job,
        now_unix: float,
        held_for: float = 0.0,
    ) -> Optional[Job]:
        """The pending job that justifies killing ``running``, if any.

        Only a *strictly* higher priority preempts, and only after the
        running cell has held the worker ``min_run_before_preempt``
        seconds.  Returns the winning pending job or None.
        """
        if not self.config.preemption:
            return None
        if held_for < self.config.min_run_before_preempt:
            return None
        best = self.pick_next(state, now_unix)
        if best is None or best.state != SUBMITTED:
            return None
        if best.priority > running.priority:
            return best
        return None

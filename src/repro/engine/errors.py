"""Structured error taxonomy for supervised simulation runs.

Every failure the execution layer can produce is a subclass of
:class:`SimulationError`, tagged with a stable ``error_class`` string
(used in checkpoint files, JSON error output, and figure cell markers)
and a distinct process ``exit_code`` so scripted sweeps can branch on
the failure kind without parsing messages.

The taxonomy crosses process boundaries by name: a supervised worker
sends ``(error_class, message)`` over its pipe and the parent rebuilds
the typed exception with :func:`error_from_class`.

Exit codes 10–12 and 14–16 are retired: they named failures of the
sweep-queue daemon and its journal, which no longer exist, and they are
not reused.  A retired tag arriving over the wire rebuilds as a plain
:class:`SimulationError`, like any other unknown tag.
"""

from __future__ import annotations

from typing import Dict, Type


class SimulationError(RuntimeError):
    """Base class: a simulation cell failed and cannot produce a result."""

    #: stable machine-readable tag (also the ``FAILED(<tag>)`` cell marker)
    error_class: str = "simulation"
    #: process exit code the CLI returns for this failure kind
    exit_code: int = 2


class LivelockError(SimulationError):
    """The event loop stopped making forward progress (or exhausted its
    hard event budget)."""

    error_class = "livelock"
    exit_code = 5


class ConfigError(SimulationError, ValueError):
    """A :class:`~repro.arch.config.GPUConfig` is internally inconsistent.

    Also a :class:`ValueError` so pre-taxonomy callers keep working.
    """

    error_class = "config"
    exit_code = 3

    def __init__(self, message: str, field: str = "") -> None:
        super().__init__(message)
        #: name of the offending configuration field, when known
        self.field = field


class WorkloadError(SimulationError, ValueError):
    """A benchmark trace could not be generated or failed validation."""

    error_class = "workload"
    exit_code = 4


class CellTimeoutError(SimulationError):
    """A supervised worker exceeded its wall-clock budget and was killed."""

    error_class = "timeout"
    exit_code = 6


class WorkerCrash(SimulationError):
    """A supervised worker died without reporting a result (signal,
    ``os._exit``, interpreter abort)."""

    error_class = "worker_crash"
    exit_code = 7


class CheckpointError(SimulationError):
    """An on-disk checkpoint is corrupt or from an incompatible version."""

    error_class = "checkpoint"
    exit_code = 8


class SanitizerError(SimulationError):
    """A runtime invariant check failed: the timing model entered an
    architecturally illegal state (see :mod:`repro.sanitizer`).

    Carries the stable checker ``tag`` (e.g. ``tlb.overfill``); the
    effective ``error_class`` is ``sanitizer:<tag>`` so reports degrade
    to ``FAILED(sanitizer:<tag>)`` and scripted sweeps can branch on the
    exact violated invariant.
    """

    error_class = "sanitizer"
    exit_code = 9

    def __init__(self, message: str, tag: str = "") -> None:
        super().__init__(message)
        #: stable dotted checker tag, e.g. ``queue.past_event``
        self.tag = tag
        if tag:
            # instance attribute shadows the class tag so classify()
            # and CellFailure.marker carry the precise violation
            self.error_class = f"sanitizer:{tag}"


class InterruptedRunError(SimulationError):
    """The run was interrupted (SIGINT/SIGTERM) and drained gracefully:
    checkpoints and telemetry were flushed, unfinished cells degrade to
    ``FAILED(interrupted)``."""

    error_class = "interrupted"
    exit_code = 13


#: error_class tag -> exception type (parent-side reconstruction map)
ERROR_CLASSES: Dict[str, Type[SimulationError]] = {
    cls.error_class: cls
    for cls in (
        SimulationError,
        LivelockError,
        ConfigError,
        WorkloadError,
        CellTimeoutError,
        WorkerCrash,
        CheckpointError,
        SanitizerError,
        InterruptedRunError,
    )
}

#: failure kinds worth retrying: the cell may succeed on a clean re-run
TRANSIENT_CLASSES = frozenset({"worker_crash", "timeout"})


def error_from_class(error_class: str, message: str) -> SimulationError:
    """Rebuild a typed taxonomy error from its wire representation."""
    if error_class.startswith("sanitizer"):
        # sanitizer tags travel inside the class: "sanitizer:<tag>"
        return SanitizerError(message, tag=error_class.partition(":")[2])
    return ERROR_CLASSES.get(error_class, SimulationError)(message)


def classify(exc: BaseException) -> str:
    """Map any exception onto a taxonomy tag."""
    if isinstance(exc, SimulationError):
        return exc.error_class
    return "simulation"

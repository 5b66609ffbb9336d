"""Supervised cell execution: isolated workers, watchdog, retry/backoff.

One simulation *cell* — a (benchmark × configuration) point of a sweep —
is described by a :class:`CellSpec` and executed by a
:class:`Supervisor`:

* each attempt runs in a forked subprocess, so a crash, OOM kill, or
  runaway cell cannot take the sweep down with it;
* a wall-clock watchdog kills workers that exceed ``timeout`` seconds
  (:class:`~repro.engine.errors.CellTimeoutError`);
* failures are classified into the structured taxonomy of
  :mod:`repro.engine.errors`; transient classes (worker crash, timeout)
  are retried with deterministic exponential backoff, deterministic ones
  (livelock, bad config, bad workload) fail fast;
* a :class:`~repro.engine.faults.FaultPlan` can force any failure mode
  on demand, so every recovery path above is exercised by tests.

The worker body (:func:`simulate_cell`) imports the architecture layers
lazily: the engine package stays the bottom layer at import time and
only reaches upward inside a running worker.  It runs single-tenant and
multi-tenant cells alike: a spec that carries a
:class:`~repro.tenancy.TenancySpec` is dispatched to the tenancy
machine.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

from .errors import (
    TRANSIENT_CLASSES,
    CellTimeoutError,
    ConfigError,
    SimulationError,
    WorkerCrash,
    WorkloadError,
    classify,
    error_from_class,
)
from .faults import FaultPlan, FaultSpec, trigger


def cell_key(
    benchmark: str,
    config: Any,
    occupancy_override: Optional[int] = None,
    tenancy: Any = None,
) -> Tuple[Any, ...]:
    """The content key of one simulation: what it computes, not what a
    caller named it.

    Two cells with equal benchmark, config hash (the tenant composition
    folded in) and occupancy override are the same simulation, whatever
    their tags.  Scale and seed are fixed per sweep (the checkpoint
    header pins them); observers (TLB trace, sampling, tracing) never
    change a result, so they are requests on a cell, not part of it.
    """
    from ..telemetry.manifest import config_hash

    describe = None if tenancy is None else tenancy.describe()
    return (benchmark, config_hash(config, tenancy=describe), occupancy_override)


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to simulate one sweep cell from scratch.

    ``config`` is the full (picklable) GPUConfig object so workers never
    depend on the parent's registry state; ``config_tag`` is the name
    used for fault-plan lookups and trace labels, and
    ``alias_tags`` are the other names the same simulation was requested
    under (a fault plan entry for any of them fires).  ``tenancy`` (a
    :class:`~repro.tenancy.TenancySpec`) makes this a multi-tenant cell
    whose ``benchmark`` names the mix.
    """

    benchmark: str
    config: Any
    config_tag: str
    scale: str = "small"
    seed: int = 0
    record_tlb_trace: bool = False
    occupancy_override: Optional[int] = None
    #: per-cell telemetry (TelemetrySettings); workers build the tracer/
    #: sampler it describes and write the trace to its per-cell path
    telemetry: Optional[Any] = None
    #: sanitizer mode ("strict"/"cheap"/None); NOT part of ``key`` —
    #: sanitizing never changes a correct cell's result, so memoized and
    #: checkpointed results stay valid with the flag on or off
    sanitize: Optional[str] = None
    alias_tags: Tuple[str, ...] = ()
    tenancy: Optional[Any] = None

    @property
    def key(self) -> Tuple[Any, ...]:
        """The content key (:func:`cell_key`) of this cell."""
        return cell_key(
            self.benchmark, self.config, self.occupancy_override, self.tenancy
        )


@dataclass
class CellFailure:
    """Terminal outcome of a cell that could not produce a result."""

    error_class: str
    message: str
    attempts: int = 1
    elapsed: float = 0.0

    @property
    def marker(self) -> str:
        """The ``FAILED(<reason>)`` cell marker used by report tables."""
        return f"FAILED({self.error_class})"


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for transient failures.

    The schedule depends on nothing but the attempt number, so two
    equal-seed fault-injected runs retry on byte-identical schedules.
    """

    #: total attempts (first try + retries)
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based)."""
        return self.backoff_base * (self.backoff_factor ** attempt)


def simulate_cell(spec: CellSpec) -> Any:
    """The cell body: build the workload + machine, run, summarize.

    Usable both supervised (inside a worker) and unsupervised (fast
    in-process path); classifies workload-construction errors.  When the
    spec carries telemetry settings, the tracer/sampler are built here —
    inside the worker for supervised runs — and the trace file is
    written to the spec's per-cell path before the result is reported,
    so the parent can merge per-cell files after the sweep.  Returns a
    :class:`~repro.arch.gpu.RunResult`, or a
    :class:`~repro.tenancy.TenancyResult` for a multi-tenant spec.
    """
    kernel = None
    if spec.tenancy is None:
        from ..workloads import make_benchmark

        try:
            kernel = make_benchmark(
                spec.benchmark, scale=spec.scale, seed=spec.seed
            )
        except SimulationError:
            raise
        except ValueError as exc:
            raise WorkloadError(
                f"benchmark {spec.benchmark!r} failed to generate: {exc}"
            ) from exc
    sim = None
    tracer = None
    sampler = None
    telemetry = spec.telemetry
    if telemetry is not None and telemetry.active:
        from ..telemetry import TimeSeriesSampler, Tracer

        tracer = Tracer() if telemetry.trace_path is not None else None
        sampler = (
            TimeSeriesSampler(telemetry.sample_every)
            if telemetry.sample_every is not None
            else None
        )
    from ..sanitizer.core import Sanitizer

    # explicit CLI mode wins over REPRO_SANITIZE; None falls back to it
    sanitizer = Sanitizer.make(spec.sanitize)
    if (
        tracer is not None
        or sampler is not None
        or sanitizer is not None
        # an explicit "off" must pin sanitizer=None here: a default
        # Simulator would re-read REPRO_SANITIZE and turn it back on
        or spec.sanitize is not None
    ):
        from ..engine.simulator import Simulator

        sim = Simulator(tracer=tracer, sampler=sampler, sanitizer=sanitizer)
    if kernel is None:
        from ..tenancy import build_tenant_gpu

        gpu = build_tenant_gpu(spec.tenancy, spec.config, sim=sim)
        result = gpu.run_tenants(occupancy_override=spec.occupancy_override)
        label = f"tenancy:{'+'.join(spec.tenancy.mix)}:{spec.config_tag}"
    else:
        from ..system import build_gpu

        gpu = build_gpu(
            spec.config, sim=sim, record_tlb_trace=spec.record_tlb_trace
        )
        result = gpu.run(kernel, occupancy_override=spec.occupancy_override)
        label = f"{spec.benchmark}:{spec.config_tag}"
    if tracer is not None:
        tracer.export(telemetry.trace_path, label=label)
    return result


def _worker_main(spec: CellSpec, fault: Optional[FaultSpec], conn) -> None:
    """Subprocess entry point: run one attempt, report over the pipe."""
    # A terminal Ctrl-C signals the whole foreground process group; the
    # drain decision belongs to the supervising parent (see
    # engine/interrupt.py).  A worker that died to the shared SIGINT
    # would look like a transient crash and be pointlessly retried.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        if fault is not None:
            trigger(fault)
        result = simulate_cell(spec)
        conn.send(("ok", result.to_dict()))
    except BaseException as exc:  # noqa: BLE001 — everything must be reported
        try:
            conn.send(("error", classify(exc), f"{exc}"))
        except Exception:
            pass  # pipe gone: parent sees EOF and classifies WorkerCrash
    finally:
        conn.close()


@dataclass
class Supervisor:
    """Runs cells in supervised workers with watchdog + retry."""

    timeout: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_plan: Optional[FaultPlan] = None
    #: injectable for tests (recorded backoff without real waiting)
    sleep: Callable[[float], None] = time.sleep
    #: injectable clock for elapsed accounting
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        # a budget of 0, a negative one or NaN would start a worker only
        # to kill it and misreport the refusal as a cell timeout
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise ConfigError(
                f"timeout must be a positive number of seconds, "
                f"got {self.timeout:g}",
                field="timeout",
            )
        # fork keeps worker start cheap and needs no pickling of targets;
        # every supported platform for this repo (linux CI) provides it.
        self._ctx = multiprocessing.get_context("fork")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run_cell(self, spec: CellSpec):
        """Run one cell to success or terminal failure.

        Returns the worker's result dict (see ``RunResult.to_dict``).
        Raises a taxonomy error carrying ``attempts`` and ``elapsed``
        attributes when the cell is given up on.
        """
        started = self.clock()
        last_exc: Optional[SimulationError] = None
        for attempt in range(self.retry.max_attempts):
            fault = None
            if self.fault_plan is not None:
                fault = self.fault_plan.lookup(
                    spec.benchmark, spec.config_tag, attempt,
                    aliases=spec.alias_tags,
                )
            try:
                result = self._attempt(spec, fault)
            except SimulationError as exc:
                last_exc = exc
                terminal = (
                    exc.error_class not in TRANSIENT_CLASSES
                    or attempt == self.retry.max_attempts - 1
                )
                if terminal:
                    exc.attempts = attempt + 1
                    exc.elapsed = self.clock() - started
                    raise
                self.sleep(self.retry.delay(attempt))
                continue
            return result
        raise last_exc  # unreachable: loop always returns or raises

    # ------------------------------------------------------------------ #
    # One supervised attempt
    # ------------------------------------------------------------------ #
    def _attempt(self, spec: CellSpec, fault: Optional[FaultSpec]):
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec, fault, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        try:
            try:
                reported = parent_conn.poll(self.timeout)
            except BaseException:
                # a graceful-drain signal raising mid-wait must not leave
                # the worker running — nor stall 5s in the join below
                self._kill(proc)
                raise
            if not reported:
                self._kill(proc)
                raise CellTimeoutError(
                    f"cell ({spec.benchmark}, {spec.config_tag}) exceeded "
                    f"{self.timeout:g}s wall-clock budget; worker killed"
                )
            try:
                message = parent_conn.recv()
            except EOFError:
                proc.join()
                raise WorkerCrash(
                    f"worker for ({spec.benchmark}, {spec.config_tag}) died "
                    f"without reporting (exitcode={proc.exitcode})"
                ) from None
        finally:
            parent_conn.close()
            if proc.is_alive():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    self._kill(proc)
        if message[0] == "ok":
            return message[1]
        _, error_class, text = message
        raise error_from_class(
            error_class,
            f"cell ({spec.benchmark}, {spec.config_tag}): {text}",
        )

    @staticmethod
    def _kill(proc) -> None:
        proc.kill()
        proc.join()

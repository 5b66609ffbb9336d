"""Experiment runner: a declared plan of cells, deduplicated by content
and simulated once by one executor.

Every experiment module declares the cells it needs as :class:`Cell`
records (benchmark, config, tag, occupancy, tenancy, observer requests)
and computes its result from the mapping :meth:`ExperimentRunner.execute`
returns, keyed by ``(benchmark, tag)``.  The runner identifies a
simulation by its *content key* (:func:`~repro.engine.supervision.cell_key`:
benchmark, config hash, occupancy override), not by its tag, so cells
that several experiments request under different names (``geo_64x4``
is ``baseline``) are simulated once.  Observers — a TLB access trace,
time-series sampling, a Chrome-trace part — never change a result (the
``telemetry`` self-check suite), so they are requests merged onto the
one cell rather than part of its key.  ``repro report`` declares every
experiment's cells before any of them runs.

On top of the plan the runner layers the resilience features of
:mod:`repro.engine.supervision`:

* a ``timeout`` or a ``fault_plan`` runs each cell in an isolated subprocess
  worker with a wall-clock watchdog and retries transient failures with
  exponential backoff; ``parallel=N`` runs up to N such workers at
  once, starting every planned cell as soon as it is declared;
* results are integrated — memo, checkpoint, trace parts — in plan
  order, whatever order the workers finish in, so a parallel sweep is
  byte-identical to a sequential one;
* ``checkpoint_path`` appends every completed cell to a versioned
  on-disk store keyed by content; ``resume=True`` preloads it, and a
  restored record satisfies a cell that carries every observer the plan
  merged onto it;
* ``strict=False`` converts terminal cell failures into placeholder
  :meth:`RunResult.make_failed` results — the figure modules render
  those cells as ``FAILED(<reason>)`` instead of aborting the report.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig
from ..arch.gpu import RunResult
from ..arch.kernel import Kernel
from ..engine.checkpoint import CheckpointStore
from ..engine.errors import (
    CheckpointError,
    ConfigError,
    SimulationError,
    classify,
)
from ..engine.faults import FaultPlan
from ..engine.supervision import (
    CellFailure,
    CellSpec,
    RetryPolicy,
    Supervisor,
    cell_key,
    simulate_cell,
)
from ..sanitizer import normalize_mode
from ..telemetry import (
    RunManifest,
    TelemetrySettings,
    merge_traces,
)
from ..tenancy import TenancyResult, TenancySpec
from ..workloads import BENCHMARKS, make_benchmark
from .configs import get_config

CellKey = Tuple
#: one experiment's view of the sweep: ``(benchmark, tag) -> result``
Results = Dict[Tuple[str, str], Any]


@dataclass(frozen=True)
class Cell:
    """One simulation an experiment asks for.

    ``tag`` names the cell inside its experiment and in fault plans,
    failure reports and trace labels.  ``record_tlb_trace`` and
    ``sample_every`` are observer requests: the plan merges them over
    every request for the same content.  A ``tenancy`` spec makes this a
    multi-tenant cell; ``benchmark`` then names the mix (``bfs+gemm``).
    """

    benchmark: str
    tag: str
    config: GPUConfig
    occupancy_override: Optional[int] = None
    tenancy: Optional[TenancySpec] = None
    record_tlb_trace: bool = False
    sample_every: Optional[int] = None


def named_cell(benchmark: str, config_name: str, **requests: Any) -> Cell:
    """A cell of one of the named configurations, tagged by its name."""
    return Cell(benchmark, config_name, get_config(config_name), **requests)


def decode_result(payload: Dict) -> Any:
    """A worker's or checkpoint's result dict back as its result object."""
    if "tenants" in payload:
        return TenancyResult.from_dict(payload)
    return RunResult.from_dict(payload)


@dataclass
class _Planned:
    """One distinct simulation of the plan: the first request, every tag
    that asked for it, and the union of the observers requested."""

    key: CellKey
    position: int
    cell: Cell
    tags: List[str] = field(default_factory=list)
    record_tlb_trace: bool = False
    sample_every: Optional[int] = None

    def merge(self, cell: Cell, sample_every: Optional[int]) -> None:
        if cell.tag not in self.tags:
            self.tags.append(cell.tag)
        self.record_tlb_trace = self.record_tlb_trace or cell.record_tlb_trace
        if sample_every is not None and self.sample_every != sample_every:
            if self.sample_every is not None:
                raise ConfigError(
                    f"cell ({cell.benchmark}, {'/'.join(self.tags)}) is "
                    f"asked to sample every {self.sample_every} and every "
                    f"{sample_every} cycles"
                )
            self.sample_every = sample_every

    def satisfied_by(self, result: Any) -> bool:
        """Does ``result`` carry every observer this cell requests?"""
        run = result.combined if isinstance(result, TenancyResult) else result
        if self.record_tlb_trace and run.tlb_traces is None:
            return False
        if self.sample_every is not None and (
            run.timeseries is None
            or run.timeseries["interval"] != self.sample_every
        ):
            return False
        return True


@dataclass
class ExperimentRunner:
    """Planning, supervising simulation front-end for the figure modules."""

    scale: str = "small"
    seed: int = 0
    benchmarks: Tuple[str, ...] = BENCHMARKS
    #: wall-clock budget per cell attempt (seconds); implies supervision
    timeout: Optional[float] = None
    #: retry/backoff schedule for transient failures (supervised mode)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: versioned on-disk cell cache; every completed cell is appended
    checkpoint_path: Optional[str] = None
    #: preload the checkpoint instead of starting fresh
    resume: bool = False
    #: deterministic fault injection (tests / CI smoke); implies supervision
    fault_plan: Optional[FaultPlan] = None
    #: raise on cell failure (True) or degrade to FAILED placeholders
    strict: bool = True
    #: merged Chrome trace destination; each simulated cell writes a
    #: per-cell part next to it, merged (one pid per cell) by close()
    trace_path: Optional[str] = None
    #: default time-series sampling interval for every cell (cycles);
    #: a cell's own ``sample_every`` overrides it
    sample_every: Optional[int] = None
    #: runtime invariant checking mode ("strict"/"cheap"/"off"/None);
    #: ``None`` lets workers fall back to REPRO_SANITIZE, "off" forces it
    #: off even when the environment asks for it
    sanitize: Optional[str] = None
    #: supervised worker processes the plan runs on; 1 keeps every cell
    #: sequential (in-process unless supervised)
    parallel: int = 1
    #: cells actually simulated (excludes memo and checkpoint hits)
    cells_simulated: int = 0
    #: cells restored from the on-disk checkpoint
    cells_restored: int = 0

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigError(
                f"parallel must be at least 1 worker, got {self.parallel}",
                field="parallel",
            )
        self._started = time.monotonic()
        self._plan: Dict[CellKey, _Planned] = {}
        self._results: Dict[CellKey, Any] = {}
        self._failed: Dict[CellKey, RunResult] = {}
        self._failures: Dict[CellKey, CellFailure] = {}
        #: planned cells running on the worker pool: key -> (future, spec,
        #: trace part)
        self._pending: Dict[CellKey, Tuple[Future, CellSpec, Optional[str]]] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        self._trace_parts: List[Tuple[str, str]] = []
        self._trace_seq = 0
        #: first config hash declared under each tag, for the manifest
        self._config_hashes: Dict[str, str] = {}
        if self.sanitize is not None:
            # fail fast on a bad mode string ("off" stays distinct from
            # None: it must override REPRO_SANITIZE inside workers)
            normalize_mode(self.sanitize)
        self._supervisor = Supervisor(
            timeout=self.timeout,
            retry=self.retry,
            fault_plan=self.fault_plan,
        )
        self._store: Optional[CheckpointStore] = None
        if self.checkpoint_path is not None:
            self._store = CheckpointStore(
                self.checkpoint_path, scale=self.scale, seed=self.seed
            )
            if self.resume:
                for key, payload in self._store.load().items():
                    self._results[tuple(key)] = decode_result(payload)
                    self.cells_restored += 1
            elif self._store.exists():
                self._store.discard()

    # ------------------------------------------------------------------ #
    # Workload construction
    # ------------------------------------------------------------------ #
    def kernel(self, benchmark: str) -> Kernel:
        return make_benchmark(benchmark, scale=self.scale, seed=self.seed)

    # ------------------------------------------------------------------ #
    # Single cells
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: str,
        config_name: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> RunResult:
        """Simulate one named-configuration cell (memoized by content)."""
        return self.run_config(
            benchmark,
            get_config(config_name),
            config_name,
            record_tlb_trace=record_tlb_trace,
            occupancy_override=occupancy_override,
            sample_every=sample_every,
        )

    def run_config(
        self,
        benchmark: str,
        config: GPUConfig,
        tag: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> RunResult:
        """Simulate one cell for an explicit config: a one-cell plan."""
        cell = Cell(
            benchmark,
            tag,
            config,
            occupancy_override=occupancy_override,
            record_tlb_trace=record_tlb_trace,
            sample_every=sample_every,
        )
        return self.execute([cell])[benchmark, tag]

    # ------------------------------------------------------------------ #
    # The plan and its executor
    # ------------------------------------------------------------------ #
    def declare(self, cells: Iterable[Cell]) -> List[CellKey]:
        """Add cells to the plan; returns each cell's content key.

        A cell whose content is already planned merges its tag and
        observer requests onto the planned one.  With ``parallel > 1``
        every planned cell that still needs a simulation starts on the
        worker pool right away.
        """
        keys = []
        for cell in cells:
            key = cell_key(
                cell.benchmark, cell.config, cell.occupancy_override,
                cell.tenancy,
            )
            self._config_hashes.setdefault(cell.tag, key[1])
            planned = self._plan.get(key)
            if planned is None:
                planned = self._plan[key] = _Planned(key, len(self._plan), cell)
            planned.merge(
                cell,
                cell.sample_every
                if cell.sample_every is not None
                else self.sample_every,
            )
            keys.append(key)
        if self.parallel > 1:
            self._submit([self._plan[key] for key in dict.fromkeys(keys)])
        return keys

    def execute(self, cells: Sequence[Cell]) -> Results:
        """Declare ``cells`` and simulate whichever are missing, in plan
        order; returns ``(benchmark, tag) -> result`` for every cell."""
        keys = self.declare(cells)
        todo = {self._plan[key].position: self._plan[key] for key in keys}
        for position in sorted(todo):
            self._ensure(todo[position])
        return {
            (cell.benchmark, cell.tag): self._outcome(key)
            for cell, key in zip(cells, keys)
        }

    def plan_status(self) -> Tuple[int, int, int]:
        """(planned cells, multi-tenant among them, already satisfied by
        the memo or a restored checkpoint record)."""
        return (
            len(self._plan),
            sum(1 for p in self._plan.values() if p.cell.tenancy is not None),
            sum(1 for p in self._plan.values() if self._done(p)),
        )

    def _done(self, planned: _Planned) -> bool:
        if planned.key in self._failed:
            return True
        result = self._results.get(planned.key)
        return result is not None and planned.satisfied_by(result)

    def _spec(self, planned: _Planned) -> Tuple[CellSpec, Optional[str]]:
        """The :class:`CellSpec` (plus trace part path) for one cell."""
        cell = planned.cell
        part = None
        if self.trace_path is not None:
            part = f"{self.trace_path}.cell{self._trace_seq}.part"
            self._trace_seq += 1
        telemetry = None
        if part is not None or planned.sample_every is not None:
            telemetry = TelemetrySettings(
                trace_path=part, sample_every=planned.sample_every
            )
        spec = CellSpec(
            benchmark=cell.benchmark,
            config=cell.config,
            config_tag=planned.tags[0],
            scale=self.scale,
            seed=self.seed,
            record_tlb_trace=planned.record_tlb_trace,
            occupancy_override=cell.occupancy_override,
            telemetry=telemetry,
            sanitize=self.sanitize,
            alias_tags=tuple(planned.tags[1:]),
            tenancy=cell.tenancy,
        )
        return spec, part

    def _submit(self, planned_cells: List[_Planned]) -> None:
        """Start every planned cell that still needs a simulation on the
        worker pool."""
        jobs = [
            planned
            for planned in planned_cells
            if not self._done(planned) and planned.key not in self._pending
        ]
        if not jobs:
            return
        if self._pool is None:
            _preimport_worker_modules()
            self._pool = ThreadPoolExecutor(max_workers=self.parallel)
        # forked workers inherit the parent's kernel memo: generate each
        # workload once here instead of once per cell
        for benchmark in dict.fromkeys(
            name
            for planned in jobs
            for name in (
                planned.cell.tenancy.mix
                if planned.cell.tenancy is not None
                else (planned.cell.benchmark,)
            )
        ):
            try:
                self.kernel(benchmark)
            except (SimulationError, ValueError):
                pass  # the worker reproduces and classifies it
        for planned in jobs:
            spec, part = self._spec(planned)
            future = self._pool.submit(self._supervisor.run_cell, spec)
            self._pending[planned.key] = (future, spec, part)

    def _ensure(self, planned: _Planned) -> None:
        """Make ``planned`` done: collect its worker or simulate it now."""
        if self._done(planned):
            return
        pending = self._pending.pop(planned.key, None)
        try:
            if pending is not None:
                future, spec, part = pending
                result = decode_result(future.result())
                if not planned.satisfied_by(result):
                    # an observer was merged on after the worker started
                    pending = None
            if pending is None:
                spec, part = self._spec(planned)
                result = self._execute(spec)
            self.cells_simulated += 1
            if part is not None:
                self._trace_parts.append(
                    (f"{planned.cell.benchmark}:{planned.tags[0]}", part)
                )
            # a refused append fails this cell like any other failure
            if self._store is not None:
                self._store.append(planned.key, result.to_dict())
        except SimulationError as exc:
            failure = CellFailure(
                error_class=classify(exc),
                message=str(exc),
                attempts=getattr(exc, "attempts", 1),
                elapsed=getattr(exc, "elapsed", 0.0),
            )
            self._failures[planned.key] = failure
            if self.strict:
                self._stop_pool()
                raise
            self._failed[planned.key] = RunResult.make_failed(
                planned.cell.benchmark, failure.error_class
            )
            return
        self._results[planned.key] = result

    @property
    def supervised(self) -> bool:
        """Whether sequential cells run in isolated subprocess workers."""
        return self.timeout is not None or self.fault_plan is not None

    def _execute(self, spec: CellSpec) -> Any:
        if self.supervised:
            return decode_result(self._supervisor.run_cell(spec))
        return simulate_cell(spec)

    def _outcome(self, key: CellKey) -> Any:
        result = self._results.get(key)
        return result if result is not None else self._failed[key]

    def _stop_pool(self) -> None:
        """Cancel every cell not yet started; wait for running ones."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._pending.clear()

    # ------------------------------------------------------------------ #
    # Degradation bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def failures(self) -> Dict[CellKey, CellFailure]:
        """Terminal cell failures keyed ``(benchmark, tag, config hash,
        occupancy)``; ``tag`` is the first that requested the cell."""
        return {
            (key[0], self._plan[key].tags[0]) + key[1:]: failure
            for key, failure in self._failures.items()
        }

    def failure_for(self, benchmark: str, tag: str) -> Optional[CellFailure]:
        for key, failure in self._failures.items():
            if key[0] == benchmark and tag in self._plan[key].tags:
                return failure
        return None

    def failure_summary(self) -> List[str]:
        """One human-readable line per failed cell, naming every tag."""
        lines = []
        for key, f in sorted(
            self._failures.items(),
            key=lambda kv: (kv[0][0], self._plan[kv[0]].tags[0]),
        ):
            lines.append(
                f"({key[0]}, {'/'.join(self._plan[key].tags)}) {f.marker} "
                f"after {f.attempts} attempt(s): {f.message.splitlines()[0]}"
            )
        return lines

    def finalize_trace(self) -> Optional[str]:
        """Merge per-cell trace parts into ``trace_path`` (idempotent).

        Each cell becomes its own Chrome "process" named
        ``benchmark:config`` in the merged file; the part files are
        removed after a successful merge.  Returns the merged path, or
        ``None`` when tracing was off or produced nothing.
        """
        if self.trace_path is None or not self._trace_parts:
            return None
        merged = merge_traces(self._trace_parts, self.trace_path)
        for _, part in self._trace_parts:
            if os.path.exists(part):
                os.remove(part)
        self._trace_parts = []
        return merged

    def _manifest(self, artifact_kind: str, artifact_path: str) -> RunManifest:
        """Reproducibility manifest for an artifact this runner produced."""
        return RunManifest(
            artifact_kind=artifact_kind,
            artifact_path=artifact_path,
            scale=self.scale,
            seed=self.seed,
            benchmarks=list(self.benchmarks),
            config_hashes=dict(sorted(self._config_hashes.items())),
            trace_path=self.trace_path,
            sample_every=self.sample_every,
            cells_simulated=self.cells_simulated,
            cells_restored=self.cells_restored,
            wall_time_s=time.monotonic() - self._started,
        )

    def write_manifest(self, artifact_kind: str, artifact_path: str) -> str:
        """Write ``<artifact>.manifest.json`` next to an artifact."""
        return self._manifest(artifact_kind, artifact_path).write()

    def close(self) -> None:
        """Stop the worker pool, flush telemetry artifacts and release
        the checkpoint store.

        Writes the merged trace plus a manifest sidecar for the trace
        and for the checkpoint store, so every on-disk artifact of this
        runner is reproducible from the files next to it.
        """
        self._stop_pool()
        merged = self.finalize_trace()
        if merged is not None:
            self.write_manifest("trace", merged)
        if self._store is not None:
            # compaction squeezes out any torn tail a crashed ancestor
            # left behind, so the surviving store is byte-exact JSONL;
            # both writes are atomic, so a full disk leaves the appended
            # store as it was, still resumable
            try:
                self._store.close(compact=True)
                self.write_manifest("checkpoint", self._store.path)
            except OSError as exc:
                raise CheckpointError(
                    f"{self._store.path}: checkpoint close failed: {exc}"
                ) from exc


def _preimport_worker_modules() -> None:
    """Import everything a cell worker needs before forking from threads.

    ``simulate_cell`` imports the architecture stack lazily; with the
    modules already in ``sys.modules`` a forked child never acquires the
    import lock, which a thread in the parent could have held at fork
    time.
    """
    from ..sanitizer.core import Sanitizer  # noqa: F401
    from ..system import build_gpu  # noqa: F401
    from ..telemetry import TimeSeriesSampler, Tracer  # noqa: F401
    from ..tenancy import build_tenant_gpu  # noqa: F401
    from ..workloads import make_benchmark  # noqa: F401


# ---------------------------------------------------------------------- #
# Shared helpers for the figure modules
# ---------------------------------------------------------------------- #
def collect_failures(
    failures: Dict[str, str], benchmark: str, *results: RunResult
) -> bool:
    """Record any failed cell for ``benchmark``; True when all are ok.

    The figure modules call this at their funnel point so a failed cell
    drops out of the aggregate math and surfaces as a ``FAILED(...)``
    table row instead of poisoning (or aborting) the whole figure.
    """
    ok = True
    for result in results:
        if result.failure is not None:
            failures.setdefault(benchmark, result.failure)
            ok = False
    return ok


def failed_rows(failures: Dict[str, str], width: int = 10) -> List[str]:
    """``FAILED(<reason>)`` table rows for every degraded benchmark."""
    return [
        f"{b:{width}s} FAILED({reason})"
        for b, reason in sorted(failures.items())
    ]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; NaN entries (failed cells) are skipped."""
    vals = [v for v in values if not math.isnan(v)]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean; NaN entries (failed cells) are skipped."""
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else 0.0


@dataclass
class ShapeCheck:
    """One reproduction criterion: the paper's qualitative claim and
    whether our measurement satisfies it."""

    description: str
    passed: bool
    measured: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.measured})" if self.measured else ""
        return f"[{mark}] {self.description}{extra}"


def summarize_checks(checks: List[ShapeCheck]) -> str:
    passed = sum(1 for c in checks if c.passed)
    return f"{passed}/{len(checks)} shape criteria hold"

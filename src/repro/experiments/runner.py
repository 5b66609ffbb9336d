"""Experiment runner: simulate (benchmark × config) cells with caching,
supervision, checkpoint/resume, and graceful degradation.

All figure modules funnel their simulations through one
:class:`ExperimentRunner`, which memoizes :class:`~repro.arch.gpu.RunResult`
per (benchmark, config-tag, trace-recording, occupancy) — Fig 2, 10
and 11 share baseline runs, so a full paper regeneration simulates each
cell exactly once.

On top of the in-memory memo the runner layers the resilience features
of :mod:`repro.engine.supervision`:

* ``supervised=True`` (automatic whenever a ``timeout`` or
  ``fault_plan`` is set) runs each cell in an isolated subprocess
  worker with a wall-clock watchdog and retries transient failures with
  exponential backoff;
* ``checkpoint_path`` appends every completed cell to a versioned
  on-disk store; ``resume=True`` preloads it, so a killed sweep picks
  up where it left off without re-simulating finished cells;
* ``strict=False`` converts terminal cell failures into placeholder
  :meth:`RunResult.make_failed` results — the figure modules render
  those cells as ``FAILED(<reason>)`` instead of aborting the report.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..arch.config import GPUConfig
from ..arch.gpu import RunResult
from ..arch.kernel import Kernel
from ..engine.checkpoint import CheckpointStore
from ..engine.errors import CheckpointError, SimulationError, classify
from ..engine.faults import FaultPlan
from ..engine.supervision import (
    CellFailure,
    CellSpec,
    RetryPolicy,
    Supervisor,
    simulate_cell,
)
from ..sanitizer import normalize_mode
from ..telemetry import (
    RunManifest,
    TelemetrySettings,
    config_hash,
    manifest_path_for,
    merge_traces,
)
from ..workloads import BENCHMARKS, make_benchmark
from .configs import get_config

CellKey = Tuple


@dataclass
class ExperimentRunner:
    """Caching, supervising simulation front-end for the figure modules."""

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
    #: run cells in isolated subprocess workers; ``None`` = auto
    supervised: Optional[bool] = None
    #: raise on cell failure (True) or degrade to FAILED placeholders
    strict: bool = True
    #: merged Chrome trace destination; each simulated cell writes a
    #: per-cell part next to it, merged (one pid per cell) by close()
    trace_path: Optional[str] = None
    #: default time-series sampling interval for every cell (cycles);
    #: per-call ``sample_every`` overrides it
    sample_every: Optional[int] = None
    #: runtime invariant checking mode ("strict"/"cheap"/"off"/None);
    #: ``None`` lets workers fall back to REPRO_SANITIZE, "off" forces it
    #: off even when the environment asks for it
    sanitize: Optional[str] = None
    #: supervised worker processes used by :meth:`prefetch`; 1 keeps
    #: every cell sequential and in-process (the default behaviour)
    parallel: int = 1
    _results: Dict[CellKey, RunResult] = field(default_factory=dict)
    _failed: Dict[CellKey, RunResult] = field(default_factory=dict)
    #: terminal failures keyed like results (inspect after a degraded run)
    failures: Dict[CellKey, CellFailure] = field(default_factory=dict)
    #: cells actually simulated (excludes memo and checkpoint hits)
    cells_simulated: int = 0
    #: cells restored from the on-disk checkpoint
    cells_restored: int = 0

    def __post_init__(self) -> None:
        self._started = time.monotonic()
        self._trace_parts: List[Tuple[str, str]] = []
        self._config_hashes: Dict[str, str] = {}
        #: config hashes recorded by the manifest of a resumed checkpoint;
        #: run_config refuses any tag whose current hash differs
        self._resumed_hashes: Dict[str, str] = {}
        if self.sanitize is not None:
            # fail fast on a bad mode string ("off" stays distinct from
            # None: it must override REPRO_SANITIZE inside workers)
            normalize_mode(self.sanitize)
        if self.supervised is None:
            self.supervised = (
                self.timeout is not None or self.fault_plan is not None
            )
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
                self._validate_resume_manifest()
                for key, payload in self._store.load().items():
                    self._results[tuple(key)] = RunResult.from_dict(payload)
                    self.cells_restored += 1
            elif self._store.exists():
                self._store.discard()

    def _validate_resume_manifest(self) -> None:
        """Refuse a checkpoint whose manifest contradicts this invocation.

        The checkpoint header already pins scale and seed; the manifest
        sidecar additionally records a hash of every configuration the
        producing run simulated, which lets us reject resumes after a
        config edit — silently mixing old and new cells would produce a
        sweep no single configuration ever generated.  A missing sidecar
        (interrupted run, pre-manifest checkpoint) is tolerated; the
        header checks still apply.
        """
        manifest_path = manifest_path_for(self.checkpoint_path)
        if not os.path.exists(manifest_path):
            return
        try:
            manifest = RunManifest.load(manifest_path)
        except (ValueError, OSError) as exc:
            raise CheckpointError(
                f"cannot resume {self.checkpoint_path!r}: unreadable "
                f"manifest sidecar {manifest_path!r} ({exc})"
            ) from exc
        if manifest.seed != self.seed:
            raise CheckpointError(
                f"cannot resume {self.checkpoint_path!r}: checkpoint was "
                f"produced with seed {manifest.seed}, this run uses "
                f"seed {self.seed}"
            )
        if manifest.scale != self.scale:
            raise CheckpointError(
                f"cannot resume {self.checkpoint_path!r}: checkpoint was "
                f"produced at scale {manifest.scale!r}, this run uses "
                f"scale {self.scale!r}"
            )
        self._resumed_hashes = dict(manifest.config_hashes)

    # ------------------------------------------------------------------ #
    # Workload construction
    # ------------------------------------------------------------------ #
    def kernel(self, benchmark: str) -> Kernel:
        return make_benchmark(benchmark, scale=self.scale, seed=self.seed)

    # ------------------------------------------------------------------ #
    # Cell execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: str,
        config_name: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> RunResult:
        """Simulate one named-configuration cell (memoized)."""
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
        """Simulate one cell for an explicit config (memoized by ``tag``).

        This is the single funnel every experiment goes through —
        ad-hoc configs (ablations, oversubscription) get the same
        supervision, checkpointing, degradation, and telemetry as named
        ones.
        """
        spec, cell_trace = self._make_spec(
            benchmark,
            config,
            tag,
            record_tlb_trace=record_tlb_trace,
            occupancy_override=occupancy_override,
            sample_every=sample_every,
        )
        key = spec.key
        if key in self._results:
            return self._results[key]
        if key in self._failed:
            return self._failed[key]
        try:
            result = self._execute(spec)
        except SimulationError as exc:
            failure = CellFailure(
                error_class=classify(exc),
                message=str(exc),
                attempts=getattr(exc, "attempts", 1),
                elapsed=getattr(exc, "elapsed", 0.0),
            )
            self.failures[key] = failure
            if self.strict:
                raise
            placeholder = RunResult.make_failed(benchmark, failure.error_class)
            self._failed[key] = placeholder
            return placeholder
        self.cells_simulated += 1
        self._results[key] = result
        if cell_trace is not None:
            self._trace_parts.append((f"{benchmark}:{tag}", cell_trace))
        if self._store is not None:
            self._store.append(key, result.to_dict())
        return result

    def _make_spec(
        self,
        benchmark: str,
        config: GPUConfig,
        tag: str,
        record_tlb_trace: bool = False,
        occupancy_override: Optional[int] = None,
        sample_every: Optional[int] = None,
    ) -> Tuple[CellSpec, Optional[str]]:
        """Validate the config against any resumed manifest and build the
        :class:`CellSpec` (plus per-cell trace part path) for one cell."""
        current_hash = self._config_hashes.setdefault(tag, config_hash(config))
        resumed = self._resumed_hashes.get(tag)
        if resumed is not None and resumed != current_hash:
            raise CheckpointError(
                f"cannot reuse checkpoint {self.checkpoint_path!r}: config "
                f"{tag!r} hashes to {current_hash} but the checkpoint was "
                f"produced with {resumed}; rerun without --resume (or "
                f"restore the original configuration)"
            )
        if sample_every is None:
            sample_every = self.sample_every
        cell_trace = None
        if self.trace_path is not None:
            cell_trace = (
                f"{self.trace_path}.cell{len(self._trace_parts)}.part"
            )
        telemetry = None
        if cell_trace is not None or sample_every is not None:
            telemetry = TelemetrySettings(
                trace_path=cell_trace, sample_every=sample_every
            )
        spec = CellSpec(
            benchmark=benchmark,
            config=config,
            config_tag=tag,
            scale=self.scale,
            seed=self.seed,
            record_tlb_trace=record_tlb_trace,
            occupancy_override=occupancy_override,
            telemetry=telemetry,
            sanitize=self.sanitize,
        )
        return spec, cell_trace

    def record_config_hash(self, tag: str, hash_: str) -> None:
        """Record (and resume-validate) a hash for cells built outside
        :meth:`run_config` — e.g. tenancy cells, whose hash folds the
        tenant composition into the GPU config hash."""
        current = self._config_hashes.setdefault(tag, hash_)
        resumed = self._resumed_hashes.get(tag)
        if resumed is not None and resumed != current:
            raise CheckpointError(
                f"cannot reuse checkpoint {self.checkpoint_path!r}: config "
                f"{tag!r} hashes to {current} but the checkpoint was "
                f"produced with {resumed}; rerun without --resume (or "
                f"restore the original configuration)"
            )

    def _execute(self, spec: CellSpec) -> RunResult:
        if self.supervised:
            return RunResult.from_dict(self._supervisor.run_cell(spec))
        return simulate_cell(spec)

    # ------------------------------------------------------------------ #
    # Parallel prefetch
    # ------------------------------------------------------------------ #
    def prefetch(
        self,
        cells: Sequence[Tuple[str, str]],
        record_tlb_trace: bool = False,
    ) -> None:
        """Simulate ``(benchmark, config_name)`` cells ahead of time,
        fanned out over ``parallel`` supervised subprocess workers.

        Results are integrated into the memo (and checkpoint) in
        **submission order**, regardless of worker completion order, so
        a parallel sweep produces byte-identical bookkeeping to a
        sequential one; subsequent :meth:`run` calls are memo hits.
        Falls back to sequential execution when ``parallel <= 1``, when
        only one cell is missing, or when per-cell tracing is on (trace
        part numbering is inherently sequential).

        The parallel path always runs cells in supervised workers (the
        fan-out needs process isolation to actually run concurrently);
        the ``supervised`` flag only governs the sequential path.
        """
        jobs: List[Tuple[CellSpec, str, str]] = []
        seen_keys = set(self._results) | set(self._failed)
        for benchmark, config_name in cells:
            spec, _ = self._make_spec(
                benchmark,
                get_config(config_name),
                config_name,
                record_tlb_trace=record_tlb_trace,
            )
            if spec.key in seen_keys:
                continue
            seen_keys.add(spec.key)
            jobs.append((spec, benchmark, config_name))
        if not jobs:
            return
        if self.parallel <= 1 or len(jobs) == 1 or self.trace_path is not None:
            for _, benchmark, config_name in jobs:
                self.run(benchmark, config_name, record_tlb_trace)
            return
        # Workers are forked from a (briefly) multi-threaded parent;
        # importing the worker-side modules here first means the children
        # find sys.modules populated and never touch the import machinery
        # mid-fork.
        _preimport_worker_modules()
        run_cell = self._supervisor.run_cell
        with ThreadPoolExecutor(
            max_workers=min(self.parallel, len(jobs))
        ) as pool:
            futures = [pool.submit(run_cell, spec) for spec, _, _ in jobs]
        # the pool has joined: every future is done; integrate in
        # deterministic submission order
        for (spec, benchmark, _), future in zip(jobs, futures):
            key = spec.key
            try:
                result = RunResult.from_dict(future.result())
            except SimulationError as exc:
                failure = CellFailure(
                    error_class=classify(exc),
                    message=str(exc),
                    attempts=getattr(exc, "attempts", 1),
                    elapsed=getattr(exc, "elapsed", 0.0),
                )
                self.failures[key] = failure
                if self.strict:
                    # mirror a sequential strict sweep: cells before the
                    # (first, in order) failure are kept, later ones are
                    # not integrated
                    raise
                self._failed[key] = RunResult.make_failed(
                    benchmark, failure.error_class
                )
                continue
            self.cells_simulated += 1
            self._results[key] = result
            if self._store is not None:
                self._store.append(key, result.to_dict())

    def run_all(
        self, config_name: str, record_tlb_trace: bool = False
    ) -> Dict[str, RunResult]:
        if self.parallel > 1:
            self.prefetch(
                [(b, config_name) for b in self.benchmarks], record_tlb_trace
            )
        return {
            b: self.run(b, config_name, record_tlb_trace)
            for b in self.benchmarks
        }

    # ------------------------------------------------------------------ #
    # Degradation bookkeeping
    # ------------------------------------------------------------------ #
    def failure_for(self, benchmark: str, tag: str) -> Optional[CellFailure]:
        for key, failure in self.failures.items():
            if key[0] == benchmark and key[1] == tag:
                return failure
        return None

    def failure_summary(self) -> List[str]:
        """One human-readable line per failed cell (dedup trace variants)."""
        lines: List[str] = []
        seen = set()
        for key, f in sorted(self.failures.items(), key=lambda kv: kv[0][:2]):
            cell = (key[0], key[1])
            if cell in seen:
                continue
            seen.add(cell)
            lines.append(
                f"({key[0]}, {key[1]}) {f.marker} after {f.attempts} "
                f"attempt(s): {f.message.splitlines()[0]}"
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
        """Flush telemetry artifacts and release the checkpoint store.

        Writes the merged trace plus a manifest sidecar for the trace
        and for the checkpoint store, so every on-disk artifact of this
        runner is reproducible from the files next to it.
        """
        merged = self.finalize_trace()
        if merged is not None:
            self.write_manifest("trace", merged)
        if self._store is not None:
            # compaction squeezes out any torn tail a crashed ancestor
            # left behind, so the surviving store is byte-exact JSONL
            self._store.close(compact=True)
            self.write_manifest("checkpoint", self._store.path)


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

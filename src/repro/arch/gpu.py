"""Top-level GPU: SMs + shared translation/memory + TB dispatch loop.

The GPU is assembled from parts by :func:`repro.system.build_gpu`; this
module keeps the machine policy-agnostic.  TBs reach the SMs through
lanes (:class:`Lane`), each with a TB scheduler: any object with the small
interface of :class:`repro.core.tb_scheduler.TBScheduler` —
``select_sm(sms)`` returns the SM the next TB should go to (or ``None``
to stall until a slot frees).  A plain machine has one lane over every
SM; :func:`repro.tenancy.build_tenant_gpu` gives each tenant one.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..engine.simulator import Simulator
from ..telemetry.tracer import CAT_KERNEL
from ..translation.address import PageGeometry
from .config import GPUConfig
from .kernel import Kernel
from .sm import StreamingMultiprocessor
from .thread_block import TBRuntime


@dataclass
class RunResult:
    """Summary of one kernel run."""

    kernel_name: str
    cycles: float
    per_sm_l1_tlb_hit_rate: List[float]
    l1_tlb_hits: int
    l1_tlb_accesses: int
    l2_tlb_hits: int
    l2_tlb_accesses: int
    walks: int
    far_faults: int
    l1_cache_hit_rate: float
    tbs_completed: int
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tlb_traces: Optional[List[List[tuple]]] = None
    #: columnar time-series snapshot from the telemetry sampler
    #: (``TimeSeriesSampler.to_dict()``); ``None`` when sampling is off
    timeseries: Optional[Dict] = None
    #: taxonomy tag when this cell failed and the sweep degraded
    #: gracefully; ``None`` for a real result
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def avg_l1_tlb_hit_rate(self) -> float:
        """Average of per-SM hit rates (how the paper reports Fig 2/10)."""
        if self.failure is not None:
            return float("nan")
        rates = [r for r in self.per_sm_l1_tlb_hit_rate if r is not None]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def overall_l1_tlb_hit_rate(self) -> float:
        """Access-weighted hit rate across all SMs."""
        if self.failure is not None:
            return float("nan")
        if self.l1_tlb_accesses == 0:
            return 0.0
        return self.l1_tlb_hits / self.l1_tlb_accesses

    # ------------------------------------------------------------------ #
    # Serialization (checkpoint store / supervised-worker pipe)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-compatible representation (tuples become lists)."""
        d = dataclasses.asdict(self)
        if d["tlb_traces"] is not None:
            d["tlb_traces"] = [
                [list(event) for event in trace] for trace in d["tlb_traces"]
            ]
        return d

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_dict`; validates the field set."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        missing = {
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        } - set(data)
        if unknown or missing:
            raise ValueError(
                f"RunResult payload mismatch "
                f"(unknown={sorted(unknown)}, missing={sorted(missing)})"
            )
        payload = dict(data)
        if payload.get("tlb_traces") is not None:
            payload["tlb_traces"] = [
                [tuple(event) for event in trace]
                for trace in payload["tlb_traces"]
            ]
        return cls(**payload)

    @classmethod
    def make_failed(cls, kernel_name: str, error_class: str) -> "RunResult":
        """Placeholder result for a cell that failed terminally.

        Every rate is NaN and every counter zero, so aggregate math
        degrades (NaN-aware means skip it) instead of silently lying.
        """
        nan = float("nan")
        return cls(
            kernel_name=kernel_name,
            cycles=nan,
            per_sm_l1_tlb_hit_rate=[],
            l1_tlb_hits=0,
            l1_tlb_accesses=0,
            l2_tlb_hits=0,
            l2_tlb_accesses=0,
            walks=0,
            far_faults=0,
            l1_cache_hit_rate=nan,
            tbs_completed=0,
            failure=error_class,
        )


def _weak_method(method):
    """Call ``method`` through a :class:`weakref.WeakMethod`.

    The SMs and the Simulator are owned by the GPU; a strong reference
    back to it would make every machine a reference cycle that only the
    cyclic collector frees.  Calling after the GPU is gone raises
    :class:`ReferenceError`.
    """
    ref = weakref.WeakMethod(method)
    name = method.__qualname__

    def call(*args):
        bound = ref()
        if bound is None:
            raise ReferenceError(f"{name}: the GPU was freed")
        return bound(*args)

    return call


@dataclass(eq=False)
class Lane:
    """One kernel's pending TBs, the SMs it may use and the scheduler
    that picks among them.  Lanes may share a scheduler instance."""

    sms: List[StreamingMultiprocessor]
    scheduler: object
    pending: Deque = field(default_factory=deque)
    remaining: int = 0  #: TBs not yet finished
    finish: float = 0.0  #: the cycle the last of them finished


class KernelMix:
    """Kernels launched together, one per lane: the name and TB list
    that :meth:`GPU.run` traces and collects."""

    __slots__ = ("name", "tbs", "kernels")

    def __init__(self, kernels: List[Kernel]) -> None:
        self.kernels = kernels
        self.name = "+".join(k.name for k in kernels)
        self.tbs = [trace for k in kernels for trace in k.tbs]


class GPU:
    """The assembled machine: SMs, shared L2 TLB/walkers, memory system."""

    def __init__(
        self,
        sim: Simulator,
        config: GPUConfig,
        geometry: PageGeometry,
        sms: List[StreamingMultiprocessor],
        lanes: List[Lane],
        l2_tlb,
        walkers,
        partitions,
    ) -> None:
        self.sim = sim
        self.config = config
        self.geometry = geometry
        self.sms = sms
        self.lanes = lanes
        self.l2_tlb = l2_tlb
        self.walkers = walkers
        self.partitions = partitions
        self._kernel = None
        self._lane_of: Dict[int, Lane] = {}
        self._rr_lane = 0
        self._age = 0
        self._dispatch_scheduled = False
        # weak back-edges: a finished machine is freed by reference counting
        on_tb_finished = _weak_method(self._tb_finished)
        for sm in sms:
            sm.on_tb_finished = on_tb_finished
        sim.add_diagnostic_hook(_weak_method(self._livelock_diagnostic))

    # ------------------------------------------------------------------ #
    # Kernel execution
    # ------------------------------------------------------------------ #
    def launch(self, kernel, occupancy_override: Optional[int] = None) -> None:
        """Queue every TB of ``kernel`` and fill the SMs.

        ``kernel`` is a :class:`Kernel` for a one-lane machine and a
        :class:`KernelMix` with one kernel per lane otherwise.  Each SM
        runs at the tightest occupancy of the lanes that can use it.
        ``occupancy_override`` caps concurrent TBs per SM below that —
        used by the interference-removal study (Fig 6 validation) with a
        cap of 1.
        """
        if self._kernel is not None:
            raise RuntimeError("a kernel is already running")
        kernels = kernel.kernels if isinstance(kernel, KernelMix) else [kernel]
        if len(kernels) != len(self.lanes):
            raise ValueError(
                f"{len(kernels)} kernels for {len(self.lanes)} lanes"
            )
        self._kernel = kernel
        occupancy = {}
        for lane, lane_kernel in zip(self.lanes, kernels):
            occ = lane_kernel.occupancy(self.config)
            if occupancy_override is not None:
                occ = min(occ, occupancy_override)
            for sm in lane.sms:
                occupancy[sm] = min(occ, occupancy.get(sm, occ))
            lane.pending = deque(lane_kernel.tbs)
            lane.remaining = len(lane_kernel.tbs)
            lane.finish = self.sim.now
        for sm in self.sms:
            sm.prepare_kernel(occupancy[sm])
        self._lane_of = {
            id(trace): lane for lane in self.lanes for trace in lane.pending
        }
        self._rr_lane = 0
        self._fill_sms(self.sim.now)

    def _fill_sms(self, now: float) -> None:
        """Round-robin across the lanes from where the last fill stopped;
        a lane with nothing pending, or whose scheduler finds no free
        slot, is skipped until every lane has stalled in a row."""
        lanes = self.lanes
        n = len(lanes)
        i = self._rr_lane
        stalled = 0
        while stalled < n:
            lane = lanes[i]
            i = (i + 1) % n
            sm = lane.scheduler.select_sm(lane.sms) if lane.pending else None
            if sm is None:
                stalled += 1
                continue
            trace = lane.pending.popleft()
            sm.dispatch_tb(trace, now, self._age)
            self._age += max(len(trace.warps), 1)
            stalled = 0
        self._rr_lane = i

    def _livelock_diagnostic(self) -> str:
        """Per-SM state summary appended to livelock reports."""
        per_sm = ", ".join(
            f"sm{sm.sm_id}:{len(sm.resident)}/{sm.occupancy_limit}"
            for sm in self.sms
        )
        text = (
            f"TBs remaining={sum(lane.remaining for lane in self.lanes)} "
            f"pending-dispatch={sum(len(lane.pending) for lane in self.lanes)}"
            f" | resident TBs [{per_sm}]"
        )
        if len(self.lanes) > 1:
            per_lane = ", ".join(
                f"lane{i}:{lane.remaining}"
                for i, lane in enumerate(self.lanes)
            )
            text += f" | lane TBs remaining [{per_lane}]"
        return text

    def _tb_finished(self, sm: StreamingMultiprocessor, tb: TBRuntime) -> None:
        lane = self._lane_of[id(tb.trace)]
        lane.remaining -= 1
        if lane.remaining == 0:
            lane.finish = self.sim.now
        # a completed TB is the unit of forward progress the livelock
        # watchdog counts
        self.sim.note_progress()
        if not self._dispatch_scheduled and any(
            lane.pending for lane in self.lanes
        ):
            # Refill on the dispatcher's cadence rather than instantly:
            # completions that cluster inside one period free several
            # slots at once, giving the scheduler an actual choice of SM.
            self._dispatch_scheduled = True
            self.sim.queue.post(
                self.sim.now + self.config.tb_dispatch_interval,
                self._dispatch_tick,
            )

    def _dispatch_tick(self) -> None:
        self._dispatch_scheduled = False
        self._fill_sms(self.sim.now)

    def run(self, kernel, occupancy_override: Optional[int] = None) -> RunResult:
        """Launch ``kernel`` (see :meth:`launch`), run to completion, and
        summarize."""
        start = self.sim.now
        self.launch(kernel, occupancy_override)
        # Freeze what exists at launch (the built machine, its traces,
        # the caller's heap) so the run's collections do not walk it.
        # Skipped when a caller already froze objects: unfreezing would
        # hand theirs back to the collector too.
        freeze = gc.get_freeze_count() == 0
        if freeze:
            gc.freeze()
        try:
            self.sim.run()
        finally:
            if freeze:
                gc.unfreeze()
        remaining = sum(lane.remaining for lane in self.lanes)
        if remaining != 0:
            raise RuntimeError(
                f"simulation drained with {remaining} TBs unfinished"
            )
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.complete(
                CAT_KERNEL, kernel.name, start, self.sim.now - start,
                tracer.track("kernel"),
                {"tbs": len(kernel.tbs), "sms": len(self.sms)},
            )
        result = self._collect(kernel)
        self._kernel = None
        return result

    # ------------------------------------------------------------------ #
    # Result collection
    # ------------------------------------------------------------------ #
    def _collect(self, kernel) -> RunResult:
        per_sm_rates = []
        hits = 0
        accesses = 0
        for sm in self.sms:
            sm_total = sm.l1_tlb_accesses
            per_sm_rates.append(
                sm.l1_tlb_hits / sm_total if sm_total else None
            )
            hits += sm.l1_tlb_hits
            accesses += sm_total
        l1_cache_hits = sum(
            sm.memory.l1.stats.counter("hits").value for sm in self.sms
        )
        l1_cache_total = l1_cache_hits + sum(
            sm.memory.l1.stats.counter("misses").value for sm in self.sms
        )
        traces = None
        if any(sm.tlb_trace is not None for sm in self.sms):
            traces = [sm.tlb_trace if sm.tlb_trace is not None else [] for sm in self.sms]
        return RunResult(
            kernel_name=kernel.name,
            cycles=self.sim.now,
            per_sm_l1_tlb_hit_rate=per_sm_rates,
            l1_tlb_hits=hits,
            l1_tlb_accesses=accesses,
            l2_tlb_hits=self.l2_tlb.hits,
            l2_tlb_accesses=self.l2_tlb.accesses,
            walks=self.walkers.stats.counter("walks").value,
            far_faults=self.walkers.stats.counter("far_faults").value,
            l1_cache_hit_rate=(l1_cache_hits / l1_cache_total if l1_cache_total else 0.0),
            tbs_completed=sum(
                sm.stats.counter("tbs_completed").value for sm in self.sms
            ),
            stats=self.sim.stats.dump(),
            tlb_traces=traces,
            timeseries=(
                self.sim.sampler.to_dict()
                if self.sim.sampler is not None
                else None
            ),
        )

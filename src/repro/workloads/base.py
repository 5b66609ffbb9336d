"""Workload-generator foundations.

Each of the paper's 10 benchmarks (Table II) is reproduced as a *trace
generator*: a function that emulates the kernel's per-thread addressing
at warp granularity, runs it through the memory coalescer, and emits a
:class:`~repro.arch.kernel.Kernel`.  The generators model the loop and
data-structure *shape* of the original CUDA kernels (tiling, row sweeps,
shared vectors, CSR neighbour expansion, wavefronts) — which is what the
TB-level translation-reuse behaviour depends on — at configurable scales.

Shared machinery here:

* :class:`AddressSpace` — lays out the kernel's arrays in virtual memory
  (each array gets its own region, like distinct ``cudaMallocManaged``
  allocations under UVM);
* :class:`TraceBuilder` — turns per-thread address lists into coalesced
  :class:`~repro.arch.kernel.MemoryInstruction` streams;
* :data:`SCALES` — per-scale size multipliers (``tiny`` for unit tests,
  ``small`` for experiments/benches, ``paper`` for the full-size runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..arch.coalescer import coalesce
from ..arch.kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace
from ..translation.address import GB, MB, PAGE_4K

#: Alignment of each array's base address: separate allocations never
#: share a page, and bases are far apart (a UVM heap layout).
REGION_ALIGN = 256 * MB


@dataclass(frozen=True)
class Scale:
    """Scale preset: multiplies the benchmark's nominal dimensions."""

    name: str
    #: linear problem-size factor (rows, nodes, ...), relative to "small"
    size_factor: float
    #: cap on the number of TBs actually traced
    max_tbs: int


SCALES: Dict[str, Scale] = {
    "micro": Scale("micro", 0.0625, 12),
    "tiny": Scale("tiny", 0.25, 32),
    "small": Scale("small", 1.0, 96),
    "paper": Scale("paper", 4.0, 512),
}


def get_scale(scale: str) -> Scale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


class AddressSpace:
    """Virtual-memory layout of a kernel's arrays."""

    def __init__(self, base: int = 16 * GB) -> None:
        self._next = base
        self.regions: Dict[str, tuple] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve a region; returns its base address."""
        if nbytes <= 0:
            raise ValueError(f"array {name!r} needs a positive size")
        if name in self.regions:
            raise ValueError(f"array {name!r} allocated twice")
        base = self._next
        self.regions[name] = (base, nbytes)
        span = -(-nbytes // REGION_ALIGN) * REGION_ALIGN
        self._next = base + span
        return base

    def footprint_bytes(self) -> int:
        return sum(size for _base, size in self.regions.values())


class TraceBuilder:
    """Builds one TB's warp traces from per-thread address lists."""

    def __init__(
        self,
        warps_per_tb: int,
        warp_size: int = 32,
        line_bytes: int = 128,
        compute_gap: float = 4.0,
        warp_stagger: float = 250.0,
        max_tx_per_instr: Optional[int] = None,
    ) -> None:
        if warps_per_tb <= 0:
            raise ValueError("warps_per_tb must be positive")
        self.warp_size = warp_size
        self.line_bytes = line_bytes
        self.compute_gap = compute_gap
        #: Extra start delay per warp index.  Warps of one TB do not run
        #: in perfect lockstep on real hardware (GTO greediness, divergent
        #: stalls); without this spread, every same-page access from
        #: sibling warps lands inside the first access's miss window and
        #: can never produce a TLB hit.
        self.warp_stagger = warp_stagger
        #: max transactions per traced instruction (None = unlimited): a
        #: divergent warp access is replayed in batches on real LSUs, so
        #: generators modelling heavy gather divergence (the graph
        #: kernels) split wide accesses into sub-instruction groups.
        self.max_tx_per_instr = max_tx_per_instr
        self.warps: List[List[MemoryInstruction]] = [[] for _ in range(warps_per_tb)]

    def access(
        self,
        warp: int,
        thread_addresses: Iterable[int],
        gap: Optional[float] = None,
        write: bool = False,
    ) -> None:
        """One warp memory instruction from per-thread addresses.

        When ``max_tx_per_instr`` is set, heavily divergent accesses are
        split into replay batches; only the first batch pays the compute
        gap.
        """
        transactions = coalesce(thread_addresses, self.line_bytes)
        if not transactions:
            return
        first_gap = self.compute_gap if gap is None else gap
        limit = self.max_tx_per_instr or len(transactions)
        for start in range(0, len(transactions), limit):
            batch = transactions[start: start + limit]
            self.warps[warp].append(
                MemoryInstruction(
                    compute_gap=first_gap if start == 0 else 0.0,
                    transactions=tuple(batch),
                    is_write=write,
                )
            )

    def broadcast(
        self, warp: int, address: int, gap: Optional[float] = None, write: bool = False
    ) -> None:
        """All threads read the same address (one transaction)."""
        self.access(warp, (address,), gap, write)

    def strided(
        self,
        warp: int,
        base: int,
        stride: int,
        gap: Optional[float] = None,
        write: bool = False,
        num_threads: Optional[int] = None,
    ) -> None:
        """The canonical ``base + tid*stride`` warp access."""
        n = self.warp_size if num_threads is None else num_threads
        self.access(warp, (base + t * stride for t in range(n)), gap, write)

    def build(self, tb_index: int) -> TBTrace:
        warp_traces: List[WarpTrace] = []
        position = 0
        for instrs in self.warps:
            if not instrs:
                continue
            if self.warp_stagger > 0 and position > 0:
                first = instrs[0]
                instrs = [
                    MemoryInstruction(
                        first.compute_gap + position * self.warp_stagger,
                        first.transactions,
                        first.is_write,
                    )
                ] + instrs[1:]
            warp_traces.append(WarpTrace(instrs))
            position += 1
        return TBTrace(tb_index, warp_traces or [WarpTrace([])])


def make_kernel(
    name: str,
    tb_traces: Sequence[TBTrace],
    threads_per_tb: int,
    registers_per_thread: int = 32,
    shared_mem_per_tb: int = 0,
) -> Kernel:
    """Assemble a kernel with interned, read-only warp traces.

    Equal instructions (frozen, hashable) become one shared object and
    every warp's instruction stream becomes a tuple, which keeps a kernel
    that :func:`~repro.workloads.make_benchmark` holds for the whole
    process small and safe to share.  ``TBTrace`` objects stay distinct:
    a TB's identity keys its tenant in multi-tenant runs.
    """
    canonical: Dict[MemoryInstruction, MemoryInstruction] = {}
    intern = canonical.setdefault
    tbs = [
        TBTrace(
            tb.tb_index,
            [
                WarpTrace(tuple([intern(i, i) for i in warp.instructions]))
                for warp in tb.warps
            ],
        )
        for tb in tb_traces
    ]
    return Kernel(
        name=name,
        threads_per_tb=threads_per_tb,
        tbs=tbs,
        registers_per_thread=registers_per_thread,
        shared_mem_per_tb=shared_mem_per_tb,
    )


def rng_for(name: str, seed: int) -> np.random.Generator:
    """Deterministic per-benchmark RNG (stable across runs and machines)."""
    mixed = np.frombuffer(name.encode("utf-8"), dtype=np.uint8).sum()
    return np.random.default_rng(np.uint64(seed * 1_000_003 + int(mixed)))


def pages_of(addresses: Iterable[int], page_size: int = PAGE_4K) -> set:
    return {a // page_size for a in addresses}

"""Static trace model: kernels, thread blocks, warps, instructions.

A workload generator produces a :class:`Kernel`: a list of
:class:`TBTrace` (one per thread block), each holding per-warp sequences
of :class:`MemoryInstruction`.  Instructions carry *post-coalescing*
line-aligned virtual addresses (see :mod:`repro.arch.coalescer`) plus the
compute-cycle gap preceding them, which is how compute-bound kernels
(``nw``) hide translation latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class MemoryInstruction:
    """One warp-level memory instruction after coalescing."""

    compute_gap: float
    transactions: Tuple[int, ...]
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.compute_gap < 0:
            raise ValueError(f"negative compute gap {self.compute_gap}")
        if not self.transactions:
            raise ValueError("a memory instruction needs at least one transaction")


@dataclass
class WarpTrace:
    """Ordered memory-instruction stream of one warp.

    Generated kernels store it as a tuple: they are shared read-only by
    every run in the process (see :func:`repro.workloads.make_benchmark`).
    """

    instructions: Sequence[MemoryInstruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def addresses(self) -> Iterator[int]:
        for instr in self.instructions:
            yield from instr.transactions


@dataclass
class TBTrace:
    """One thread block's trace: a list of warp traces."""

    tb_index: int
    warps: List[WarpTrace] = field(default_factory=list)

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def num_instructions(self) -> int:
        return sum(len(w) for w in self.warps)

    @property
    def num_transactions(self) -> int:
        return sum(
            len(i.transactions) for w in self.warps for i in w.instructions
        )

    def addresses(self) -> Iterator[int]:
        """All transaction addresses, warp-major order."""
        for warp in self.warps:
            yield from warp.addresses()

    def interleaved_addresses(self) -> Iterator[int]:
        """Addresses in round-robin warp order — approximates the order
        the SM's TLB observes within one TB and is the stream used for
        intra-TB reuse-distance characterization."""
        pointers = [0] * len(self.warps)
        instr_idx = [0] * len(self.warps)
        live = True
        while live:
            live = False
            for w, warp in enumerate(self.warps):
                if instr_idx[w] >= len(warp.instructions):
                    continue
                instr = warp.instructions[instr_idx[w]]
                yield instr.transactions[pointers[w]]
                pointers[w] += 1
                if pointers[w] >= len(instr.transactions):
                    pointers[w] = 0
                    instr_idx[w] += 1
                live = True


@dataclass
class Kernel:
    """A GPU kernel: TB traces plus the resource usage that determines
    occupancy (threads/registers/shared memory per TB, §II)."""

    name: str
    threads_per_tb: int
    tbs: List[TBTrace] = field(default_factory=list)
    registers_per_thread: int = 32
    shared_mem_per_tb: int = 0
    warp_size: int = 32

    @property
    def num_tbs(self) -> int:
        return len(self.tbs)

    @property
    def warps_per_tb(self) -> int:
        return -(-self.threads_per_tb // self.warp_size)

    def occupancy(self, config) -> int:
        """Max concurrently resident TBs per SM under ``config`` limits.

        Mirrors the compile-time calculation the paper describes: the
        binding constraint among threads, warps, registers, shared memory,
        and the hardware TB cap.
        """
        limits = [
            config.max_tbs_per_sm,
            config.max_threads_per_sm // self.threads_per_tb,
            config.max_warps_per_sm // self.warps_per_tb,
        ]
        if self.shared_mem_per_tb > 0:
            limits.append(config.shared_mem_per_sm // self.shared_mem_per_tb)
        reg_bytes_per_tb = self.registers_per_thread * 4 * self.threads_per_tb
        if reg_bytes_per_tb > 0:
            limits.append(config.register_file_per_sm // reg_bytes_per_tb)
        occ = min(limits)
        if occ <= 0:
            raise ValueError(
                f"kernel {self.name!r} cannot fit a single TB on an SM "
                f"(limits={limits})"
            )
        return occ

    def total_transactions(self) -> int:
        return sum(tb.num_transactions for tb in self.tbs)

    def addresses(self) -> Iterator[int]:
        for tb in self.tbs:
            yield from tb.addresses()


def validate_kernel(kernel: Kernel) -> None:
    """Sanity-check a generated kernel trace (used by workload tests)."""
    if kernel.num_tbs == 0:
        raise ValueError(f"kernel {kernel.name!r} has no thread blocks")
    for tb in kernel.tbs:
        if tb.num_warps == 0:
            raise ValueError(f"TB {tb.tb_index} of {kernel.name!r} has no warps")
        if tb.num_warps > kernel.warps_per_tb:
            raise ValueError(
                f"TB {tb.tb_index} has {tb.num_warps} warps, kernel allows "
                f"{kernel.warps_per_tb}"
            )

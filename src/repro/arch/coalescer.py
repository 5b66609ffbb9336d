"""Memory coalescing unit.

Per Fig 1 step 1, per-thread addresses of one warp memory instruction are
coalesced into line-sized transactions before touching the TLB/cache.
Workload generators run their per-thread address streams through
:func:`coalesce` at trace-build time, so the simulator only ever sees
post-coalescing transactions — exactly what the real unit emits.

Trace building runs one :func:`coalesce` per warp memory instruction, so
this file is hot in workload generation (which ``perf/run.py`` times as
part of every cell).  Line sizes are powers of two in every config, so
the line math is shift-based, and the common strided pattern is solved
analytically instead of materializing 32 addresses per instruction.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def coalesce(thread_addresses: Iterable[int], line_bytes: int = 128) -> List[int]:
    """Coalesce per-thread byte addresses into unique line transactions.

    Returns line-aligned byte addresses, ordered by first appearance
    (the order the coalescer emits them).  A fully coalesced warp access
    (all 32 threads in one 128 B line) yields a single transaction; a
    fully divergent one yields up to 32.
    """
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    if line_bytes & (line_bytes - 1) == 0:
        # dedup on the (small) line numbers, then rebuild the aligned
        # addresses; a set + shift beats a dict of aligned keys.  Python
        # floor-divides and arithmetic-shifts negatives identically, so
        # this is exact for any int input.
        shift = line_bytes.bit_length() - 1
        seen = set()
        add = seen.add
        lines = []
        append = lines.append
        for addr in thread_addresses:
            line = addr >> shift
            if line not in seen:
                add(line)
                append(line)
        return [line << shift for line in lines]
    seen_bases = {}
    for addr in thread_addresses:
        line_base = (addr // line_bytes) * line_bytes
        if line_base not in seen_bases:
            seen_bases[line_base] = None
    return list(seen_bases.keys())


def coalesce_strided(
    base: int, stride: int, num_threads: int, line_bytes: int = 128
) -> List[int]:
    """Coalesce the common strided pattern ``base + tid*stride`` directly.

    Equivalent to ``coalesce(base + tid*stride for tid in range(n))`` but
    solved without materializing the addresses: for a non-negative
    stride the touched lines are non-decreasing, so first-appearance
    order is ascending line order, and a stride no larger than the line
    covers every line in between — the whole transaction list is a
    range.  Larger strides walk thread by thread but skip the dedup set.
    """
    if (
        line_bytes <= 0
        or line_bytes & (line_bytes - 1)
        or stride < 0
        or num_threads <= 0
    ):
        return coalesce(
            (base + tid * stride for tid in range(num_threads)), line_bytes
        )
    shift = line_bytes.bit_length() - 1
    first = base >> shift
    last = (base + (num_threads - 1) * stride) >> shift
    if stride <= line_bytes:
        # consecutive threads never skip a line
        return [line << shift for line in range(first, last + 1)]
    lines = [first << shift]
    append = lines.append
    prev = first
    addr = base
    for _ in range(num_threads - 1):
        addr += stride
        line = addr >> shift
        if line != prev:
            append(line << shift)
            prev = line
    return lines


def transactions_per_instruction(
    thread_addresses: Sequence[int], line_bytes: int = 128
) -> int:
    """Degree of divergence: number of transactions one instruction needs."""
    return len(coalesce(thread_addresses, line_bytes))

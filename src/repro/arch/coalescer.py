"""Memory coalescing unit.

Per Fig 1 step 1, per-thread addresses of one warp memory instruction are
coalesced into line-sized transactions before touching the TLB/cache.
Workload generators run their per-thread address streams through
:func:`coalesce` at trace-build time, so the simulator only ever sees
post-coalescing transactions — exactly what the real unit emits.

Trace building runs one :func:`coalesce` per warp memory instruction,
strided patterns included, so this file is hot in workload generation
(which ``perf/run.py`` times as part of every cell).  Lines are a power
of two (``GPUConfig`` refuses any other size), so the line math is a
shift.
"""

from __future__ import annotations

from typing import Iterable, List

from ..memory.cache import line_shift


def coalesce(thread_addresses: Iterable[int], line_bytes: int = 128) -> List[int]:
    """Coalesce per-thread byte addresses into unique line transactions.

    Returns line-aligned byte addresses, ordered by first appearance
    (the order the coalescer emits them).  A fully coalesced warp access
    (all 32 threads in one 128 B line) yields a single transaction; a
    fully divergent one yields up to 32.
    """
    # dedup on the (small) line numbers, then rebuild the aligned
    # addresses; a set + shift beats a dict of aligned keys
    shift = line_shift(line_bytes)
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

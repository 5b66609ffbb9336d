"""Graph benchmarks: bfs (Rodinia), color/mis/pagerank (Pannotia).

All four share the vertex-parallel CSR pattern of the original CUDA
kernels: one thread per node, warps scan ``row_ptr``/``col_idx``
coalesced, then gather per-neighbour property values — the irregular,
hub-concentrated accesses that give these benchmarks their large
intra-TB reuse with large reuse distances (paper Figs 4–5).

Differences between the four are modelled where they matter to the TLB:
how many property arrays each neighbour visit touches, what fraction of
nodes is active in the traced iteration (frontier sparsity causes the
inter-TB imbalance the TLB-aware scheduler exploits), per-thread
neighbour caps, and compute intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..arch.kernel import Kernel, TBTrace
from typing import Optional

from .base import AddressSpace, TraceBuilder, get_scale, make_kernel, rng_for
from .graph import CSRGraph, cached_power_law_graph

THREADS_PER_TB = 128
WARP_SIZE = 32
INT_BYTES = 4


@dataclass(frozen=True)
class GraphKernelSpec:
    """Structural parameters distinguishing the four graph benchmarks."""

    name: str
    #: property arrays gathered per neighbour visit (names only)
    neighbor_arrays: Tuple[str, ...]
    #: fraction of TBs whose node range intersects the dense part of the
    #: frontier (graph iterations concentrate work: a few TBs do heavy
    #: neighbour expansion, most barely any — paper Obs. 3's
    #: "discrepancies in computation and memory accesses between TBs")
    hot_tb_fraction: float
    #: active-node fraction inside hot TBs / other TBs
    active_hot: float
    active_cold: float
    #: per-thread cap on neighbours expanded (bounds trace size; hubs
    #: beyond the cap are the paper's imbalance source, kept via degrees)
    neighbor_cap: int
    #: compute cycles between memory instructions
    compute_gap: float
    #: whether the kernel writes an own-node output array
    writes_output: bool
    edges_per_node: int = 8
    #: node count at the "small" scale (footprint spreads property pages)
    nominal_nodes: int = 524288
    #: optional override of the scale's traced-TB cap
    tb_cap: Optional[int] = None


SPECS = {
    "bfs": GraphKernelSpec(
        "bfs", ("depth",), hot_tb_fraction=0.25, active_hot=0.75,
        active_cold=0.03, neighbor_cap=32, compute_gap=4.0,
        writes_output=True,
    ),
    "color": GraphKernelSpec(
        "color", ("color",), hot_tb_fraction=0.3, active_hot=0.65,
        active_cold=0.05, neighbor_cap=20, compute_gap=5.0,
        writes_output=True,
    ),
    "mis": GraphKernelSpec(
        "mis", ("state", "priority"), hot_tb_fraction=0.3, active_hot=0.5,
        active_cold=0.04, neighbor_cap=16, compute_gap=5.0,
        writes_output=True,
    ),
    # pagerank is topology-driven (every node active every iteration),
    # hence denser inter-TB sharing than the frontier-driven kernels;
    # a larger graph keeps its property pages spread.
    "pagerank": GraphKernelSpec(
        "pagerank", ("rank", "outdeg"), hot_tb_fraction=1.0, active_hot=1.0,
        active_cold=1.0, neighbor_cap=4, compute_gap=6.0,
        writes_output=True, edges_per_node=6, nominal_nodes=1048576,
        tb_cap=64,
    ),
}


def _trace_tb(
    spec: GraphKernelSpec,
    graph: CSRGraph,
    space_bases: dict,
    tb_index: int,
    active: np.ndarray,
) -> TBTrace:
    """Trace one TB (THREADS_PER_TB consecutive nodes)."""
    builder = TraceBuilder(
        warps_per_tb=THREADS_PER_TB // WARP_SIZE,
        compute_gap=spec.compute_gap,
        max_tx_per_instr=8,
    )
    first_node = tb_index * THREADS_PER_TB
    row_base = space_bases["row_ptr"]
    col_base = space_bases["col_idx"]
    out_base = space_bases.get("output")
    for w in range(THREADS_PER_TB // WARP_SIZE):
        v0 = first_node + w * WARP_SIZE
        nodes = np.arange(v0, min(v0 + WARP_SIZE, graph.num_nodes))
        if nodes.size == 0:
            continue
        # row_ptr[v] and row_ptr[v+1]: consecutive ints, fully coalesced.
        builder.strided(w, row_base + v0 * INT_BYTES, INT_BYTES,
                        num_threads=nodes.size)
        # Own-node status read (frontier / colour / state check).
        status_base = space_bases[spec.neighbor_arrays[0]]
        builder.strided(w, status_base + v0 * INT_BYTES, INT_BYTES,
                        num_threads=nodes.size)
        is_active = active[nodes]
        act_nodes = nodes[is_active]
        if act_nodes.size == 0:
            continue
        degs = np.minimum(
            graph.row_ptr[act_nodes + 1] - graph.row_ptr[act_nodes],
            spec.neighbor_cap,
        )
        max_deg = int(degs.max()) if degs.size else 0
        starts = graph.row_ptr[act_nodes]
        for j in range(max_deg):
            live = degs > j
            if not np.any(live):
                break
            edge_pos = starts[live] + j
            # col_idx gather: lockstep threads read their j-th neighbour id.
            builder.access(
                w, (col_base + int(p) * INT_BYTES for p in edge_pos)
            )
            neighbors = graph.col_idx[edge_pos]
            for arr in spec.neighbor_arrays:
                arr_base = space_bases[arr]
                builder.access(
                    w, (arr_base + int(u) * INT_BYTES for u in neighbors)
                )
        if spec.writes_output and out_base is not None:
            builder.strided(
                w, out_base + v0 * INT_BYTES, INT_BYTES,
                write=True, num_threads=nodes.size,
            )
    return builder.build(tb_index)


def graph_nodes(spec: GraphKernelSpec, scale: str) -> int:
    """Node count of ``spec``'s graph at ``scale``, in whole TBs."""
    size_factor = get_scale(scale).size_factor
    num_nodes = max(THREADS_PER_TB * 4, int(spec.nominal_nodes * size_factor))
    return (num_nodes // THREADS_PER_TB) * THREADS_PER_TB


def make_graph_kernel(name: str, scale: str = "small", seed: int = 0) -> Kernel:
    """Build one of the four graph benchmarks at the given scale."""
    spec = SPECS[name]
    sc = get_scale(scale)
    num_nodes = graph_nodes(spec, scale)
    graph = cached_power_law_graph(
        num_nodes, edges_per_node=spec.edges_per_node, seed=seed
    )
    space = AddressSpace()
    bases = {
        "row_ptr": space.alloc("row_ptr", (num_nodes + 1) * INT_BYTES),
        "col_idx": space.alloc("col_idx", graph.num_arcs * INT_BYTES),
    }
    for arr in spec.neighbor_arrays:
        bases[arr] = space.alloc(arr, num_nodes * INT_BYTES)
    if spec.writes_output:
        bases["output"] = space.alloc("output", num_nodes * INT_BYTES)
    rng = rng_for(name, seed)
    total_tbs = num_nodes // THREADS_PER_TB
    # Frontier concentration: each TB is "hot" or "cold", with its own
    # active-node density (Obs. 3 imbalance + low inter-TB reuse: pairs
    # involving a cold TB share almost nothing).
    hot_tbs = rng.random(total_tbs) < spec.hot_tb_fraction
    per_node_threshold = np.where(
        np.repeat(hot_tbs, THREADS_PER_TB)[:num_nodes],
        spec.active_hot,
        spec.active_cold,
    )
    active = rng.random(num_nodes) < per_node_threshold
    cap = sc.max_tbs if spec.tb_cap is None else min(sc.max_tbs, spec.tb_cap)
    traced = min(total_tbs, cap)
    tbs: List[TBTrace] = [
        _trace_tb(spec, graph, bases, t, active) for t in range(traced)
    ]
    return make_kernel(name, tbs, threads_per_tb=THREADS_PER_TB)

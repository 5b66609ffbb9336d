"""Synthetic power-law graph in CSR form.

Stand-in for the coPapersCiteseer citation graph the paper feeds bfs,
color, mis, and pagerank (DESIGN.md substitution table).  A
preferential-attachment process produces the skewed degree distribution
(hubs) that drives the graph benchmarks' TLB behaviour: neighbour
accesses concentrate on hub property pages (intra-TB reuse) while
spreading over the whole id range (large reuse distances).
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass
class CSRGraph:
    """Compressed-sparse-row undirected graph."""

    num_nodes: int
    row_ptr: np.ndarray   # int64, len = num_nodes + 1
    col_idx: np.ndarray   # int32, len = num_edges (directed arcs)

    @property
    def num_arcs(self) -> int:
        return int(self.col_idx.shape[0])

    def degree(self, v: int) -> int:
        return int(self.row_ptr[v + 1] - self.row_ptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[v]: self.row_ptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def validate(self) -> None:
        if self.row_ptr.shape[0] != self.num_nodes + 1:
            raise ValueError("row_ptr length mismatch")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.num_arcs:
            raise ValueError("row_ptr endpoints inconsistent")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr not monotonic")
        if self.num_arcs and (
            self.col_idx.min() < 0 or self.col_idx.max() >= self.num_nodes
        ):
            raise ValueError("col_idx out of range")


class BoundedWords:
    """numpy's bounded-integer draws, replayed in Python from bulk words.

    For ``2 <= n < 2**32``, ``Generator.integers(0, n, size=k)`` takes
    the bit generator's 32-bit words one at a time and applies Lemire's
    rule to each: ``x = word * n``, rejected while the low 32 bits of
    ``x`` fall below ``(2**32 - n) % n``, else ``x >> 32`` is the draw.
    :meth:`integers` applies the same rule to words fetched in bulk, so
    a long run of small draws costs one numpy call per chunk instead of
    one per draw.  Bulk fetching reads ahead of the words the draws
    use; :meth:`sync` rewinds the generator to exactly where numpy's own
    per-draw calls would have left it.
    """

    #: 32-bit words fetched per bulk draw
    CHUNK = 1 << 16

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._words: list = []
        self._pos = 0
        #: generator state before the current chunk was drawn
        self._state = None

    def integers(self, n: int, k: int) -> list:
        """The values ``rng.integers(0, n, size=k)`` would return."""
        if not 2 <= n < 1 << 32:
            raise ValueError(f"bound {n} is outside [2, 2**32)")
        threshold = ((1 << 32) - n) % n
        words, pos = self._words, self._pos
        out = []
        while len(out) < k:
            if pos == len(words):
                words, pos = self._refill(), 0
            # each word yields at most one draw: take no more than needed
            end = min(pos + k - len(out), len(words))
            for word in words[pos:end]:
                x = word * n
                if x & 0xFFFFFFFF >= threshold:
                    out.append(x >> 32)
            pos = end
        self._pos = pos
        return out

    def _refill(self) -> list:
        self._state = self._rng.bit_generator.state
        self._words = self._rng.integers(
            0, 1 << 32, size=self.CHUNK, dtype=np.uint32
        ).tolist()
        return self._words

    def sync(self) -> None:
        """Rewind the generator to just past the words actually used."""
        if self._state is None:
            return
        self._rng.bit_generator.state = self._state
        self._rng.integers(0, 1 << 32, size=self._pos, dtype=np.uint32)
        self._state, self._words, self._pos = None, [], 0


def generate_power_law_graph(
    num_nodes: int, edges_per_node: int = 8, seed: int = 0
) -> CSRGraph:
    """Barabási–Albert preferential attachment, undirected CSR output.

    Each new node attaches to ``edges_per_node`` existing nodes chosen
    proportionally to degree (repeated-endpoint sampling), yielding a
    power-law degree distribution with hubs among the low node ids —
    the same skew a citation graph shows.

    The picks consume the random stream exactly as one
    ``rng.integers(0, len(pool), size=m)`` call per node would (see
    :class:`BoundedWords`), so the graph for a given seed never changes.
    """
    if num_nodes <= edges_per_node:
        raise ValueError(
            f"need more than {edges_per_node} nodes, got {num_nodes}"
        )
    m = edges_per_node
    if 2 * m * num_nodes >= 1 << 32:
        # numpy draws from a pool of 2**32 or more endpoints differently
        raise ValueError(
            f"{num_nodes} nodes x {m} edges per node needs a pool of "
            f"2**32 endpoints or more"
        )
    rng = np.random.default_rng(seed)
    draws = BoundedWords(rng)
    # Repeated-endpoint pool: every edge contributes both endpoints, so
    # sampling uniformly from the pool is degree-proportional sampling.
    pool = []
    src_list = []
    dst_list = []
    # Seed ring over the first m nodes.
    for i in range(m):
        j = (i + 1) % m
        src_list.append(i)
        dst_list.append(j)
        pool += (i, j)
    for v in range(m, num_nodes):
        picks = sorted({pool[k] for k in draws.integers(len(pool), m)})
        src_list += [v] * len(picks)
        dst_list += picks
        for u in picks:
            pool += (v, u)
    draws.sync()
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    # Relabel nodes with a random permutation: citation-graph node ids do
    # not correlate with degree, so hubs must not cluster at low ids
    # (which preferential attachment would otherwise produce).
    perm = rng.permutation(num_nodes).astype(np.int64)
    src = perm[src]
    dst = perm[dst]
    # Undirected: mirror every edge, then build CSR with bincount/argsort.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    all_src = all_src[order]
    all_dst = all_dst[order]
    counts = np.bincount(all_src, minlength=num_nodes)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    graph = CSRGraph(num_nodes, row_ptr, all_dst.astype(np.int32))
    graph.validate()
    return graph


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro"


def _load_cached(path: Path, num_nodes: int) -> Optional[CSRGraph]:
    """The graph stored at ``path``, or ``None`` when the file is missing,
    unreadable (torn, empty, not an ``.npz``) or holds an invalid graph."""
    try:
        with np.load(path) as data:
            graph = CSRGraph(
                int(data["num_nodes"]), data["row_ptr"], data["col_idx"]
            )
        if graph.num_nodes != num_nodes:
            return None
        graph.validate()
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    return graph


def cached_power_law_graph(
    num_nodes: int, edges_per_node: int = 8, seed: int = 0
) -> CSRGraph:
    """Disk-cached :func:`generate_power_law_graph`.

    All four graph benchmarks at one scale share one graph, and separate
    processes (pytest, benchmarks, examples) reuse it via an ``.npz``
    cache keyed by (nodes, edges-per-node, seed).  An entry that cannot
    be read back is a miss: the graph is regenerated and rewritten.
    """
    cache = _cache_dir()
    path = cache / f"powerlaw_n{num_nodes}_m{edges_per_node}_s{seed}.npz"
    graph = _load_cached(path, num_nodes)
    if graph is not None:
        return graph
    graph = generate_power_law_graph(num_nodes, edges_per_node, seed)
    try:
        from ..engine.atomic import atomic_path

        with atomic_path(str(path)) as tmp:
            np.savez(
                tmp,
                num_nodes=np.int64(graph.num_nodes),
                row_ptr=graph.row_ptr,
                col_idx=graph.col_idx,
            )
    except OSError:
        # Cache is an optimization only; never fail the build over it.
        pass
    return graph

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


def _lemire(words: np.ndarray, n) -> "tuple[np.ndarray, np.ndarray]":
    """numpy's bounded draw from ``[0, n)`` applied to 32-bit ``words``.

    ``n`` (``2 <= n < 2**32``) is a scalar or broadcasts against
    ``words``.  Returns ``(draws, rejected)``: each word gives the draw
    ``(word * n) >> 32``, or is rejected when the low 32 bits of the
    product fall below ``(2**32 - n) % n``.
    """
    n = np.asarray(n, dtype=np.uint64)
    x = words.astype(np.uint64) * n
    rejected = (x & np.uint64(0xFFFFFFFF)) < (np.uint64(1 << 32) - n) % n
    return (x >> np.uint64(32)).astype(np.int64), rejected


class BoundedWords:
    """numpy's bounded-integer draws, replayed from bulk 32-bit words.

    For ``2 <= n < 2**32``, ``Generator.integers(0, n, size=k)`` takes
    the bit generator's 32-bit words one at a time and applies Lemire's
    rule to each (:func:`_lemire`), skipping rejected words.  This class
    fetches the words in chunks: :meth:`integers` replays the rule, and
    :meth:`peek`/:meth:`advance` hand words to callers that apply it
    themselves.  Bulk fetching reads ahead of the words used; :meth:`sync`
    rewinds the generator to exactly where numpy's own per-draw calls
    would have left it.
    """

    #: 32-bit words fetched per bulk draw
    CHUNK = 1 << 16

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = 0
        #: generator state just before ``_words[0]`` was drawn
        self._state = None

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, without consuming them."""
        if self._pos + count > len(self._words):
            self.sync()
            self._state = self._rng.bit_generator.state
            self._words = self._rng.integers(
                0, 1 << 32, size=max(count, self.CHUNK), dtype=np.uint32
            )
        return self._words[self._pos: self._pos + count]

    def advance(self, count: int) -> None:
        """Consume ``count`` words (at most the last :meth:`peek`)."""
        self._pos += count

    def integers(self, n: int, k: int) -> list:
        """The values ``rng.integers(0, n, size=k)`` would return."""
        if not 2 <= n < 1 << 32:
            raise ValueError(f"bound {n} is outside [2, 2**32)")
        out: list = []
        while len(out) < k:
            # each word yields at most one draw: take no more than needed
            need = min(k - len(out), self.CHUNK)
            draws, rejected = _lemire(self.peek(need), n)
            out += draws[~rejected].tolist()
            self.advance(need)
        return out

    def sync(self) -> None:
        """Rewind the generator to just past the words actually used."""
        if self._state is None:
            return
        self._rng.bit_generator.state = self._state
        self._rng.integers(0, 1 << 32, size=self._pos, dtype=np.uint32)
        self._state = None
        self._words, self._pos = self._words[:0], 0


#: rows per speculative block: the first and smallest, and the largest
BLOCK_MIN, BLOCK_MAX = 16, 4096


def _block_picks(
    pool: np.ndarray, fill: int, v0: int, words: np.ndarray, m: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Speculative picks of nodes ``v0 .. v0 + B - 1`` from ``(B, m)`` words.

    Bets that every node before row ``i`` added ``m`` distinct picks with
    no rejected word, so row ``i`` draws from a pool of ``fill + 2*m*i``
    endpoints.  Returns the sorted picks and, per row, whether the bet
    fails there (a rejected word or a repeated pick).  Rows before the
    first failing one are exact.
    """
    rows = np.arange(words.shape[0])
    k, rejected = _lemire(words, (fill + 2 * m * rows)[:, None])
    vals = pool[np.minimum(k, fill - 1)]  # k >= fill: resolved below
    # pool[k] past ``fill`` is an endpoint this block adds: slot 2j of
    # row r is node v0 + r, slot 2j + 1 its j-th sorted pick
    inside = np.flatnonzero(k >= fill)
    row, slot = np.divmod(k.flat[inside] - fill, 2 * m)
    vals.flat[inside] = v0 + row
    odd = slot & 1 == 1
    inside, row, col = inside[odd], row[odd], slot[odd] >> 1
    # row < the row that reads it, so the passes reach the one fixed
    # point in at most one pass per link of the longest chain
    while True:
        picks = np.sort(vals, axis=1)
        resolved = picks[row, col]
        if np.array_equal(resolved, vals.flat[inside]):
            break
        vals.flat[inside] = resolved
    failed = rejected.any(axis=1) | (picks[:, 1:] == picks[:, :-1]).any(axis=1)
    return picks, failed


def generate_power_law_graph(
    num_nodes: int, edges_per_node: int = 8, seed: int = 0
) -> CSRGraph:
    """Barabási–Albert preferential attachment, undirected CSR output.

    Each new node attaches to ``edges_per_node`` existing nodes chosen
    proportionally to degree (repeated-endpoint sampling), yielding a
    power-law degree distribution with hubs among the low node ids —
    the same skew a citation graph shows.

    The picks consume the random stream exactly as one
    ``rng.integers(0, len(pool), size=m)`` call per node would, so the
    graph for a given seed never changes.  Nodes are built in
    speculative blocks (:func:`_block_picks`); the first node where the
    block's bet fails takes the exact per-node step (:class:`BoundedWords`).
    """
    if edges_per_node <= 0:
        raise ValueError(
            f"edges_per_node must be positive, got {edges_per_node}"
        )
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
    # Repeated-endpoint pool: edge e is (pool[2e], pool[2e + 1]), so
    # sampling uniformly from the pool is degree-proportional sampling.
    pool = np.empty(2 * m * num_nodes, dtype=np.int64)
    # Seed ring over the first m nodes.
    pool[0: 2 * m: 2] = np.arange(m)
    pool[1: 2 * m: 2] = (np.arange(m) + 1) % m
    fill = 2 * m
    v = m
    block = BLOCK_MIN
    while v < num_nodes:
        b = min(block, num_nodes - v)
        picks, failed = _block_picks(
            pool, fill, v, draws.peek(b * m).reshape(b, m), m
        )
        ok = int(failed.argmax()) if failed.any() else b
        added = pool[fill: fill + 2 * m * ok].reshape(ok, m, 2)
        added[:, :, 0] = np.arange(v, v + ok)[:, None]
        added[:, :, 1] = picks[:ok]
        draws.advance(ok * m)
        fill += 2 * m * ok
        v += ok
        if ok < b:
            # the exact per-node step for the node the bet failed on
            ks = draws.integers(fill, m)
            for u in sorted(set(pool[ks].tolist())):
                pool[fill: fill + 2] = v, u
                fill += 2
            v += 1
        # grow while bets hold, else aim at twice the run that held
        block = min(max(2 * ok, BLOCK_MIN), BLOCK_MAX)
    draws.sync()
    # Relabel nodes with a random permutation: citation-graph node ids do
    # not correlate with degree, so hubs must not cluster at low ids
    # (which preferential attachment would otherwise produce).
    perm = rng.permutation(num_nodes).astype(np.int64)
    src = perm[pool[0:fill:2]]
    dst = perm[pool[1:fill:2]]
    # Undirected: mirror every edge, then build CSR.  Sorting the unique
    # keys ``src * arcs + arc`` orders arcs by source and, within a
    # source, by arc index: the order a stable argsort of ``src`` gives.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = all_src * fill  # fill == number of arcs
    order += np.arange(fill)
    order.sort()
    order %= fill
    counts = np.bincount(all_src, minlength=num_nodes)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    graph = CSRGraph(num_nodes, row_ptr, all_dst[order].astype(np.int32))
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

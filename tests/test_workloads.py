"""Tests for the 10 benchmark generators (micro scale for speed)."""

import hashlib

import numpy as np
import pytest

from repro.arch.config import GPUConfig
from repro.arch.kernel import validate_kernel
from repro.characterization import intra_tb_intensity, tb_page_profiles
from repro.translation.address import PAGE_4K
from repro.workloads import (
    BENCHMARKS,
    TABLE2,
    generate_power_law_graph,
    get_scale,
    make_benchmark,
    traced_footprint_bytes,
)
from repro.workloads import graph as graph_module
from repro.workloads.graph import BoundedWords, cached_power_law_graph
from repro.workloads.graph_kernels import SPECS, graph_nodes

SCALE = "micro"


@pytest.fixture(scope="module")
def kernels():
    return {name: make_benchmark(name, scale=SCALE) for name in BENCHMARKS}


class TestRegistry:
    def test_all_table2_benchmarks_exist(self):
        assert set(TABLE2) == set(BENCHMARKS)
        assert len(BENCHMARKS) == 10

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            make_benchmark("nope")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("huge")


class TestGeneratedKernels:
    def test_kernels_validate(self, kernels):
        for kernel in kernels.values():
            validate_kernel(kernel)

    def test_kernels_deterministic(self):
        k1 = make_benchmark("bfs", scale=SCALE, seed=3)
        k2 = make_benchmark("bfs", scale=SCALE, seed=3)
        assert [list(tb.addresses()) for tb in k1.tbs] == [
            list(tb.addresses()) for tb in k2.tbs
        ]

    def test_seed_changes_graph_traces(self):
        k1 = make_benchmark("bfs", scale=SCALE, seed=0)
        k2 = make_benchmark("bfs", scale=SCALE, seed=1)
        assert [list(tb.addresses()) for tb in k1.tbs] != [
            list(tb.addresses()) for tb in k2.tbs
        ]

    def test_footprints_positive(self, kernels):
        for name, kernel in kernels.items():
            assert traced_footprint_bytes(kernel) > 0, name

    def test_transactions_line_aligned(self, kernels):
        for name, kernel in kernels.items():
            for addr in kernel.addresses():
                assert addr % 128 == 0, name

    def test_occupancy_schedulable(self, kernels):
        cfg = GPUConfig()
        for name, kernel in kernels.items():
            assert kernel.occupancy(cfg) >= 1, name

    def test_scales_order_sizes(self):
        micro = make_benchmark("gemm", scale="micro")
        tiny = make_benchmark("gemm", scale="tiny")
        assert tiny.total_transactions() >= micro.total_transactions()


class TestStructuralShape:
    def test_gemm_has_high_intra_tb_reuse(self, kernels):
        profiles = tb_page_profiles(kernels["gemm"])
        mean = sum(intra_tb_intensity(p) for p in profiles) / len(profiles)
        assert mean > 0.8

    def test_nw_is_compute_heavy(self, kernels):
        nw = kernels["nw"]
        gaps = [
            i.compute_gap
            for tb in nw.tbs for w in tb.warps for i in w.instructions
        ]
        assert max(gaps) >= 100.0

    def test_graph_kernels_are_divergent(self, kernels):
        """Neighbour gathers should produce multi-transaction instructions."""
        bfs = kernels["bfs"]
        multi = sum(
            1
            for tb in bfs.tbs for w in tb.warps for i in w.instructions
            if len(i.transactions) > 1
        )
        assert multi > 0

    def test_matvec_has_flood_instructions(self, kernels):
        atax = kernels["atax"]
        widths = [
            len(i.transactions)
            for tb in atax.tbs for w in tb.warps for i in w.instructions
        ]
        assert max(widths) == 32

    def test_benchmarks_touch_multiple_arrays(self, kernels):
        for name, kernel in kernels.items():
            regions = {
                addr >> 28 for addr in kernel.addresses()
            }
            assert len(regions) >= 2, name


class TestPowerLawGraph:
    def test_csr_valid(self):
        g = generate_power_law_graph(2000, edges_per_node=4, seed=1)
        g.validate()
        assert g.num_nodes == 2000

    def test_degrees_are_skewed(self):
        g = generate_power_law_graph(5000, edges_per_node=4, seed=1)
        degrees = sorted(g.degrees(), reverse=True)
        # Power law: the top node's degree dwarfs the median.
        assert degrees[0] > 10 * degrees[len(degrees) // 2]

    def test_undirected_symmetry(self):
        g = generate_power_law_graph(500, edges_per_node=3, seed=2)
        edges = set()
        for v in range(g.num_nodes):
            for u in g.neighbors(v):
                edges.add((v, int(u)))
        for v, u in edges:
            assert (u, v) in edges

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            generate_power_law_graph(4, edges_per_node=8)

    @pytest.mark.parametrize("m", [0, -1])
    def test_non_positive_edges_per_node_rejected(self, m):
        with pytest.raises(ValueError, match="edges_per_node"):
            generate_power_law_graph(100, edges_per_node=m)

    def test_deterministic_generation(self):
        g1 = generate_power_law_graph(1000, 4, seed=9)
        g2 = generate_power_law_graph(1000, 4, seed=9)
        assert (g1.col_idx == g2.col_idx).all()
        assert (g1.row_ptr == g2.row_ptr).all()


# ---------------------------------------------------------------------- #
# Exact-stream generator: oracle against the original implementation
# ---------------------------------------------------------------------- #
def reference_power_law_graph(num_nodes, edges_per_node=8, seed=0):
    """The original per-node generator: one ``rng.integers`` call and one
    ``np.unique`` per node over a numpy endpoint pool."""
    rng = np.random.default_rng(seed)
    m = edges_per_node
    pool = np.empty(2 * m * (num_nodes + 1), dtype=np.int64)
    fill = 0
    src_list = []
    dst_list = []
    for i in range(m):
        j = (i + 1) % m
        src_list.append(i)
        dst_list.append(j)
        pool[fill] = i
        pool[fill + 1] = j
        fill += 2
    for v in range(m, num_nodes):
        picks = pool[rng.integers(0, fill, size=m)]
        for u in np.unique(picks):
            src_list.append(v)
            dst_list.append(int(u))
            pool[fill] = v
            pool[fill + 1] = u
            fill += 2
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    perm = rng.permutation(num_nodes).astype(np.int64)
    src = perm[src]
    dst = perm[dst]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    all_src = all_src[order]
    all_dst = all_dst[order]
    counts = np.bincount(all_src, minlength=num_nodes)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return row_ptr, all_dst.astype(np.int32)


#: (num_nodes, edges_per_node): the smallest legal graph, a small one, and
#: the graphs bfs (m=8) and pagerank (m=6) build at micro scale.  The tiny
#: and small graphs take minutes through the reference: TestPinnedGraphs
#: checks them by digest, and TestBoundedWords covers their pool sizes.
ORACLE_GRAPHS = [
    (m + 1, m) for m in (8, 6)
] + [(512, m) for m in (8, 6)] + [
    (graph_nodes(SPECS[name], "micro"), SPECS[name].edges_per_node)
    for name in ("bfs", "pagerank")
]


class TestExactStream:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("num_nodes,m", ORACLE_GRAPHS)
    def test_matches_reference_byte_for_byte(self, num_nodes, m, seed):
        row_ptr, col_idx = reference_power_law_graph(num_nodes, m, seed)
        g = generate_power_law_graph(num_nodes, m, seed)
        assert g.row_ptr.dtype == row_ptr.dtype
        assert g.col_idx.dtype == col_idx.dtype
        assert g.row_ptr.tobytes() == row_ptr.tobytes()
        assert g.col_idx.tobytes() == col_idx.tobytes()

    def test_pool_of_2_32_endpoints_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            generate_power_law_graph(1 << 28, edges_per_node=8)


def _graph_digests(graph):
    return (
        hashlib.sha256(graph.row_ptr.tobytes()).hexdigest(),
        hashlib.sha256(graph.col_idx.tobytes()).hexdigest(),
    )


#: sha256 of the ``row_ptr`` and ``col_idx`` bytes of the bfs (m=8) and
#: pagerank (m=6) graphs, pinned from the per-node generator.
PINNED_GRAPHS = {
    ("bfs", "tiny", 0): (
        "57232d7df6bf4001b0bb3c313d186a291c9291eb6debe03d97daf401da29b2cd",
        "40e5aee6e768db0525aa1caa34bf4fd2516036e6774666a8047e63cebab149b8",
    ),
    ("bfs", "tiny", 1): (
        "ba95fe5df0fab82b51e7da2f124e0359aa6c86659a547a2fb10dbcc5992b4587",
        "0890973c3fa55955ec93e8ce39cf0814a81962e2e73b8219a63eb8fc86b5f441",
    ),
    ("pagerank", "tiny", 0): (
        "57065bd928b26143cff6258d1d5ebb8acb446383d58682fd7b966da88bb9ce0c",
        "44e78e778c8d6fc89db78f9f586dfd610942834bcf48d525e8056ffb0931dc1e",
    ),
    ("pagerank", "tiny", 1): (
        "93676a2c40b8be7fda36ce670b666c698ff6e620b3e2857a67b923886d053910",
        "c282fb2bd061d30a43f432aac2e09c34c1b55cb989ba0c4bdbb59b36a856dced",
    ),
    ("bfs", "small", 0): (
        "5c027fea900e58ff8c4669066fdd477c874da0dcdc15798c63c69c6aa73e9fe2",
        "e71745b94ae2dc540dab4ecb758fcafb6cfc7835f172a7b5dde513318a609dee",
    ),
    ("pagerank", "small", 0): (
        "7c9d5403cc06008b7bd1a709e156ed0b7cda6f5f9b3bc7b2ecdfb29b50359ad3",
        "60667b2c2a6167eeae6b4190127c82075acdfede50bd87fc40e32940b328e3da",
    ),
}


class TestPinnedGraphs:
    @pytest.mark.parametrize(
        "name,scale,seed",
        [
            pytest.param(
                *key, marks=[pytest.mark.slow] if key[1] == "small" else []
            )
            for key in PINNED_GRAPHS
        ],
    )
    def test_graph_bytes_match_pinned_digests(self, name, scale, seed):
        spec = SPECS[name]
        graph = generate_power_law_graph(
            graph_nodes(spec, scale), spec.edges_per_node, seed
        )
        assert _graph_digests(graph) == PINNED_GRAPHS[name, scale, seed]


class ScriptedRng:
    """A ``numpy.random.Generator`` stand-in with scripted 32-bit words.

    Serves the calls the generator and its reference make: raw words,
    bounded draws (Lemire's rule per word, in Python ints), a state that
    is the word position, and a permutation seeded by that position, so
    two runs agree only if they leave the stream at the same word.
    """

    #: words after the script: enough for the generator's bulk reads
    FILLER = np.random.default_rng(99).integers(
        0, 1 << 32, size=4 * BoundedWords.CHUNK, dtype=np.uint32
    )

    def __init__(self, script):
        self.words = np.concatenate([np.array(script, np.uint32), self.FILLER])
        self.pos = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.pos

    @state.setter
    def state(self, pos):
        self.pos = pos

    def integers(self, low, high, size, dtype=np.int64):
        assert low == 0
        if high == 1 << 32:
            self.pos += size
            return self.words[self.pos - size: self.pos].astype(dtype)
        out = []
        while len(out) < size:
            x = int(self.words[self.pos]) * high
            self.pos += 1
            if x & 0xFFFFFFFF >= ((1 << 32) - high) % high:
                out.append(x >> 32)
        return np.array(out, dtype=dtype)

    def permutation(self, n):
        return np.random.Generator(np.random.PCG64(self.pos)).permutation(n)


def _word_for(k, n):
    """A word numpy maps to the draw ``k`` from ``[0, n)``: the largest
    such word, which is never rejected."""
    return (((k + 1) << 32) - 1) // n


#: blocks of 4 rows, edges_per_node 3: with no failure blocks start at
#: nodes 3, 7, 11, ... and node v draws from 6 * (v - 2) endpoints
FORCED_BLOCK, FORCED_M = 4, 3


def _forced_script(event, target):
    """Words for nodes ``3 .. target``: each node picks pool entries 0,
    2, 4 (nodes 0, 1, 2 of the seed ring) unless ``event`` says else."""
    m, script = FORCED_M, []
    first = target - (target - m) % FORCED_BLOCK  # first node of its block
    start = 2 * m * (first - m + 1)  # pool size when that block starts
    for v in range(m, target + 1):
        n = 2 * m * (v - m + 1)
        ks = [0, 2, 4]
        if v == target and event == "rejected":
            # word 0 is rejected (n is never a power of two); read as a
            # draw, it would not repeat a pick but shift the stream
            script.append(0)
            ks = [2, 4, 0]
        elif v == target and event == "duplicate":
            ks = [0, 5, 4]  # pool entries 0 and 5 both hold node 0
        elif event == "into-block" and v == first == target:
            ks = [start - 1, start - 2, 0]  # the previous block's last edge
        elif event == "into-block" and first < v <= target:
            # a chain through the block: each row picks the previous
            # row's owner and the node 2 that row picked
            j = 2 if v == first + 1 else 1  # where 2 sits in that row
            ks = [n - 2 * m + 2 * j + 1, n - 2 * m, 0]
        script += [_word_for(k, n) for k in ks]
    return script


class TestBlockFallbacks:
    """Force each case a block bet must handle at a block's first and
    last row, and check the graph against the per-node reference."""

    @pytest.mark.parametrize("event", ["rejected", "duplicate", "into-block"])
    @pytest.mark.parametrize("target,row", [(7, 0), (10, 3)], ids=["first", "last"])
    def test_forced_event_matches_reference(self, monkeypatch, event, target, row):
        monkeypatch.setattr(graph_module, "BLOCK_MIN", FORCED_BLOCK)
        monkeypatch.setattr(graph_module, "BLOCK_MAX", FORCED_BLOCK)
        script = _forced_script(event, target)
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: ScriptedRng(script)
        )
        blocks = []
        block_picks = graph_module._block_picks

        def spy(pool, fill, v0, words, m):
            picks, failed = block_picks(pool, fill, v0, words, m)
            blocks.append((v0, failed.tolist()))
            return picks, failed

        monkeypatch.setattr(graph_module, "_block_picks", spy)
        num_nodes = 16
        g = generate_power_law_graph(num_nodes, FORCED_M)
        row_ptr, col_idx = reference_power_law_graph(num_nodes, FORCED_M)
        assert g.row_ptr.tobytes() == row_ptr.tobytes()
        assert g.col_idx.tobytes() == col_idx.tobytes()
        # the forced node sits at ``row`` of a block, and fails the bet
        # there unless its picks only point into the block
        failed = dict(blocks)[target - row]
        assert failed[: row + 1] == [False] * row + [event != "into-block"]


class TestBoundedWords:
    @pytest.mark.parametrize(
        "n", [2, 3, 7, 1000, 2**31 + 1, 2**32 - 1]
    )
    def test_matches_numpy_values_and_state(self, n):
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        draws = BoundedWords(ours)
        # uneven calls that together cross at least two bulk refills
        sizes = (1, 5, 0, BoundedWords.CHUNK + 33, 2, BoundedWords.CHUNK)
        got = []
        for k in sizes:
            got += draws.integers(n, k)
        draws.sync()
        assert got == theirs.integers(0, n, size=sum(sizes)).tolist()
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    def test_near_half_rejections_consume_extra_words(self):
        n = 2**31 + 1
        ours = np.random.default_rng(3)
        draws = BoundedWords(ours)
        draws.integers(n, 1000)
        # (2**32 - n) % n rejects almost half of all words
        assert 1800 < draws._pos < 2200

    def test_sync_without_draws_keeps_the_state(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        BoundedWords(rng).sync()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [0, 1, 2**32])
    def test_bounds_outside_the_32_bit_path_rejected(self, n):
        with pytest.raises(ValueError):
            BoundedWords(np.random.default_rng(0)).integers(n, 1)

    def test_peek_and_advance_match_numpy_words_and_state(self):
        ours, theirs = np.random.default_rng(13), np.random.default_rng(13)
        draws = BoundedWords(ours)

        def words(k):
            return theirs.integers(0, 1 << 32, size=k, dtype=np.uint32).tolist()

        # peeked words are not consumed: only advanced ones are
        peeked = draws.peek(100).tolist()
        draws.advance(60)
        assert peeked[:60] == words(60)
        assert draws.integers(1000, 5) == theirs.integers(0, 1000, size=5).tolist()
        # a peek past the chunk end refetches from the first unused word
        draws.advance(BoundedWords.CHUNK - 80)
        words(BoundedWords.CHUNK - 80)
        assert draws.peek(40).tolist() == words(40)
        draws.advance(40)
        draws.sync()
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()


class TestGraphCache:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path / "powerlaw_n600_m4_s2.npz"

    @pytest.mark.parametrize("kept", [0.0, 0.01, 0.5], ids=["empty", "header", "torn"])
    def test_unreadable_entry_is_a_miss(self, cache, kept):
        fresh = cached_power_law_graph(600, 4, seed=2)
        data = cache.read_bytes()
        cache.write_bytes(data[: int(len(data) * kept)])
        graph = cached_power_law_graph(600, 4, seed=2)
        assert graph.row_ptr.tobytes() == fresh.row_ptr.tobytes()
        assert graph.col_idx.tobytes() == fresh.col_idx.tobytes()
        # the entry was rewritten whole
        assert cache.read_bytes() == data

    def test_entry_for_another_graph_is_a_miss(self, cache):
        other = cached_power_law_graph(700, 4, seed=2)
        (cache.parent / "powerlaw_n700_m4_s2.npz").replace(cache)
        graph = cached_power_law_graph(600, 4, seed=2)
        assert graph.num_nodes == 600 != other.num_nodes
        graph.validate()

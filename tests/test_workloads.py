"""Tests for the 10 benchmark generators (micro scale for speed)."""

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
#: and small graphs take minutes through the reference; their pool sizes
#: are covered by the direct bound tests of TestBoundedWords.
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

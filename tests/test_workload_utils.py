"""Tests for workload-building utilities (AddressSpace, TraceBuilder)."""

import pytest

from repro.workloads import AddressSpace, TraceBuilder
from repro.workloads.base import REGION_ALIGN, make_kernel, pages_of, rng_for


class TestAddressSpace:
    def test_regions_are_disjoint_and_aligned(self):
        space = AddressSpace()
        a = space.alloc("a", 1000)
        b = space.alloc("b", 10_000_000)
        c = space.alloc("c", 1)
        assert a % REGION_ALIGN == 0
        assert b % REGION_ALIGN == 0
        assert a < b < c
        assert b - a >= REGION_ALIGN

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc("x", 10)
        with pytest.raises(ValueError):
            space.alloc("x", 10)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc("x", 0)

    def test_footprint(self):
        space = AddressSpace()
        space.alloc("a", 100)
        space.alloc("b", 200)
        assert sum(size for _, size in space.regions.values()) == 300


class TestTraceBuilder:
    def test_coalesced_access(self):
        b = TraceBuilder(1)
        b.strided(0, 0, 4)  # 32 threads x 4B = 1 transaction
        tb = b.build(0)
        assert tb.num_transactions == 1

    def test_broadcast(self):
        # every thread reads one address: one transaction
        b = TraceBuilder(1)
        b.access(0, [4096] * 32)
        tb = b.build(0)
        assert list(tb.addresses()) == [4096]

    def test_divergent_access_split_into_batches(self):
        b = TraceBuilder(1, max_tx_per_instr=8)
        b.access(0, (i * 4096 for i in range(32)))
        tb = b.build(0)
        assert len(tb.warps[0].instructions) == 4
        assert tb.num_transactions == 32
        gaps = [i.compute_gap for i in tb.warps[0].instructions]
        assert gaps[0] > 0 and all(g == 0 for g in gaps[1:])

    def test_no_batching_by_default(self):
        b = TraceBuilder(1)
        b.access(0, (i * 4096 for i in range(32)))
        assert len(b.build(0).warps[0].instructions) == 1

    def test_warp_stagger_applied_to_later_warps(self):
        b = TraceBuilder(2, compute_gap=5.0, warp_stagger=100.0)
        b.access(0, (0,))
        b.access(1, (0,))
        tb = b.build(0)
        assert tb.warps[0].instructions[0].compute_gap == 5.0
        assert tb.warps[1].instructions[0].compute_gap == 105.0

    def test_empty_warps_are_dropped(self):
        b = TraceBuilder(4)
        b.access(2, (0,))
        tb = b.build(0)
        assert tb.num_warps == 1

    def test_write_flag_propagates(self):
        b = TraceBuilder(1)
        b.access(0, (0,), write=True)
        assert b.build(0).warps[0].instructions[0].is_write

    def test_invalid_warp_count(self):
        with pytest.raises(ValueError):
            TraceBuilder(0)


class TestHelpers:
    def test_pages_of(self):
        assert pages_of([0, 100, 4096, 8191]) == {0, 1}

    def test_rng_deterministic_per_name(self):
        assert rng_for("bfs", 1).integers(1000) == rng_for("bfs", 1).integers(1000)
        r1 = rng_for("bfs", 1).integers(1 << 30)
        r2 = rng_for("mvt", 1).integers(1 << 30)
        assert r1 != r2  # different benchmarks decorrelate

    def test_make_kernel_metadata(self):
        b = TraceBuilder(1)
        b.access(0, (0,))
        kernel = make_kernel("k", [b.build(0)], threads_per_tb=64,
                             registers_per_thread=16, shared_mem_per_tb=1024)
        assert kernel.registers_per_thread == 16
        assert kernel.shared_mem_per_tb == 1024

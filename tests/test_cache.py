"""Unit tests for the data cache and memory partitions."""

import pytest
from conftest import entries
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import DRAMChannel
from repro.memory.interconnect import Interconnect
from repro.memory.partition import MemoryPartition, PartitionedMemory


class TestCache:
    def test_geometry(self):
        c = Cache(16 * 1024, 4, 128)
        assert c.num_sets == 32
        with pytest.raises(ValueError):
            Cache(1000, 4, 128)
        with pytest.raises(ValueError):
            Cache(0, 4, 128)

    def test_non_power_of_two_line_refused(self):
        # 768 B divides into 2-way sets of 96 B lines: only the line
        # size itself is wrong
        with pytest.raises(ValueError, match="power of two"):
            Cache(768, 2, 96)

    def test_miss_does_not_allocate(self):
        c = Cache(1024, 2, 128)
        assert not c.access(0)
        assert not c.access(0)
        assert entries(c) == 0

    def test_fill_then_hit(self):
        c = Cache(1024, 2, 128)
        c.fill(0)
        assert c.access(0)
        assert c.access(127)      # same line
        assert not c.access(128)  # next line

    def test_lru_within_set(self):
        c = Cache(256, 2, 128)  # 1 set, 2 ways
        c.fill(0)
        c.fill(128)
        c.access(0)              # refresh line 0
        evicted = c.fill(256)
        assert evicted == 1      # line address of addr 128
        assert c.access(0)
        assert not c.access(128)

    def test_dirty_eviction_counts_writeback(self):
        c = Cache(256, 2, 128)
        c.fill(0, is_write=True)
        c.fill(128)
        c.fill(256)  # evicts dirty line 0
        assert c.stats.counter("writebacks").value == 1

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=40)
    def test_property_occupancy_bounded(self, addrs):
        c = Cache(2048, 4, 128)
        for a in addrs:
            if not c.access(a):
                c.fill(a)
        assert entries(c) <= 16
        for s in c.sets:
            assert len(s) <= 4


class TestDRAM:
    def test_latency_plus_bandwidth(self):
        d = DRAMChannel(access_latency=200.0, service_interval=4.0)
        assert d.access(0.0) == 200.0
        assert d.access(0.0) == 204.0
        assert d.access(1000.0) == 1200.0
        assert d.stats.counter("requests").value == 3


class TestInterconnect:
    def test_traversal_and_injection_serialization(self):
        noc = Interconnect(2, traversal_latency=20.0, injection_interval=2.0)
        assert noc.traverse(0, 0.0) == 20.0
        assert noc.traverse(0, 0.0) == 22.0
        # Different SM has its own injection port.
        assert noc.traverse(1, 0.0) == 20.0

    def test_invalid_sm_count(self):
        with pytest.raises(ValueError):
            Interconnect(0)


class TestPartitions:
    def test_line_interleaving_covers_all_partitions(self):
        mem = PartitionedMemory(num_partitions=4, line_bytes=128)
        for i in range(8):
            mem.access(i * 128, 0.0)
        assert [entries(p.l2) for p in mem.partitions] == [2, 2, 2, 2]

    def test_non_power_of_two_line_refused(self):
        with pytest.raises(ValueError, match="power of two"):
            PartitionedMemory(
                num_partitions=2, line_bytes=96,
                l2_slice_bytes=96 * 8 * 16, l2_associativity=8,
            )

    def test_l2_hit_is_faster_than_dram(self):
        part = MemoryPartition(0, l2_latency=30.0, dram_latency=220.0)
        t_miss = part.access(0, 0.0)
        t_hit = part.access(0, t_miss)
        assert t_hit - t_miss == 30.0
        assert t_miss >= 250.0

    def test_total_hit_rate(self):
        mem = PartitionedMemory(num_partitions=2)
        mem.access(0, 0.0)
        mem.access(0, 1000.0)
        l2 = [p.l2.stats.as_dict() for p in mem.partitions]
        hits = sum(s["hits"] for s in l2)
        assert 0.0 < hits / (hits + sum(s["misses"] for s in l2)) <= 0.5

"""Integration tests for the per-SM data-memory path (MSHRs, timing)."""

from repro.engine.simulator import Simulator
from repro.memory.cache import Cache
from repro.memory.interconnect import Interconnect
from repro.memory.partition import PartitionedMemory
from repro.memory.subsystem import SMMemoryPath


def make_path(sim, l1_latency=1.0):
    l1 = Cache(16 * 1024, 4, 128)
    noc = Interconnect(1, traversal_latency=20.0)
    mem = PartitionedMemory(num_partitions=2)
    return SMMemoryPath(sim, 0, l1, noc, mem, l1_latency=l1_latency), l1


def test_l1_hit_is_fast():
    sim = Simulator()
    path, l1 = make_path(sim)
    l1.fill(0)
    times = []
    path.access(0, 0.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.0]


def test_l1_miss_goes_to_partition_and_fills():
    sim = Simulator()
    path, l1 = make_path(sim)
    times = []
    path.access(0, 0.0, lambda: times.append(sim.now))
    sim.run()
    # 1 (L1) + 20 (NoC) + 30 (L2 slice) + 220 DRAM + 20 back, roughly.
    assert times[0] > 200.0
    assert 0 in l1.sets[0]  # line 0, filled into set 0


def test_second_access_after_fill_hits():
    sim = Simulator()
    path, _l1 = make_path(sim)
    times = []
    path.access(0, 0.0, lambda: times.append(sim.now))
    sim.run()
    path.access(0, sim.now, lambda: times.append(sim.now))
    sim.run()
    assert times[1] - times[0] == 1.0


def test_mshr_merges_same_line():
    sim = Simulator()
    path, _l1 = make_path(sim)
    done = []
    path.access(0, 0.0, lambda: done.append("a"))
    path.access(64, 0.0, lambda: done.append("b"))  # same 128B line
    sim.run()
    assert sorted(done) == ["a", "b"]
    assert path.stats.counter("mshr_merged").value == 1
    # Only one partition request was made.
    total_requests = sum(
        p.dram.stats.counter("requests").value
        for p in path.partitions.partitions
    )
    assert total_requests == 1


def test_different_lines_not_merged():
    sim = Simulator()
    path, _l1 = make_path(sim)
    done = []
    path.access(0, 0.0, lambda: done.append(1))
    path.access(128, 0.0, lambda: done.append(2))
    sim.run()
    assert len(done) == 2
    assert path.stats.counter("mshr_merged").value == 0


def test_writes_mark_lines_dirty():
    sim = Simulator()
    path, l1 = make_path(sim)
    path.access(0, 0.0, lambda: None, is_write=True)
    sim.run()
    # Fill enough conflicting lines to evict the dirty one.
    set_stride = l1.num_sets * l1.line_bytes
    for i in range(1, 6):
        path.access(i * set_stride, sim.now, lambda: None)
        sim.run()
    assert l1.stats.counter("writebacks").value >= 1

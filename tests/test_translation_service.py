"""Unit tests for walkers and the shared translation service."""

from repro.engine.simulator import Simulator
from repro.translation.service import SharedTranslationService
from repro.translation.tlb import SetAssociativeTLB
from repro.translation.uvm import UVMManager
from repro.translation.walker import WalkerPool


def make_service(sim, walkers=8, walk_latency=500.0, port_interval=1.0):
    uvm = UVMManager()
    pool = WalkerPool(uvm, num_walkers=walkers, walk_latency=walk_latency)
    l2 = SetAssociativeTLB(512, 16, 10.0)
    return SharedTranslationService(sim, l2, pool, port_interval=port_interval), l2, pool


def test_l2_miss_walks_then_l2_hit():
    sim = Simulator()
    service, l2, _pool = make_service(sim)
    results = []
    service.translate(42, 0.0, lambda vpn, ppn, lvl: results.append((sim.now, ppn, lvl)))
    sim.run()
    t_walk, ppn, level = results[0]
    assert level == "walk"
    assert t_walk >= 510.0  # lookup + walk
    # Second request: L2 TLB hit at lookup latency only.
    service.translate(42, sim.now, lambda vpn, ppn, lvl: results.append((sim.now, ppn, lvl)))
    start = t_walk
    sim.run()
    t_hit, ppn2, level2 = results[1]
    assert level2 == "l2"
    assert ppn2 == ppn
    assert t_hit - start <= 15.0


def test_concurrent_misses_to_same_page_merge():
    sim = Simulator()
    service, _l2, pool = make_service(sim)
    results = []
    for _ in range(5):
        service.translate(7, 0.0, lambda vpn, ppn, lvl: results.append(lvl))
    sim.run()
    assert len(results) == 5
    assert pool.stats.counter("walks").value == 1
    assert service.stats.counter("merged_misses").value == 4


def test_walker_pool_queues_beyond_capacity():
    sim = Simulator()
    service, _l2, _pool = make_service(sim, walkers=2, walk_latency=100.0)
    done_times = []
    for vpn in range(4):
        service.translate(vpn, 0.0, lambda vpn, ppn, lvl: done_times.append(sim.now))
    sim.run()
    done_times.sort()
    # Two walks run immediately; the next two wait for free walkers.
    assert done_times[1] < done_times[2]
    assert done_times[2] >= done_times[0] + 100.0


def test_l2_port_serializes_lookups():
    sim = Simulator()
    service, _l2, _pool = make_service(sim, port_interval=4.0)
    done = []
    for vpn in range(3):
        service.translate(vpn, 0.0, lambda vpn, ppn, lvl: done.append(sim.now))
    sim.run()
    done.sort()
    # Port grants at 0, 4, 8 -> completions at least 4 apart.
    assert done[1] >= done[0] + 4.0 - 1e-9
    assert done[2] >= done[1] + 4.0 - 1e-9


def test_far_fault_adds_latency():
    sim = Simulator()
    uvm = UVMManager(far_fault_latency=2000.0)
    pool = WalkerPool(uvm, num_walkers=8, walk_latency=500.0)
    l2 = SetAssociativeTLB(512, 16, 10.0)
    service = SharedTranslationService(sim, l2, pool)
    times = []
    service.translate(1, 0.0, lambda vpn, ppn, lvl: times.append(sim.now))
    sim.run()
    assert times[0] >= 2510.0
    assert pool.stats.counter("far_faults").value == 1

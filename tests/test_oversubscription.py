"""Tests for UVM oversubscription, eviction, and TLB shootdown."""

import pytest

from repro import BASELINE_CONFIG, build_gpu
from repro.translation.uvm import UVMManager

from conftest import build_kernel


class TestUVMEviction:
    def test_capacity_enforced(self):
        uvm = UVMManager(gpu_memory_bytes=4 * 4096)
        for vpn in range(10):
            uvm.ensure_mapped(vpn)
        assert uvm.resident_pages <= 4
        assert uvm.eviction_count == 6

    def test_lru_victim_selection(self):
        uvm = UVMManager(gpu_memory_bytes=2 * 4096, far_fault_latency=100.0)
        uvm.ensure_mapped(1)
        uvm.ensure_mapped(2)
        uvm.ensure_mapped(1)          # touch 1: LRU is now 2
        uvm.ensure_mapped(3)          # evicts 2
        _ppn, latency = uvm.ensure_mapped(1)
        assert latency == 0.0          # 1 still resident
        _ppn, latency = uvm.ensure_mapped(2)
        assert latency == 100.0        # 2 was evicted, re-faults

    def test_invalidate_hook_called_for_victims(self):
        evicted = []
        uvm = UVMManager(
            gpu_memory_bytes=2 * 4096, invalidate_hook=evicted.append
        )
        for vpn in range(5):
            uvm.ensure_mapped(vpn)
        assert evicted == [0, 1, 2]

    def test_unlimited_memory_never_evicts(self):
        uvm = UVMManager()
        for vpn in range(10_000):
            uvm.ensure_mapped(vpn)
        assert uvm.eviction_count == 0

    def test_capacity_below_page_rejected(self):
        with pytest.raises(ValueError):
            UVMManager(gpu_memory_bytes=100)


class TestSystemOversubscription:
    def test_oversubscribed_run_completes_with_refaults(self):
        kernel = build_kernel(num_tbs=4, warps_per_tb=2, instrs_per_warp=30,
                              pages_per_warp=20)
        unique_pages = 4 * 2 * 20
        cfg = BASELINE_CONFIG.replace(
            gpu_memory_bytes=(unique_pages // 4) * 4096,
            far_fault_latency=1000.0,
        )
        over = build_gpu(cfg)
        result = over.run(kernel)
        assert result.tbs_completed == 4
        # Oversubscription forces re-faults: more far faults than pages.
        assert result.far_faults > unique_pages
        assert over.walkers.uvm.eviction_count > 0

    def test_oversubscription_is_slower_than_fitting(self):
        kernel = build_kernel(num_tbs=4, warps_per_tb=2, instrs_per_warp=30,
                              pages_per_warp=20)
        fits = build_gpu(
            BASELINE_CONFIG.replace(far_fault_latency=1000.0)
        ).run(kernel)
        over = build_gpu(
            BASELINE_CONFIG.replace(
                gpu_memory_bytes=40 * 4096, far_fault_latency=1000.0
            )
        ).run(kernel)
        assert over.cycles > fits.cycles

    def test_shootdown_keeps_tlbs_consistent(self):
        kernel = build_kernel(num_tbs=2, warps_per_tb=1, instrs_per_warp=40,
                              pages_per_warp=30)
        cfg = BASELINE_CONFIG.replace(
            gpu_memory_bytes=16 * 4096, far_fault_latency=500.0
        )
        gpu = build_gpu(cfg)
        gpu.run(kernel)
        uvm = gpu.walkers.uvm
        # Every translation still cached anywhere must be resident.
        for sm in gpu.sms:
            for entry_set in sm.l1_tlb.sets:
                for vpn in entry_set:
                    assert uvm.is_resident(vpn), f"stale L1 entry {vpn}"
        for entry_set in gpu.l2_tlb.sets:
            for vpn in entry_set:
                assert uvm.is_resident(vpn), f"stale L2 entry {vpn}"

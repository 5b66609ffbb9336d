"""Tests for the runtime invariant-checking subsystem (repro.sanitizer).

Coverage contract (ISSUE 3): every checker class has at least one
injected-fault test proving it detects its violation class with the
documented ``sanitizer:<tag>`` error class and exit code 9, a clean run
under ``strict`` reports zero violations on the paper's configuration
matrix, and the strict-mode wall-time overhead stays within budget.
"""

import json
import time

import pytest

from repro.engine.errors import (
    ConfigError,
    SanitizerError,
    SimulationError,
    error_from_class,
)
from repro.engine.supervision import CellSpec, RetryPolicy, simulate_cell
from repro.experiments.configs import get_config
from repro.sanitizer import (
    SANITIZE_ENV_VAR,
    SANITIZE_INJECT_ENV,
    LifecycleChecker,
    PartitionChecker,
    Sanitizer,
    normalize_mode,
)
from repro.telemetry import TelemetrySettings

MICRO = "micro"


def run_cell(
    benchmark="bfs",
    config="baseline",
    sanitize="strict",
    sample_every=None,
    seed=0,
):
    telemetry = None
    if sample_every is not None:
        telemetry = TelemetrySettings(sample_every=sample_every)
    return simulate_cell(
        CellSpec(
            benchmark=benchmark,
            config=get_config(config),
            config_tag=config,
            scale=MICRO,
            seed=seed,
            telemetry=telemetry,
            sanitize=sanitize,
        )
    )


class TestModeSelection:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, None), ("", None), ("0", None), ("off", None),
            ("none", None), ("false", None), ("1", "strict"),
            ("on", "strict"), ("true", "strict"), ("strict", "strict"),
            ("STRICT", "strict"), ("cheap", "cheap"),
        ],
    )
    def test_normalize(self, value, expected):
        assert normalize_mode(value) == expected

    def test_normalize_rejects_garbage(self):
        with pytest.raises(ConfigError):
            normalize_mode("paranoid")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert Sanitizer.from_env() is None
        monkeypatch.setenv(SANITIZE_ENV_VAR, "cheap")
        assert Sanitizer.from_env().mode == "cheap"

    def test_make_explicit_off_beats_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "strict")
        assert Sanitizer.make("off") is None
        assert Sanitizer.make(None).mode == "strict"
        assert Sanitizer.make("cheap").mode == "cheap"

    def test_sanitize_not_in_cell_key(self):
        base = CellSpec("bfs", get_config("baseline"), "baseline")
        sanitized = CellSpec(
            "bfs", get_config("baseline"), "baseline", sanitize="strict"
        )
        # memoized/checkpointed results stay valid with the flag on/off
        assert base.key == sanitized.key


class TestTaxonomy:
    def test_error_carries_tag_and_exit_code(self):
        exc = SanitizerError("sanitizer[x.y]: boom", tag="x.y")
        assert exc.exit_code == 9
        assert exc.error_class == "sanitizer:x.y"
        assert isinstance(exc, SimulationError)

    def test_error_from_class_round_trip(self):
        exc = error_from_class("sanitizer:tlb.overfill", "msg")
        assert isinstance(exc, SanitizerError)
        assert exc.exit_code == 9


class TestCleanRuns:
    """The paper's configuration matrix must sanitize clean (strict)."""

    @pytest.mark.parametrize(
        "config",
        ["baseline", "sched", "partition", "partition_sharing", "comp_ours",
         "dead_entry", "contiguity", "mosaic"],
    )
    def test_zero_violations(self, config, monkeypatch):
        monkeypatch.delenv(SANITIZE_INJECT_ENV, raising=False)
        from repro.system import build_gpu
        from repro.workloads import make_benchmark

        from repro.engine.simulator import Simulator

        san = Sanitizer("strict")
        sim = Simulator(sanitizer=san)
        gpu = build_gpu(get_config(config), sim=sim)
        result = gpu.run(make_benchmark("bfs", scale=MICRO, seed=0))
        assert result.tbs_completed > 0
        assert san.sweeps > 0, "sanitizer never swept — cadence broken"
        assert san.violations == 0

    def test_sanitized_result_identical_to_plain(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        monkeypatch.delenv(SANITIZE_INJECT_ENV, raising=False)
        plain = run_cell(config="partition_sharing", sanitize="off")
        strict = run_cell(config="partition_sharing", sanitize="strict")
        assert plain.to_dict() == strict.to_dict()


#: tags provable end-to-end through a real GPU run, with the config
#: (and sampler requirement) that exercises the guarded structure
E2E_TAGS = [
    ("queue.past_event", "baseline", None),
    ("queue.watcher_order", "baseline", 256),  # needs a live time watcher
    ("tlb.overfill", "baseline", None),
    ("tlb.misplaced", "baseline", None),
    ("tlb.duplicate", "baseline", None),
    ("tlb.stat_desync", "baseline", None),
    ("partition.bounds", "partition", None),
    ("sharing.flag_range", "partition_sharing", None),
    ("sharing.partner_adjacency", "partition_sharing", None),
    ("walk.conservation", "baseline", None),
    ("walk.outstanding", "baseline", None),
    ("tb.double_finish", "baseline", None),
    ("tb.resident_desync", "baseline", None),
    ("tb.leak", "baseline", None),
    ("warp.issue_after_retire", "baseline", None),
    ("sched.status_range", "sched", None),
    ("tlb.dead_bypass_live", "dead_entry", None),
    ("alloc.mosaic_overlap", "mosaic", None),
]


class TestInjectedViolationsEndToEnd:
    @pytest.mark.parametrize(
        "tag,config,sample_every", E2E_TAGS, ids=[t[0] for t in E2E_TAGS]
    )
    def test_injection_detected(self, tag, config, sample_every, monkeypatch):
        monkeypatch.setenv(SANITIZE_INJECT_ENV, tag)
        with pytest.raises(SanitizerError) as excinfo:
            run_cell(config=config, sanitize="strict",
                     sample_every=sample_every)
        assert excinfo.value.tag == tag
        assert excinfo.value.error_class == f"sanitizer:{tag}"
        assert excinfo.value.exit_code == 9

    def test_unknown_injection_tag_is_config_error(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_INJECT_ENV, "no.such.invariant")
        with pytest.raises(ConfigError, match="no.such.invariant"):
            run_cell()


class _Recorder:
    """Minimal sanitizer stand-in that records instead of raising."""

    def __init__(self):
        self.tags = []

    def violation(self, tag, message, context=None):
        self.tags.append(tag)
        raise SanitizerError(f"sanitizer[{tag}]: {message}", tag=tag)


class _FakeAlloc:
    def __init__(self, in_use):
        self.in_use = in_use


class _FakeSM:
    def __init__(self, sm_id=0, resident=(), in_use=None, pending=()):
        self.sm_id = sm_id
        self.resident = {hw: object() for hw in resident}
        self.tbid_alloc = _FakeAlloc(
            len(self.resident) if in_use is None else in_use
        )
        self._pending = {vpn: [] for vpn in pending}
        self.lifecycle = None


class TestLifecycleCheckerUnits:
    """Tags with no end-to-end corruption path: proven at checker level."""

    def make(self, *sms):
        recorder = _Recorder()
        checker = LifecycleChecker(list(sms)).bind(recorder)
        return checker, recorder

    def test_double_dispatch(self):
        checker, _ = self.make(_FakeSM())
        checker.on_dispatch(0, 3)
        with pytest.raises(SanitizerError) as excinfo:
            checker.on_dispatch(0, 3)
        assert excinfo.value.tag == "tb.double_dispatch"

    def test_orphan_issue(self):
        checker, _ = self.make(_FakeSM())

        class _TB:
            hw_tb_id = 5

        class _Warp:
            done = False
            warp_id = 0
            tb = _TB()

        with pytest.raises(SanitizerError) as excinfo:
            checker.on_issue(0, _Warp())
        assert excinfo.value.tag == "warp.orphan_issue"

    def test_allocator_desync(self):
        sm = _FakeSM(resident=(0, 1), in_use=3)
        checker, _ = self.make(sm)
        checker._ledger[0] = {0, 1}
        with pytest.raises(SanitizerError) as excinfo:
            checker.sweep(_Recorder(), None)
        assert excinfo.value.tag == "tb.allocator_desync"

    def test_stuck_translation(self):
        sm = _FakeSM(pending=(42,))
        checker, _ = self.make(sm)
        with pytest.raises(SanitizerError) as excinfo:
            checker.final(_Recorder(), None)
        assert excinfo.value.tag == "sm.stuck_translation"


class TestAllToAllSharingUnits:
    """All-to-all-only tags: no shipped config builds that register."""

    def make_tlb(self):
        from repro.core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
        from repro.core.set_sharing import AllToAllSharingRegister
        from repro.translation.tlb import SetAssociativeTLB

        tlb = SetAssociativeTLB(
            64, 4, 1.0,
            policy=TBIDIndexPolicy(
                16, occupancy=4, sharing=AllToAllSharingRegister(8)
            ),
            hook=SetSharingSpill(),
        )
        return tlb, PartitionChecker(tlb)

    def test_self_partner(self):
        tlb, checker = self.make_tlb()
        checker.injectors["sharing.self_partner"]()
        with pytest.raises(SanitizerError) as excinfo:
            checker.sweep(_Recorder(), None)
        assert excinfo.value.tag == "sharing.self_partner"

    def test_flag_desync(self):
        tlb, checker = self.make_tlb()
        checker.injectors["sharing.flag_desync"]()
        with pytest.raises(SanitizerError) as excinfo:
            checker.sweep(_Recorder(), None)
        assert excinfo.value.tag == "sharing.flag_desync"

    def test_clean_all_to_all_sweeps_clean(self):
        tlb, checker = self.make_tlb()
        for vpn in range(200):
            if tlb.probe(vpn, tb_id=vpn % 4)[0] is None:
                tlb.insert(vpn, vpn, tb_id=vpn % 4)
        checker.sweep(_Recorder(), None)  # no raise


class TestDegradation:
    def test_fault_plan_sanitizer_kind_degrades(self):
        from repro.engine.faults import FaultKind, FaultPlan
        from repro.experiments.runner import ExperimentRunner

        plan = FaultPlan().add("bfs", "baseline", FaultKind.SANITIZER)
        runner = ExperimentRunner(
            scale=MICRO, seed=0, fault_plan=plan, strict=False,
            retry=RetryPolicy(max_attempts=1),
        )
        result = runner.run("bfs", "baseline")
        assert result.failure == "sanitizer:injected"
        failure = runner.failure_for("bfs", "baseline")
        assert failure.marker == "FAILED(sanitizer:injected)"

    def test_fault_plan_env_round_trip(self):
        from repro.engine.faults import FaultKind, FaultPlan

        plan = FaultPlan().add("bfs", "*", FaultKind.SANITIZER)
        assert FaultPlan.parse(plan.to_env()).specs == plan.specs


class TestCLI:
    def test_injected_violation_exits_9(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(SANITIZE_INJECT_ENV, "tlb.overfill")
        code = main(
            ["run", "bfs", "--scale", MICRO, "--sanitize"]
        )
        assert code == 9
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "sanitizer:tlb.overfill"
        assert err["exit_code"] == 9

    def test_sanitize_off_overrides_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(SANITIZE_ENV_VAR, "strict")
        monkeypatch.setenv(SANITIZE_INJECT_ENV, "tlb.overfill")
        code = main(
            ["run", "bfs", "--scale", MICRO, "--sanitize", "off"]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out


class TestOverhead:
    def test_strict_overhead_within_budget(self, monkeypatch):
        """Acceptance: strict sanitizing costs <= 35% wall time.

        Best-of-N timing to shave scheduler noise; the comparison is
        in-process on the same warmed interpreter.  Both modes drain
        through the same batched loop, so the real overhead is the
        sweeps plus the queue checks on clock changes; single-core CI
        boxes show ~±25% min-of-N jitter, so the budget covers that
        overhead plus timing noise rather than asserting a razor-thin
        margin.  Interleaving the modes keeps slow background drift from
        landing entirely on one side of the ratio.
        """
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        monkeypatch.delenv(SANITIZE_INJECT_ENV, raising=False)

        def timed(sanitize):
            start = time.perf_counter()
            run_cell(config="partition_sharing", sanitize=sanitize)
            return time.perf_counter() - start

        run_cell(config="partition_sharing", sanitize="off")  # warm-up
        off_times, strict_times = [], []
        # the warm-up built the kernel once for the process, so each timed
        # cell is pure simulation (~0.15 s): take enough samples that one
        # quiet pair survives the host's noise bursts
        for _ in range(8):
            off_times.append(timed("off"))
            strict_times.append(timed("strict"))
        off = min(off_times)
        strict = min(strict_times)
        assert strict <= off * 1.35, (
            f"strict sanitizing cost {(strict / off - 1) * 100:.1f}% "
            f"(budget 35%): off={off:.3f}s strict={strict:.3f}s"
        )

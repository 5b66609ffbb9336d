"""Tests for supervised cell workers: watchdog, retry/backoff, taxonomy."""

import pytest

from repro.arch.config import BASELINE_CONFIG
from repro.engine.errors import (
    CellTimeoutError,
    LivelockError,
    SimulationError,
    WorkerCrash,
    error_from_class,
)
from repro.engine.faults import FaultKind, FaultPlan
from repro.engine.supervision import (
    CellFailure,
    CellSpec,
    RetryPolicy,
    Supervisor,
    simulate_cell,
)
from repro.experiments.runner import ExperimentRunner

SPEC = CellSpec(
    benchmark="nw",
    config=BASELINE_CONFIG,
    config_tag="baseline",
    scale="micro",
)


def make_supervisor(**kwargs):
    """Supervisor with recorded (not slept) backoff delays."""
    slept = []
    sup = Supervisor(sleep=slept.append, **kwargs)
    return sup, slept


class TestRetryPolicy:
    def test_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.25,
                             backoff_factor=2.0)
        assert [policy.delay(a) for a in range(3)] == [0.25, 0.5, 1.0]


class TestErrorTaxonomy:
    def test_wire_round_trip(self):
        exc = error_from_class("livelock", "msg")
        assert isinstance(exc, LivelockError)
        assert exc.exit_code == 5
        assert error_from_class("unknown-tag", "msg").error_class == "simulation"

    def test_distinct_exit_codes(self):
        codes = [
            error_from_class(tag, "m").exit_code
            for tag in ("simulation", "config", "workload", "livelock",
                        "timeout", "worker_crash", "checkpoint")
        ]
        assert len(set(codes)) == len(codes)
        assert all(c != 0 for c in codes)

    def test_failure_marker(self):
        assert CellFailure("livelock", "m").marker == "FAILED(livelock)"


class TestSimulateCell:
    def test_runs_in_process(self):
        result = simulate_cell(SPEC)
        assert result.tbs_completed > 0
        assert result.ok


class TestSupervisor:
    def test_supervised_matches_in_process(self):
        sup, _ = make_supervisor()
        supervised = sup.run_cell(SPEC)
        direct = simulate_cell(SPEC)
        assert supervised["cycles"] == direct.cycles
        assert supervised["l1_tlb_hits"] == direct.l1_tlb_hits

    def test_crash_retried_then_succeeds(self):
        plan = FaultPlan().add("nw", "baseline", FaultKind.CRASH, times=2)
        sup, slept = make_supervisor(fault_plan=plan)
        result = sup.run_cell(SPEC)
        assert result["tbs_completed"] > 0
        # two transient failures -> two backoff sleeps, exponential
        assert slept == [0.25, 0.5]

    def test_crash_exhausts_attempts(self):
        plan = FaultPlan().add("nw", "baseline", FaultKind.CRASH)
        sup, slept = make_supervisor(fault_plan=plan)
        with pytest.raises(WorkerCrash) as info:
            sup.run_cell(SPEC)
        assert info.value.attempts == 3
        assert slept == [0.25, 0.5]  # no sleep after the terminal attempt

    def test_livelock_fails_fast(self):
        plan = FaultPlan().add("nw", "baseline", FaultKind.LIVELOCK)
        sup, slept = make_supervisor(fault_plan=plan)
        with pytest.raises(LivelockError) as info:
            sup.run_cell(SPEC)
        assert info.value.attempts == 1  # deterministic: not retried
        assert slept == []

    def test_generic_error_fails_fast(self):
        plan = FaultPlan().add("nw", "baseline", FaultKind.ERROR)
        sup, _ = make_supervisor(fault_plan=plan)
        with pytest.raises(SimulationError) as info:
            sup.run_cell(SPEC)
        assert info.value.error_class == "simulation"
        assert info.value.attempts == 1

    def test_watchdog_kills_hung_worker(self):
        plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
        sup, slept = make_supervisor(
            timeout=0.2,
            retry=RetryPolicy(max_attempts=2),
            fault_plan=plan,
        )
        with pytest.raises(CellTimeoutError) as info:
            sup.run_cell(SPEC)
        assert info.value.attempts == 2  # timeouts are transient: retried once
        assert slept == [0.25]
        assert "wall-clock" in str(info.value)


class TestSupervisedRunner:
    def test_fault_plan_implies_supervision(self):
        runner = ExperimentRunner(
            scale="micro",
            fault_plan=FaultPlan().add("nw", "baseline", FaultKind.ERROR),
        )
        assert runner.supervised
        assert ExperimentRunner(scale="micro", timeout=30.0).supervised
        assert not ExperimentRunner(scale="micro").supervised

    def test_strict_runner_raises(self):
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",),
            fault_plan=FaultPlan().add("nw", "baseline", FaultKind.LIVELOCK),
            strict=True,
        )
        with pytest.raises(LivelockError):
            runner.run("nw", "baseline")

    def test_degraded_runner_returns_placeholder(self):
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",),
            fault_plan=FaultPlan().add("nw", "baseline", FaultKind.LIVELOCK),
            strict=False,
        )
        result = runner.run("nw", "baseline")
        assert not result.ok
        assert result.failure == "livelock"
        # failure is cached: the cell is not attempted again
        assert runner.run("nw", "baseline") is result
        failure = runner.failure_for("nw", "baseline")
        assert failure is not None and failure.marker == "FAILED(livelock)"
        assert any("livelock" in line for line in runner.failure_summary())

    def test_unaffected_cells_still_succeed(self):
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",),
            fault_plan=FaultPlan().add("nw", "baseline", FaultKind.LIVELOCK),
            strict=False,
        )
        assert not runner.run("nw", "baseline").ok
        assert runner.run("nw", "sched").ok

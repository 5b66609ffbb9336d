"""Tests for the deterministic fault-injection harness."""

import json

import pytest

from repro.engine.faults import (
    ANY_CONFIG,
    FAULT_ENV_VAR,
    FaultKind,
    FaultPlan,
    FaultSpec,
    corrupt_file,
)


class TestFaultSpec:
    def test_always_applies_by_default(self):
        spec = FaultSpec(FaultKind.CRASH)
        assert all(spec.applies(a) for a in range(10))

    def test_times_limits_to_first_attempts(self):
        spec = FaultSpec(FaultKind.TIMEOUT, times=2)
        assert spec.applies(0)
        assert spec.applies(1)
        assert not spec.applies(2)


class TestFaultPlan:
    def test_lookup_exact_and_wildcard(self):
        plan = FaultPlan()
        plan.add("bfs", "baseline", FaultKind.LIVELOCK)
        plan.add("nw", ANY_CONFIG, FaultKind.CRASH)
        assert plan.lookup("bfs", "baseline", 0).kind is FaultKind.LIVELOCK
        assert plan.lookup("bfs", "sched", 0) is None
        assert plan.lookup("nw", "anything", 0).kind is FaultKind.CRASH
        assert plan.lookup("gemm", "baseline", 0) is None

    def test_lookup_respects_attempt_schedule(self):
        plan = FaultPlan().add("bfs", "baseline", FaultKind.CRASH, times=1)
        assert plan.lookup("bfs", "baseline", 0) is not None
        assert plan.lookup("bfs", "baseline", 1) is None

    def test_bool(self):
        assert not FaultPlan()
        assert FaultPlan().add("bfs", "*", FaultKind.ERROR)

    def test_env_round_trip(self):
        plan = FaultPlan()
        plan.add("bfs", "baseline", FaultKind.LIVELOCK)
        plan.add("nw", ANY_CONFIG, FaultKind.CRASH, times=2)
        text = "bfs:baseline:livelock;nw:*:crash:2"
        back = FaultPlan.from_env({FAULT_ENV_VAR: text})
        assert back.specs == plan.specs

    def test_parse_formats(self):
        plan = FaultPlan.parse("bfs:baseline:livelock;nw:*:crash:2")
        assert plan.specs[("bfs", "baseline")] == FaultSpec(FaultKind.LIVELOCK)
        assert plan.specs[("nw", "*")] == FaultSpec(FaultKind.CRASH, times=2)

    def test_parse_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="expected"):
            FaultPlan.parse("bfs:baseline")

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("bfs:baseline:meltdown")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({FAULT_ENV_VAR: "bfs:baseline:timeout"})
        assert plan.lookup("bfs", "baseline", 0).kind is FaultKind.TIMEOUT


class TestCorruptFile:
    def test_flips_one_byte(self, tmp_path):
        path = tmp_path / "victim.jsonl"
        payload = json.dumps({"key": "value"})
        path.write_text(payload)
        corrupt_file(str(path))
        corrupted = path.read_bytes()
        assert corrupted != payload.encode()
        assert len(corrupted) == len(payload)
        diffs = sum(
            1 for a, b in zip(corrupted, payload.encode()) if a != b
        )
        assert diffs == 1

    def test_offset_targets_byte(self, tmp_path):
        path = tmp_path / "victim.bin"
        path.write_bytes(b"abcd")
        corrupt_file(str(path), offset=0)
        assert path.read_bytes()[1:] == b"bcd"
        assert path.read_bytes()[0] != ord("a")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_file(str(path))


class TestDiskSpecsInPlan:
    def test_bad_disk_spec_rejected(self):
        """The removed disk grammar is refused outright, not read as a
        process fault for a benchmark named ``disk``."""
        for text in (
            "disk:checkpoint:crash:4",
            "disk:goldens:torn",
            "nw:*:crash;disk:*:fsync:2",
        ):
            with pytest.raises(ValueError, match="disk"):
                FaultPlan.parse(text)

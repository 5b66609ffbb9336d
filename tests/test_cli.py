"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.engine.errors import ConfigError
from repro.engine.supervision import Supervisor
from repro.experiments.runner import ExperimentRunner


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bfs" in out
    assert "partition_sharing" in out
    assert "scales" in out


def test_run_command(capsys):
    assert main(["run", "nw", "--scale", "micro"]) == 0
    out = capsys.readouterr().out
    assert "L1 TLB hit rate" in out
    assert "TBs completed" in out


def test_run_with_named_config(capsys):
    assert main(
        ["run", "nw", "--scale", "micro", "--config", "partition_sharing"]
    ) == 0
    assert "partition_sharing" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main(
        ["compare", "nw", "--scale", "micro",
         "--configs", "baseline", "partition"]
    ) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "partition" in out
    assert "1.000" in out  # baseline normalizes to itself


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nope"])


def test_unknown_config_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "bfs", "--config", "nope"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


class TestFailureContract:
    """Taxonomy errors exit with class-specific codes + a JSON line."""

    def test_injected_livelock_exit_code_and_json(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "nw:baseline:livelock")
        code = main(["run", "nw", "--scale", "micro"])
        assert code == 5
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "livelock"
        assert payload["exit_code"] == 5
        assert "livelock" in payload["message"]

    def test_injected_crash_exhausts_retries(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "nw:baseline:crash")
        code = main(["run", "nw", "--scale", "micro"])
        assert code == 7
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "worker_crash"

    def test_crash_recovered_by_retry(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "nw:baseline:crash:1")
        assert main(["run", "nw", "--scale", "micro"]) == 0
        assert "TBs completed" in capsys.readouterr().out

    def test_timeout_flag_supervises(self, capsys):
        assert main(["run", "nw", "--scale", "micro", "--timeout", "120"]) == 0
        assert "TBs completed" in capsys.readouterr().out

    @pytest.fixture()
    def no_worker(self, monkeypatch):
        def attempt(*_args):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(Supervisor, "_attempt", attempt)

    @pytest.mark.parametrize("timeout", [0, -1, float("nan")])
    def test_non_positive_timeout_is_config_error(self, timeout, no_worker):
        with pytest.raises(ConfigError) as info:
            ExperimentRunner(scale="micro", timeout=timeout)
        assert info.value.exit_code == 3
        assert info.value.field == "timeout"

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_non_positive_timeout_flag_exits_3(self, capsys, timeout,
                                                no_worker):
        code = main(["run", "nw", "--scale", "micro", "--timeout", timeout])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert "timeout" in payload["message"]

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_is_config_error(self, parallel):
        with pytest.raises(ConfigError) as info:
            ExperimentRunner(scale="micro", parallel=parallel)
        assert info.value.exit_code == 3
        assert info.value.field == "parallel"

    @pytest.mark.parametrize("argv", [
        ["report", "--scale", "micro", "--benchmarks", "nw", "--plan",
         "--parallel", "0"],
        ["report", "--scale", "micro", "--benchmarks", "nw", "--plan",
         "--parallel", "-3"],
        ["run", "nw", "--scale", "micro", "--parallel", "0"],
    ])
    def test_parallel_flag_below_one_exits_3(self, capsys, argv, no_worker):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "plan" not in captured.out
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        assert "parallel" in payload["message"]


class TestReportFlags:
    def test_report_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            ["report", "--scale", "micro", "--timeout", "5",
             "--checkpoint", "x.jsonl", "--resume", "--strict",
             "--benchmarks", "nw", "bfs"]
        )
        assert args.timeout == 5.0
        assert args.checkpoint == "x.jsonl"
        assert args.resume and args.strict
        assert args.benchmarks == ["nw", "bfs"]


class TestTelemetryFlags:
    """--trace / --sample-every and the trace subcommand."""

    def test_run_writes_trace_and_manifest(self, capsys, tmp_path):
        trace = str(tmp_path / "t.json")
        assert main(
            ["run", "nw", "--scale", "micro",
             "--trace", trace, "--sample-every", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "samples" in out and trace in out
        payload = json.load(open(trace))
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert {"tb", "tlb", "walk"} <= cats
        manifest = json.load(open(trace + ".manifest.json"))
        assert manifest["kind"] == "repro-manifest"
        assert manifest["sample_every"] == 500

    def test_trace_subcommand_summarizes(self, capsys, tmp_path):
        trace = str(tmp_path / "t.json")
        assert main(["run", "nw", "--scale", "micro", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace", trace, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "tb spans" in out

    def test_trace_subcommand_rejects_garbage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["trace", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_compare_merges_cells_into_one_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "cmp.json")
        assert main(
            ["compare", "nw", "--scale", "micro",
             "--configs", "baseline", "partition", "--trace", trace]
        ) == 0
        events = json.load(open(trace))["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
        labels = {e["args"]["name"] for e in events
                  if e.get("name") == "process_name"}
        assert labels == {"nw:baseline", "nw:partition"}


class TestResilienceFlagParity:
    """run and compare accept the same flags report always had."""

    def test_run_checkpoint_resume_cycle(self, capsys, tmp_path):
        ckpt = str(tmp_path / "c.jsonl")
        assert main(
            ["run", "nw", "--scale", "micro", "--checkpoint", ckpt]
        ) == 0
        capsys.readouterr()
        assert json.load(open(ckpt + ".manifest.json"))["seed"] == 0
        assert main(
            ["run", "nw", "--scale", "micro",
             "--checkpoint", ckpt, "--resume"]
        ) == 0
        assert "TBs completed" in capsys.readouterr().out

    def test_all_simulating_commands_share_exec_flags(self):
        parser = build_parser()
        for argv in (
            ["run", "nw", "--timeout", "5", "--checkpoint", "x", "--resume"],
            ["compare", "nw", "--timeout", "5", "--checkpoint", "x",
             "--resume"],
            ["report", "--timeout", "5", "--checkpoint", "x", "--resume"],
        ):
            args = parser.parse_args(argv)
            assert args.timeout == 5.0
            assert args.checkpoint == "x"
            assert args.resume is True

    def test_resume_defaults_checkpoint_path(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "nw", "--scale", "micro", "--resume"]) == 0
        capsys.readouterr()
        assert (tmp_path / ".repro_checkpoint.micro.jsonl").exists()


class TestServiceOptionGroups:
    """The sweep-queue service and its worker fleet are gone: argparse
    refuses their commands and flags with a usage error."""

    @pytest.mark.parametrize("argv", [
        ["worker", "--connect", "svc"],
        ["serve", "--remote-only"],
        ["serve", "--worker-ttl", "15"],
        ["submit", "nw"],
        ["serve"],
        ["status"],
        ["cancel", "X"],
        ["wait"],
        ["crash-explore"],
        ["compare", "nw", "--service"],
    ])
    def test_fleet_commands_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_stall_fault_kind_is_a_config_error(self, capsys, monkeypatch):
        from repro.engine.errors import ConfigError
        from repro.engine.faults import FaultPlan

        for spec, named in (
            ("bfs:*:stall:9", "stall"),
            ("net:server:drop", "drop"),  # no net faults: unknown kind
            ("disk:journal:enospc", "journal"),  # removed grammar
            ("disk:checkpoint:crash:4", "disk"),  # not a bench named disk
        ):
            with pytest.raises(ConfigError, match=named):
                FaultPlan.parse(spec)
            monkeypatch.setenv("REPRO_FAULT", spec)
            assert main(["run", "bfs", "--scale", "micro"]) == 3
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "config"
            assert named in payload["message"]

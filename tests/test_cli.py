"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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


class TestServiceCli:
    """CLI surface of the sweep service and daemon commands."""

    def test_status_missing_journal_exits_12_one_line(self, capsys,
                                                      tmp_path):
        code = main(
            ["status", "--scale", "micro",
             "--service-dir", str(tmp_path / "nowhere")]
        )
        assert code == 12
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1  # one diagnostic line, never a traceback
        payload = json.loads(err[0])
        assert payload["error"] == "journal"
        assert payload["exit_code"] == 12
        assert "no journal" in payload["message"]

    def test_status_corrupt_header_exits_12(self, capsys, tmp_path):
        svc = tmp_path / "svc"
        svc.mkdir()
        (svc / "journal.jsonl").write_bytes(b"\xff\xfe garbage, not JSON\n")
        code = main(
            ["status", "--scale", "micro", "--service-dir", str(svc)]
        )
        assert code == 12
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "journal"
        assert "unreadable or corrupt" in payload["message"]

    def test_submit_and_serve_roundtrip(self, capsys, tmp_path):
        svc = str(tmp_path / "svc")
        assert main(
            ["submit", "nw", "--configs", "baseline", "--scale", "micro",
             "--service-dir", svc]
        ) == 0
        assert "submitted" in capsys.readouterr().out
        assert main(
            ["serve", "--scale", "micro", "--service-dir", svc]
        ) == 0
        assert "done=1" in capsys.readouterr().out
        assert main(
            ["status", "--scale", "micro", "--service-dir", svc]
        ) == 0
        assert "queue" in capsys.readouterr().out

    def test_submit_deadline_and_priority_flags(self, capsys, tmp_path):
        svc = str(tmp_path / "svc")
        assert main(
            ["submit", "nw", "--configs", "baseline", "--scale", "micro",
             "--service-dir", svc, "--priority", "3", "--deadline", "900"]
        ) == 0
        capsys.readouterr()
        from repro.service import SweepService

        service = SweepService(svc, scale="micro", seed=0)
        service.recover(readonly=True)
        service.close()
        job = service.state.jobs["nw:baseline"]
        assert job.priority == 3
        assert job.deadline_unix > 0
        assert job.idempotency_key

    def test_daemon_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--daemon", "--scale", "micro",
             "--client-ttl", "5", "--socket", "/tmp/x.sock"]
        )
        assert args.daemon and args.client_ttl == 5.0
        assert args.socket == "/tmp/x.sock"
        args = parser.parse_args(
            ["submit", "nw", "--daemon", "--wait", "--priority", "2"]
        )
        assert args.daemon and args.wait and args.priority == 2
        args = parser.parse_args(["cancel", "nw:baseline", "--daemon"])
        assert args.job_id == "nw:baseline"
        args = parser.parse_args(
            ["wait", "nw:baseline", "--deadline", "30"]
        )
        assert args.deadline == 30.0

    def test_wait_against_dead_daemon_exits_protocol(self, capsys,
                                                     tmp_path):
        code = main(
            ["wait", "nw:baseline", "--scale", "micro",
             "--service-dir", str(tmp_path / "svc")]
        )
        assert code == 14  # protocol: daemon unreachable
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "protocol"


class TestServiceOptionGroups:
    """One option group per concern; the remote worker fleet is gone."""

    @pytest.mark.parametrize("argv", [
        ["worker", "--connect", "svc"],
        ["serve", "--remote-only"],
        ["serve", "--worker-ttl", "15"],
    ])
    def test_fleet_commands_and_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_cache_bytes_sits_in_the_service_group(self, capsys):
        args = build_parser().parse_args(["serve", "--cache-bytes", "4096"])
        assert args.cache_bytes == 4096
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        groups = {}
        title = None
        for line in capsys.readouterr().out.splitlines():
            if line and not line[0].isspace() and line.endswith(":"):
                title = line[:-1]
            elif title is not None:
                groups[title] = groups.get(title, "") + line + "\n"
        assert "--cache-bytes" in groups["sweep service"]
        assert not any("fleet" in name for name in groups)

    def test_stall_fault_kind_is_a_config_error(self, capsys, monkeypatch):
        from repro.engine.errors import ConfigError
        from repro.engine.faults import FaultPlan

        with pytest.raises(ConfigError, match="stall"):
            FaultPlan.parse("bfs:*:stall:9")
        monkeypatch.setenv("REPRO_FAULT", "bfs:*:stall:9")
        assert main(["run", "bfs", "--scale", "micro"]) == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "config"

    def test_daemon_status_has_no_fleet_line(self, capsys, tmp_path):
        import threading

        from repro.service import DaemonClient, SweepDaemon, SweepService

        svc = str(tmp_path / "svc")
        pool = SweepService(svc, scale="micro", seed=0)
        pool.recover()
        daemon = SweepDaemon(pool, idle_poll=0.02)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(svc, timeout=5.0, max_attempts=8)
        try:
            client.ping()
            assert main(
                ["status", "--daemon", "--scale", "micro",
                 "--service-dir", svc]
            ) == 0
        finally:
            client.shutdown()
            client.close()
            thread.join(timeout=10.0)
            pool.close()
        out = capsys.readouterr().out
        assert "result cache" in out
        assert "fleet" not in out
        assert "fenced" not in out

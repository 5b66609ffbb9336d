"""Tests for the versioned checkpoint store and runner resume path."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

from repro.arch.gpu import RunResult
from repro.engine.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.engine.errors import CheckpointError
from repro.engine.faults import corrupt_file
from repro.experiments.runner import ExperimentRunner


def make_result(name="bfs", cycles=123.0, traces=None):
    return RunResult(
        kernel_name=name,
        cycles=cycles,
        per_sm_l1_tlb_hit_rate=[0.5, 0.75],
        l1_tlb_hits=10,
        l1_tlb_accesses=20,
        l2_tlb_hits=5,
        l2_tlb_accesses=10,
        walks=5,
        far_faults=0,
        l1_cache_hit_rate=0.4,
        tbs_completed=4,
        stats={"tlb": {"hits": 10}},
        tlb_traces=traces,
    )


class TestRunResultSerialization:
    def test_round_trip(self):
        result = make_result(traces=[[(0, 1.0, True)], [(4096, 2.0, False)]])
        back = RunResult.from_dict(result.to_dict())
        assert back == result
        assert back.tlb_traces[0][0] == (0, 1.0, True)

    def test_round_trip_through_json(self):
        result = make_result(traces=[[(0, 1.0, True)]])
        back = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.cycles == result.cycles
        assert back.tlb_traces == result.tlb_traces

    def test_from_dict_rejects_unknown_fields(self):
        payload = make_result().to_dict()
        payload["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunResult.from_dict(payload)

    def test_from_dict_rejects_missing_fields(self):
        payload = make_result().to_dict()
        del payload["cycles"]
        with pytest.raises(ValueError, match="cycles"):
            RunResult.from_dict(payload)

    def test_make_failed_placeholder(self):
        failed = RunResult.make_failed("bfs", "livelock")
        assert not failed.ok
        assert failed.failure == "livelock"
        assert failed.cycles != failed.cycles  # NaN
        assert failed.avg_l1_tlb_hit_rate != failed.avg_l1_tlb_hit_rate


class _FullDisk(io.FileIO):
    """A file on a full disk: each write lands half its bytes, then
    fails with ENOSPC, as the kernel does once the disk fills."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _raise(code):
    def fail(*args):
        raise OSError(code, os.strerror(code))

    return fail


def _torn_write(store, line):
    """Half of the line reaches the file, then the write fails."""
    data = (line + "\n").encode()
    store._handle.write(data[: len(data) // 2])
    store._handle.flush()
    raise OSError(errno.EIO, os.strerror(errno.EIO))


def _fail_nth(monkeypatch, owner, name, nth, fail):
    """Patch ``owner.name`` so its nth call runs ``fail`` instead."""
    real = getattr(owner, name)
    calls = []

    def patched(*args):
        calls.append(None)
        if len(calls) == nth:
            return fail(*args)
        return real(*args)

    monkeypatch.setattr(owner, name, patched)


class TestCheckpointStore:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        key = ("bfs", "baseline", False, None)
        store.append(key, make_result().to_dict())
        store.append(("nw", "sched", False, None), make_result("nw").to_dict())
        store.close()

        loaded = CheckpointStore(path, scale="micro", seed=0).load()
        assert set(loaded) == {key, ("nw", "sched", False, None)}
        assert RunResult.from_dict(loaded[key]) == make_result()

    def test_load_missing_file_is_empty(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "nope.jsonl"))
        assert store.load() == {}

    def test_torn_final_line_dropped(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs", "baseline", False, None), make_result().to_dict())
        store.append(("nw", "sched", False, None), make_result("nw").to_dict())
        store.close()
        with open(path, "rb") as handle:
            data = handle.read()
        # SIGKILL mid-append: the final record is half-written
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - len(data.splitlines()[-1]) // 2 - 1])
        loaded = CheckpointStore(path, scale="micro", seed=0).load()
        assert set(loaded) == {("bfs", "baseline", False, None)}

    def test_corrupt_middle_record_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs", "baseline", False, None), make_result().to_dict())
        store.append(("nw", "sched", False, None), make_result("nw").to_dict())
        store.close()
        corrupt_file(path)  # deterministic mid-file byte flip
        with pytest.raises(CheckpointError):
            CheckpointStore(path, scale="micro", seed=0).load()

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs", "baseline", False, None), make_result().to_dict())
        store.close()
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = CHECKPOINT_VERSION + 1
        lines[0] = json.dumps(header)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="version"):
            CheckpointStore(path, scale="micro", seed=0).load()

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        open(path, "w").write('{"some": "other file"}\n')
        with pytest.raises(CheckpointError):
            CheckpointStore(path).load()

    def test_scale_and_seed_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs", "baseline", False, None), make_result().to_dict())
        store.close()
        with pytest.raises(CheckpointError, match="scale"):
            CheckpointStore(path, scale="small", seed=0).load()
        with pytest.raises(CheckpointError, match="seed"):
            CheckpointStore(path, scale="micro", seed=7).load()

    def test_crc_detects_tampered_result(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs", "baseline", False, None), make_result().to_dict())
        store.append(("nw", "sched", False, None), make_result("nw").to_dict())
        store.close()
        lines = open(path).read().splitlines()
        record = json.loads(lines[1])
        record["result"]["cycles"] = 1.0  # tamper without updating crc
        lines[1] = json.dumps(record)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum"):
            CheckpointStore(path, scale="micro", seed=0).load()

    @pytest.mark.parametrize("preload", [True, False])
    def test_append_after_torn_tail_cuts_it_off(self, tmp_path, preload):
        """The first append after a crash must not glue its record onto
        the torn fragment, or the next load sees a corrupt middle line."""
        path = str(tmp_path / "ckpt.jsonl")
        bfs = ("bfs", "baseline", False, None)
        nw = ("nw", "sched", False, None)
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(bfs, make_result().to_dict())
        store.close()
        with open(path, "ab") as handle:
            handle.write(b'{"key": ["gemm", "base')  # SIGKILL mid-append
        reopened = CheckpointStore(path, scale="micro", seed=0)
        if preload:  # the runner's --resume path loads before appending
            assert set(reopened.load()) == {bfs}
        reopened.append(nw, make_result("nw").to_dict())
        reopened.close()
        loaded = CheckpointStore(path, scale="micro", seed=0).load()
        assert set(loaded) == {bfs, nw}
        assert RunResult.from_dict(loaded[nw]) == make_result("nw")

    @pytest.mark.parametrize("nth", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["enospc", "fsync", "torn"])
    def test_failed_append_is_rolled_back(
        self, tmp_path, monkeypatch, kind, nth
    ):
        """A failed nth write (nothing or half the line lands) or nth
        fsync, the header write of a fresh file included, leaves a
        store that compacts and loads exactly the records whose appends
        returned."""
        path = str(tmp_path / "ckpt.jsonl")
        if kind == "fsync":
            _fail_nth(monkeypatch, os, "fsync", nth, _raise(errno.EIO))
        else:
            _fail_nth(
                monkeypatch, CheckpointStore, "_write_line", nth,
                _torn_write if kind == "torn" else _raise(errno.ENOSPC),
            )
        store = CheckpointStore(path, scale="micro", seed=0)
        kept, refused = set(), 0
        for i in range(4):
            key = ("bfs", "baseline", False, i)
            try:
                store.append(key, make_result(cycles=float(i)).to_dict())
            except CheckpointError:
                refused += 1
            else:
                kept.add(key)
        assert refused == 1
        store.close(compact=True)
        assert set(CheckpointStore(path, scale="micro", seed=0).load()) == kept

    @pytest.mark.parametrize(
        "scale, loads", [("micro", True), ("small", False)]
    )
    def test_torn_header_is_an_empty_store(self, tmp_path, scale, loads):
        """A crash inside the first write leaves a newline-less header
        prefix: this store's own is a torn tail, another sweep's is
        refused."""
        path = str(tmp_path / "ckpt.jsonl")
        header = json.dumps(
            {"kind": "repro-checkpoint", "version": CHECKPOINT_VERSION,
             "scale": scale, "seed": 0}
        )
        with open(path, "w") as handle:
            handle.write(header[: len(header) - 3])
        store = CheckpointStore(path, scale="micro", seed=0)
        if not loads:
            with pytest.raises(CheckpointError, match="header"):
                store.load()
            return
        assert store.load() == {}
        store.append(("nw",), make_result("nw").to_dict())
        store.close()
        assert set(CheckpointStore(path, scale="micro", seed=0).load()) == {
            ("nw",)
        }

    def test_full_disk_append_fails_cleanly(self, tmp_path):
        """On a full disk the buffered flush fails, and closing the
        handle retries that flush and fails again: the append must
        still roll back, raise CheckpointError and drop the handle."""
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path, scale="micro", seed=0)
        store.append(("bfs",), make_result().to_dict())
        pre_size = os.path.getsize(path)
        store._handle.close()
        store._handle = io.BufferedWriter(_FullDisk(path, "ab"))
        with pytest.raises(CheckpointError, match="append failed"):
            store.append(("gemm",), make_result("gemm").to_dict())
        assert os.path.getsize(path) == pre_size
        store.append(("nw",), make_result("nw").to_dict())  # healthy again
        store.close()
        assert set(CheckpointStore(path, scale="micro", seed=0).load()) == {
            ("bfs",), ("nw",)
        }

    def test_discard_removes_file(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = CheckpointStore(path)
        store.append(("k",), make_result().to_dict())
        store.discard()
        assert not store.exists()


class TestRunnerResume:
    def test_resume_skips_resimulation(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        first = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path
        )
        result = first.run("nw", "baseline")
        assert first.cells_simulated == 1
        first.close()

        second = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        assert second.cells_restored == 1
        restored = second.run("nw", "baseline")
        assert second.cells_simulated == 0  # no re-simulation
        assert restored == result
        second.close()

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        first = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path
        )
        first.run("nw", "baseline")
        first.close()

        second = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=False,
        )
        assert second.cells_restored == 0
        second.run("nw", "baseline")
        assert second.cells_simulated == 1
        second.close()

    def test_full_disk_at_close_is_a_checkpoint_error(
        self, tmp_path, monkeypatch
    ):
        """Compaction and the manifest are atomic writes: when the disk
        is full, closing raises CheckpointError (not a raw OSError) and
        the appended store still resumes."""
        path = str(tmp_path / "ckpt.jsonl")
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path
        )
        runner.run("nw", "baseline")
        monkeypatch.setattr(os, "replace", _raise(errno.ENOSPC))
        with pytest.raises(CheckpointError, match="close failed"):
            runner.close()
        monkeypatch.undo()
        resumed = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        assert resumed.cells_restored == 1

    def test_resume_rejects_other_sweeps_checkpoint(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        first = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path
        )
        first.run("nw", "baseline")
        first.close()
        with pytest.raises(CheckpointError):
            ExperimentRunner(
                scale="micro", seed=3, benchmarks=("nw",),
                checkpoint_path=path, resume=True,
            )


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(ckpt, *extra):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    env.pop("REPRO_FAULT", None)
    argv = [sys.executable, "-m", "repro", "report", "--scale", "micro",
            "--benchmarks", "nw"]
    if ckpt is not None:
        argv += ["--checkpoint", ckpt]
    return subprocess.run(
        argv + list(extra), env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def cold_report():
    cold = _report(None)
    assert cold.returncode == 0, cold.stderr
    return cold.stdout


@pytest.fixture(scope="module")
def cold_store(tmp_path_factory, cold_report):
    """The compacted store a cold checkpointed report leaves behind."""
    ckpt = str(tmp_path_factory.mktemp("cold") / "ck.jsonl")
    run = _report(ckpt)
    assert run.returncode == 0, run.stderr
    assert run.stdout == cold_report
    with open(ckpt, "rb") as handle:
        return handle.read()


def _resume_equals_cold(ckpt, restored, cold):
    resumed = _report(ckpt, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    lines = resumed.stdout.splitlines(keepends=True)
    if restored:
        assert f"resumed {restored} cells" in lines.pop(0)
    assert "".join(lines) == cold
    # the compacted store is whole: a second resume restores every cell
    again = _report(ckpt, "--resume")
    assert again.returncode == 0, again.stderr
    assert again.stdout.splitlines()[1:] == cold.splitlines()


def _torn_store(path, store, kept_lines):
    """Write what a kill inside the write of line ``kept_lines + 1``
    leaves: the whole lines before it and the first half of it."""
    lines = store.splitlines(keepends=True)
    size = sum(map(len, lines[:kept_lines])) + len(lines[kept_lines]) // 2
    with open(path, "wb") as handle:
        handle.write(store[:size])


def test_report_resumes_after_crash_mid_append(
    tmp_path, cold_report, cold_store
):
    """A sweep killed mid-append resumes to exactly a cold run's report.

    The store is cut inside its 4th line (the third cell record), as
    a kill -9 between two bytes of that append leaves it.
    """
    ckpt = str(tmp_path / "ck.jsonl")
    _torn_store(ckpt, cold_store, 3)
    _resume_equals_cold(ckpt, 2, cold_report)


def test_report_resumes_after_crash_in_header_write(
    tmp_path, cold_report, cold_store
):
    """The same kill inside the header write leaves half a header: the
    resume restores no cell, so it prints no "resumed" line at all."""
    ckpt = str(tmp_path / "ck.jsonl")
    _torn_store(ckpt, cold_store, 0)
    _resume_equals_cold(ckpt, 0, cold_report)


def test_report_degrades_on_failed_append_and_resumes(
    tmp_path, monkeypatch, cold_report
):
    """A failed append (here the third write: the second cell record)
    marks its figure FAILED(checkpoint) instead of crashing the sweep,
    and the rolled-back store resumes to a cold run's report."""
    from repro.experiments.report import render_markdown, run_all

    ckpt = str(tmp_path / "ck.jsonl")
    _fail_nth(monkeypatch, CheckpointStore, "_write_line", 3, _torn_write)
    reports, runner = run_all(
        scale="micro", benchmarks=("nw",), checkpoint_path=ckpt
    )
    monkeypatch.undo()
    assert "FAILED(checkpoint)" in render_markdown(reports, "micro", runner)
    _resume_equals_cold(ckpt, runner.cells_simulated - 1, cold_report)


def test_failed_append_degrades_one_cell_not_its_figure(
    tmp_path, monkeypatch
):
    """A refused append fails only the cell it was saving: the report
    lists that one cell under "Degraded run" and no whole experiment,
    and the rolled-back store resumes to a cold run's report."""
    from repro.experiments.report import render_markdown, run_all

    def report(**kwargs):
        reports, runner = run_all(
            scale="micro", benchmarks=("nw", "gemm"), **kwargs
        )
        return render_markdown(reports, "micro", runner)

    ckpt = str(tmp_path / "ck.jsonl")
    _fail_nth(monkeypatch, CheckpointStore, "_write_line", 3, _torn_write)
    degraded = report(checkpoint_path=ckpt).splitlines()
    monkeypatch.undo()
    assert not [line for line in degraded if line.startswith("- experiment ")]
    failed = [
        line for line in degraded
        if line.startswith("- cell (") and "FAILED(checkpoint)" in line
    ]
    assert len(failed) == 1
    assert report(checkpoint_path=ckpt, resume=True) == report()


class TestResumeManifestValidation:
    """--resume trusts the content-keyed store, not the manifest.

    The checkpoint header pins scale/seed; a record is restored only for
    a planned cell with the same content key, so a config edit
    re-simulates exactly the edited cells.  The manifest sidecar is
    written for the reader and never read back.
    """

    def produce(self, tmp_path, seed=0):
        path = str(tmp_path / "sweep.jsonl")
        runner = ExperimentRunner(
            scale="micro", seed=seed, benchmarks=("nw",),
            checkpoint_path=path,
        )
        runner.run("nw", "baseline")
        runner.close()  # writes <path>.manifest.json
        return path

    def test_manifest_written_next_to_checkpoint(self, tmp_path):
        path = self.produce(tmp_path)
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest["kind"] == "repro-manifest"
        assert "baseline" in manifest["config_hashes"]

    def test_happy_resume_passes_validation(self, tmp_path):
        path = self.produce(tmp_path)
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        runner.run("nw", "baseline")
        assert runner.cells_restored == 1
        assert runner.cells_simulated == 0

    def test_seed_mismatch_refused_via_manifest(self, tmp_path):
        path = self.produce(tmp_path, seed=1)
        # the store's header pins the producing seed
        with pytest.raises(CheckpointError, match="seed"):
            ExperimentRunner(
                scale="micro", seed=2, benchmarks=("nw",),
                checkpoint_path=path, resume=True,
            )

    def test_config_edit_resimulates_only_the_edited_cell(self, tmp_path):
        import dataclasses

        from repro.experiments.configs import get_config
        from repro.experiments.runner import Cell

        path = self.produce(tmp_path)
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        edited = dataclasses.replace(
            get_config("baseline"), l2_tlb_entries=128
        )
        edited_cell = Cell("nw", "baseline", edited)
        assert runner.execute([edited_cell])["nw", "baseline"].ok
        assert runner.cells_simulated == 1
        assert runner.run("nw", "baseline").ok  # the unedited cell
        assert (runner.cells_simulated, runner.cells_restored) == (1, 1)

    def test_unknown_tag_not_blocked(self, tmp_path):
        """Configs the producing run never simulated are fair game."""
        path = self.produce(tmp_path)
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        result = runner.run("nw", "sched")  # not in the manifest
        assert result.ok

    def test_missing_manifest_tolerated(self, tmp_path):
        """Pre-manifest / interrupted checkpoints still resume (the
        header checks continue to apply)."""
        import os

        path = self.produce(tmp_path)
        os.remove(path + ".manifest.json")
        runner = ExperimentRunner(
            scale="micro", benchmarks=("nw",), checkpoint_path=path,
            resume=True,
        )
        assert runner.cells_restored == 1

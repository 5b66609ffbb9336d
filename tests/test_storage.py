"""Tests for the injectable storage shim and its disk-fault taxonomy."""

import errno
import json
import os

import pytest

from repro.engine.errors import ConfigError
from repro.engine.storage import (
    FAULT_ENV_VAR,
    DiskFaultKind,
    DiskFaultSpec,
    SimulatedCrash,
    Storage,
    parse_disk_spec,
)


def spec(layer, kind, nth=1):
    return DiskFaultSpec(layer, DiskFaultKind(kind), nth)


# --------------------------------------------------------------------- #
# Spec grammar
# --------------------------------------------------------------------- #
class TestSpecGrammar:
    def test_parse_round_trip(self):
        for text in (
            "disk:checkpoint:enospc",
            "disk:goldens:torn:3",
            "disk:*:fsync",
            "disk:checkpoint:crash:2",
        ):
            assert parse_disk_spec(text).to_part() == text

    def test_rejects_garbage(self):
        for text in (
            "disk:checkpoint",           # missing kind
            "disk:checkpoint:sparks",    # unknown kind
            "disk:checkpoint:eio:0",     # nth must be >= 1
            "disk:checkpoint:eio:x",     # non-numeric nth
            "disk:a:b:c:d",              # too many fields
            "disk:chekpoint:crash",      # misspelled layer
            "disk:journal:enospc",       # removed layer
            "disk:results:torn",         # removed layer
        ):
            with pytest.raises(ConfigError):
                parse_disk_spec(text)


# --------------------------------------------------------------------- #
# Each fault kind provably fires
# --------------------------------------------------------------------- #
class TestFaultKinds:
    def test_enospc_write_leaves_no_bytes(self, tmp_path):
        store = Storage(faults=[spec("checkpoint", "enospc")])
        path = str(tmp_path / "f")
        with pytest.raises(OSError) as err:
            store.write_file(path, b"payload", "checkpoint")
        assert err.value.errno == errno.ENOSPC
        # the refused write landed nothing — not even a truncating open
        assert not os.path.exists(path)

    def test_eio_read(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"data")
        store = Storage(faults=[spec("goldens", "eio")])
        with pytest.raises(OSError) as err:
            store.read_bytes(str(path), "goldens")
        assert err.value.errno == errno.EIO
        # single-shot: the retry reads clean
        assert store.read_bytes(str(path), "goldens") == b"data"

    def test_torn_write_persists_half(self, tmp_path):
        store = Storage(faults=[spec("goldens", "torn")])
        path = str(tmp_path / "f")
        with pytest.raises(OSError) as err:
            store.write_file(path, b"0123456789", "goldens")
        assert err.value.errno == errno.EIO
        with open(path, "rb") as handle:
            assert handle.read() == b"01234"

    def test_fsyncgate_drops_unflushed_bytes(self, tmp_path):
        """A failed fsync loses the dirty bytes AND the retry
        'succeeds' without them — the kernel marked the pages clean
        when it reported the error (fsyncgate semantics)."""
        store = Storage(faults=[spec("checkpoint", "fsync", nth=2)])
        path = str(tmp_path / "f")
        handle = store.open_append(path, "checkpoint")
        store.write_handle(handle, b"first\n", "checkpoint", path)
        store.fsync_handle(handle, "checkpoint", path)  # durable watermark
        store.write_handle(handle, b"second\n", "checkpoint", path)
        with pytest.raises(OSError) as err:
            store.fsync_handle(handle, "checkpoint", path)
        assert err.value.errno == errno.EIO
        # the unflushed record is gone...
        with open(path, "rb") as probe:
            assert probe.read() == b"first\n"
        # ...and a retried fsync reports success without resurrecting it
        store.fsync_handle(handle, "checkpoint", path)
        handle.close()
        with open(path, "rb") as probe:
            assert probe.read() == b"first\n"

    def test_crash_invokes_handler_mid_write(self, tmp_path):
        store = Storage(
            faults=[spec("checkpoint", "crash")],
            crash=lambda: (_ for _ in ()).throw(SimulatedCrash("boom")),
        )
        path = str(tmp_path / "f")
        with pytest.raises(SimulatedCrash):
            store.write_file(path, b"0123456789", "checkpoint")
        # the torn prefix is on disk, exactly like a real SIGKILL
        with open(path, "rb") as handle:
            assert handle.read() == b"01234"


# --------------------------------------------------------------------- #
# Matching mechanics
# --------------------------------------------------------------------- #
class TestMatching:
    def test_nth_op_counts_per_layer_and_kind(self, tmp_path):
        store = Storage(faults=[spec("checkpoint", "enospc", nth=3)])
        path = str(tmp_path / "f")
        store.write_file(path, b"a", "checkpoint")
        store.write_file(path, b"b", "goldens")  # other layer: no count
        store.write_file(path, b"c", "checkpoint")
        with pytest.raises(OSError):
            store.write_file(path, b"d", "checkpoint")

    def test_wildcard_layer_counts_across_layers(self, tmp_path):
        store = Storage(faults=[spec("*", "enospc", nth=2)])
        path = str(tmp_path / "f")
        store.write_file(path, b"a", "checkpoint")
        with pytest.raises(OSError):
            store.write_file(path, b"b", "goldens")

    def test_single_shot(self, tmp_path):
        store = Storage(faults=[spec("checkpoint", "enospc")])
        path = str(tmp_path / "f")
        with pytest.raises(OSError):
            store.write_file(path, b"a", "checkpoint")
        store.write_file(path, b"b", "checkpoint")
        with open(path, "rb") as handle:
            assert handle.read() == b"b"

    def test_env_specs_fold_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_ENV_VAR, "disk:checkpoint:enospc")
        store = Storage()
        with pytest.raises(OSError):
            store.write_file(str(tmp_path / "f"), b"a", "checkpoint")

    def test_env_mixed_with_process_specs_ignored(
        self, tmp_path, monkeypatch
    ):
        # process-fault parts in the same variable are not disk specs
        monkeypatch.setenv(
            FAULT_ENV_VAR, "nw:baseline:crash;disk:goldens:eio"
        )
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store = Storage()
        store.read_bytes(str(path), "checkpoint")  # other layer: clean
        with pytest.raises(OSError):
            store.read_bytes(str(path), "goldens")

    def test_recording_pass_through(self, tmp_path):
        ops = []
        store = Storage(record=ops.append)
        path = str(tmp_path / "f")
        store.write_file(path, b"data", "goldens")
        store.fsync_path(path, "goldens")
        store.replace(path, str(tmp_path / "g"), "goldens")
        assert [op.kind for op in ops] == ["write", "fsync", "rename"]
        assert (tmp_path / "g").read_bytes() == b"data"


# --------------------------------------------------------------------- #
# End-to-end through a real persistence layer and the CLI
# --------------------------------------------------------------------- #
class TestLayerIntegration:
    def test_pass_through_without_faults_is_invisible(self, tmp_path):
        """No faults configured: goldens written/read through the shim
        are byte-identical to a direct write (pass-through guarantee)."""
        from repro.engine.atomic import atomic_write

        direct = tmp_path / "direct.json"
        shimmed = tmp_path / "shimmed.json"
        payload = json.dumps({"cells": {"a": 1.0}}, indent=2)
        direct.write_text(payload)
        atomic_write(str(shimmed), payload, layer="goldens")
        assert shimmed.read_bytes() == direct.read_bytes()

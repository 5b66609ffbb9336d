"""Tests for the atomic durable-write helper."""

import errno
import io
import os

import pytest

from repro.engine import atomic
from repro.engine.atomic import atomic_path, atomic_write


def test_atomic_write_creates_file(tmp_path):
    path = tmp_path / "out.json"
    atomic_write(str(path), "{\"a\": 1}\n")
    assert path.read_text() == "{\"a\": 1}\n"


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    atomic_write(str(path), "new")
    assert path.read_text() == "new"


def test_atomic_write_accepts_bytes(tmp_path):
    path = tmp_path / "blob.bin"
    atomic_write(str(path), b"\x00\x01\x02")
    assert path.read_bytes() == b"\x00\x01\x02"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "data")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_path_preserves_extension(tmp_path):
    # np.savez appends ".npz" unless the temp name already ends in it;
    # the temp name must therefore keep the destination's extension
    path = tmp_path / "cache.npz"
    with atomic_path(str(path)) as tmp:
        assert tmp.endswith(".npz")
        with open(tmp, "w") as handle:
            handle.write("payload")
    assert path.read_text() == "payload"


def test_atomic_path_failure_keeps_original(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("original")
    with pytest.raises(RuntimeError):
        with atomic_path(str(path)) as tmp:
            with open(tmp, "w") as handle:
                handle.write("partial")
            raise RuntimeError("writer died mid-update")
    # the original survives and the torn temp file is cleaned up
    assert path.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_path_failure_before_any_write(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError):
        with atomic_path(str(path)):
            raise ValueError("nothing written")
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------- #
# Faked disk failures: a failed write, fsync or rename must never strand
# temp files or touch the destination
# --------------------------------------------------------------------- #
class _FullDisk(io.FileIO):
    """A file on a full disk: each write lands ``keep`` of its bytes,
    then fails with ENOSPC, as the kernel does once the disk fills."""

    keep = 0.0

    def write(self, data):
        super().write(bytes(data)[: int(len(data) * self.keep)])
        raise OSError(errno.ENOSPC, "No space left on device")


class _TornDisk(_FullDisk):
    keep = 0.5


def _raise(code):
    def fail(*args):
        raise OSError(code, os.strerror(code))

    return fail


def _inject(monkeypatch, kind):
    """Make one step of ``atomic_write`` fail the way ``kind`` names."""
    if kind in ("enospc", "torn"):
        disk = _FullDisk if kind == "enospc" else _TornDisk
        monkeypatch.setattr(
            atomic, "open",
            lambda path, mode: io.BufferedWriter(disk(path, mode)),
            raising=False,
        )
    else:
        monkeypatch.setattr(os, kind, _raise(errno.EIO))


@pytest.mark.parametrize("kind", ["enospc", "torn", "fsync", "replace"])
def test_injected_fault_leaves_no_strandings(tmp_path, monkeypatch, kind):
    path = tmp_path / "out.json"
    path.write_text("original")
    _inject(monkeypatch, kind)
    with pytest.raises(OSError):
        atomic_write(str(path), "replacement")
    monkeypatch.undo()
    # the destination is untouched and no temp artifact survives
    assert path.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.json"]


def test_injected_fault_with_no_preexisting_file(tmp_path, monkeypatch):
    path = tmp_path / "fresh.json"
    _inject(monkeypatch, "torn")
    with pytest.raises(OSError):
        atomic_write(str(path), "data")
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []


def test_cleanup_sweeps_writer_derived_siblings(tmp_path):
    """A path-writing library handed the temp name may create a sibling
    under a name it chose itself (np.savez appends ``.npz``); a failed
    write must sweep those too, not just the exact temp path."""
    path = tmp_path / "cache"  # no extension: tmp name is "cache.tmp"
    with pytest.raises(RuntimeError):
        with atomic_path(str(path)) as tmp:
            with open(tmp + ".npz", "w") as handle:  # savez-style name
                handle.write("derived")
            with open(tmp, "w") as handle:
                handle.write("payload")
            raise RuntimeError("writer died after creating a sibling")
    assert os.listdir(tmp_path) == []


def test_atomic_write_syncs_before_rename(tmp_path, monkeypatch):
    """The payload is written and fsynced before the rename makes it
    visible, and the directory is fsynced after, so the rename itself
    survives power loss."""
    calls, opened = [], {}
    real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

    class Recording(io.FileIO):
        def write(self, data):
            calls.append(("write", self.name))
            return super().write(data)

    def os_open(path, flags, *args):
        fd = real_open(path, flags, *args)
        opened[fd] = path
        return fd

    def fsync(fd):
        calls.append(("fsync", opened[fd]))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(
        atomic, "open",
        lambda path, mode: io.BufferedWriter(Recording(path, mode)),
        raising=False,
    )
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = str(tmp_path / "x.json")
    atomic_write(path, "data")
    tmp = path + ".tmp.json"
    assert calls == [
        ("write", tmp), ("fsync", tmp), ("replace", path),
        ("fsync", str(tmp_path)),
    ]

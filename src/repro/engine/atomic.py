"""Atomic durable writes: one helper for every whole-file artifact.

Every on-disk artifact that is written in one piece — manifests, golden
files, compacted checkpoint stores, workload caches — goes through
:func:`atomic_write` (text/bytes payloads) or :func:`atomic_path`
(libraries that insist on writing a path themselves, e.g.
``np.savez``).  Both follow the same discipline:

1. write the full payload to a temp file *in the destination directory*
   (same filesystem, so the final rename cannot cross devices);
2. flush and ``fsync`` the temp file, so the data is on the platter
   before the name exists;
3. ``os.replace`` onto the destination (atomic on POSIX);
4. ``fsync`` the directory, so the rename itself survives power loss.

A crash — including SIGKILL — at any point leaves either the complete
old file or the complete new file, never a torn hybrid.  Failed writes
— a full disk, a failed ``fsync`` or ``os.replace`` — clean up their
temp file instead of littering the directory, including the sibling a
path-writing library created under a name it chose itself
(``np.savez`` appends ``.npz`` when the temp name carries no extension).
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Union


def _tmp_name(path: str) -> str:
    """Temp-file name next to ``path``, keeping the extension.

    The extension is preserved *after* the ``.tmp`` marker
    (``graph.npz`` → ``graph.npz.tmp.npz``) so extension-sniffing
    writers like ``np.savez`` do not append their own.
    """
    ext = os.path.splitext(path)[1]
    return f"{path}.tmp{ext}"


def _cleanup_tmp(tmp: str) -> None:
    """Remove the temp file and any sibling a writer derived from it.

    A path-writing library handed ``tmp`` may create a different name
    (``np.savez`` appends ``.npz`` when ``tmp`` has no extension), so a
    failed write must sweep every ``tmp``-prefixed entry or it strands
    orphans next to checkpoints/goldens/workload caches.  The prefix
    contains the ``.tmp`` marker, so nothing but this call's artifacts
    can match.
    """
    directory = os.path.dirname(tmp) or "."
    base = os.path.basename(tmp)
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if name.startswith(base):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(directory, name))


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_path(path: str) -> Iterator[str]:
    """Yield a temp path; on clean exit, atomically move it to ``path``.

    For writers that must control the file themselves (``np.savez``,
    ``json.dump`` on a handle the caller opens, ...).  On an exception
    — the writer's own, or a failed fsync or rename — every temp
    artifact is removed and the destination is left untouched.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = _tmp_name(path)
    try:
        yield tmp
        _fsync(tmp)
        os.replace(tmp, path)
        # persist the rename itself (best effort: some filesystems
        # cannot open or fsync a directory)
        with contextlib.suppress(OSError):
            _fsync(directory or ".")
    except BaseException:
        _cleanup_tmp(tmp)
        raise


def atomic_write(path: str, data: Union[str, bytes]) -> str:
    """Atomically replace ``path`` with ``data`` (temp + rename + fsync).

    Returns ``path``.  Readers racing the writer see either the old or
    the new contents, and SIGKILL mid-write never tears the file.
    """
    blob = data.encode() if isinstance(data, str) else data
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(blob)
    return path

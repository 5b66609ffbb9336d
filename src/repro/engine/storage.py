"""Injectable storage layer: every durable byte goes through one shim.

All persistence code — the checkpoint store
(:mod:`repro.engine.checkpoint`), golden files, manifests, and the
:func:`~repro.engine.atomic.atomic_write` helper they share — routes
its filesystem operations through a :class:`Storage` instance, tagged
with its layer (:data:`LAYERS`).  With no faults configured the shim is
a pass-through: the same syscalls in the same order, so goldens and
determinism gates stay byte-identical.  With faults configured, the
*storage itself* can lie, which is the failure class process-level
injection (:mod:`repro.engine.faults`) can never produce:

* ``enospc`` — a write raises ``OSError(ENOSPC)`` before any byte lands;
* ``eio``    — a read raises ``OSError(EIO)`` (media error on recovery);
* ``fsync``  — an fsync fails with ``EIO`` *and the unflushed bytes are
  gone* (fsyncgate semantics: the kernel marked the dirty pages clean
  when it reported the error, so retrying the fsync later "succeeds"
  without the data ever reaching the platter);
* ``torn``   — a write persists only a prefix (half the payload), then
  raises ``EIO``;
* ``crash``  — a write persists a prefix, then the process dies on the
  spot (``os._exit(86)``), leaving a torn file for the *next* process —
  what ``kill -9`` mid-append leaves behind.

Faults are deterministic and single-shot: ``disk:<layer>:<kind>[:<nth>]``
fires on the nth matching operation of that layer (1-based, default 1)
and never again, so a test can assert both the failure and the
recovery.  A layer outside :data:`LAYERS` (or ``*``) is refused, so a
misspelled spec cannot silently inject nothing.  Specs ride in the same
``REPRO_FAULT`` environment variable as process faults (see
:class:`~repro.engine.faults.FaultPlan`), so CI injects through real
CLI invocations.

The shim also *records*: every operation is reported to an optional
``record`` hook as a :class:`StorageOp` (tests use it to pin the
write/fsync/rename order of :func:`~repro.engine.atomic.atomic_write`),
and the ``crash`` handler is injectable so a test can exercise the
``crash`` kind by raising :class:`SimulatedCrash` instead of killing
the test process.
"""

from __future__ import annotations

import enum
import errno
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ConfigError

#: environment variable fault specs ride in (shared with engine.faults;
#: defined here so faults.py can import it without a cycle)
FAULT_ENV_VAR = "REPRO_FAULT"

#: spec prefix distinguishing disk faults from process faults
DISK_PREFIX = "disk"

#: layer wildcard: the fault fires for any persistence layer
ANY_LAYER = "*"

#: persistence layers a disk-fault spec may name (the shim itself
#: accepts any tag so a new layer cannot silently bypass matching)
LAYERS = ("checkpoint", "goldens", "manifest", "atomic")

class DiskFaultKind(enum.Enum):
    """What the injected disk fault does (see module docstring)."""

    ENOSPC = "enospc"
    EIO = "eio"
    FSYNC = "fsync"
    TORN = "torn"
    CRASH = "crash"


#: which operation kind each fault attacks (nth-op counting scope)
FAULT_OPS: Dict[DiskFaultKind, str] = {
    DiskFaultKind.ENOSPC: "write",
    DiskFaultKind.TORN: "write",
    DiskFaultKind.CRASH: "write",
    DiskFaultKind.FSYNC: "fsync",
    DiskFaultKind.EIO: "read",
}


@dataclass(frozen=True)
class DiskFaultSpec:
    """One injected disk fault: layer, kind, and which matching op."""

    layer: str
    kind: DiskFaultKind
    #: 1-based index among this layer's ops of the attacked kind
    nth: int = 1

    def to_part(self) -> str:
        part = f"{DISK_PREFIX}:{self.layer}:{self.kind.value}"
        if self.nth != 1:
            part += f":{self.nth}"
        return part


def parse_disk_spec(part: str) -> DiskFaultSpec:
    """Parse ``disk:<layer>:<kind>[:<nth>]`` (ConfigError on garbage)."""
    fields = part.split(":")
    if fields[0] != DISK_PREFIX or len(fields) not in (3, 4):
        raise ConfigError(
            f"bad disk fault spec {part!r}; expected "
            f"disk:<layer>:<kind>[:<nth-op>]",
            field=FAULT_ENV_VAR,
        )
    layer, kind_name = fields[1], fields[2]
    if layer not in LAYERS + (ANY_LAYER,):
        raise ConfigError(
            f"unknown disk fault layer {layer!r} in {part!r}; choose from "
            f"{list(LAYERS) + [ANY_LAYER]}",
            field=FAULT_ENV_VAR,
        )
    try:
        kind = DiskFaultKind(kind_name)
    except ValueError:
        raise ConfigError(
            f"unknown disk fault kind {kind_name!r}; choose from "
            f"{[k.value for k in DiskFaultKind]}",
            field=FAULT_ENV_VAR,
        ) from None
    nth = 1
    if len(fields) == 4:
        try:
            nth = int(fields[3])
        except ValueError:
            raise ConfigError(
                f"bad disk fault op index {fields[3]!r} in {part!r}",
                field=FAULT_ENV_VAR,
            ) from None
        if nth < 1:
            raise ConfigError(
                f"disk fault op index must be >= 1 in {part!r}",
                field=FAULT_ENV_VAR,
            )
    return DiskFaultSpec(layer, kind, nth)


@dataclass
class StorageOp:
    """One recorded storage operation (``record`` hook payload)."""

    index: int
    layer: str
    kind: str
    path: str
    nbytes: int = 0


class SimulatedCrash(BaseException):
    """In-process stand-in for abrupt process death.

    ``BaseException`` so no recovery code path can accidentally catch
    and survive it — exactly like SIGKILL, the only observer is whoever
    restarts the "process".
    """


def _hard_exit() -> None:
    # same exit code an injected worker crash uses; bypasses Python
    # teardown so no buffered state escapes — a real torn file remains
    os._exit(86)


class Storage:
    """Filesystem shim: pass-through by default, a liar on request.

    ``faults`` are explicit specs; specs parsed from ``REPRO_FAULT``
    are folded in automatically (re-read whenever the variable
    changes, so CLI-driven tests need no plumbing).  ``record`` sees
    every op; ``crash`` is what a ``crash`` fault calls after the torn
    prefix lands (default ``os._exit``).
    """

    def __init__(
        self,
        faults: Optional[List[DiskFaultSpec]] = None,
        record: Optional[Callable[[StorageOp], None]] = None,
        crash: Callable[[], None] = _hard_exit,
    ) -> None:
        self.faults: List[DiskFaultSpec] = list(faults or [])
        self.record = record
        self.crash = crash
        #: spec -> fired yet (single-shot, deterministic)
        self.fired: List[DiskFaultSpec] = []
        self._op_index = 0
        self._counts: Dict[Tuple[str, str], int] = {}
        #: path -> durably-fsynced byte watermark (fsyncgate bookkeeping)
        self._durable: Dict[str, int] = {}
        self._env_text: Optional[str] = None
        self._env_specs: List[DiskFaultSpec] = []

    # ------------------------------------------------------------------ #
    # Fault matching
    # ------------------------------------------------------------------ #
    def _refresh_env(self) -> None:
        text = os.environ.get(FAULT_ENV_VAR, "")
        if text == self._env_text:
            return
        self._env_text = text
        self._env_specs = [
            parse_disk_spec(part.strip())
            for part in text.split(";")
            if part.strip().startswith(DISK_PREFIX + ":")
        ]
        # nth-op counting starts when the plan changes: a long-lived
        # process (e.g. a test harness) that gains a fault spec counts
        # from that moment, exactly like a fresh CLI process would
        self._counts = {}

    def _enter(self, layer: str, kind: str, path: str, nbytes: int = 0):
        """Count + record one op; return the spec to fire, if any."""
        self._refresh_env()
        op = StorageOp(
            index=self._op_index,
            layer=layer,
            kind=kind,
            path=path,
            nbytes=nbytes,
        )
        self._op_index += 1
        for scope in (layer, ANY_LAYER):
            self._counts[(scope, kind)] = (
                self._counts.get((scope, kind), 0) + 1
            )
        if self.record is not None:
            self.record(op)
        spec = None
        for candidate in list(self.faults) + self._env_specs:
            if candidate in self.fired:
                continue
            if FAULT_OPS[candidate.kind] != kind:
                continue
            if candidate.layer not in (layer, ANY_LAYER):
                continue
            if self._counts[(candidate.layer, kind)] == candidate.nth:
                spec = candidate
                self.fired.append(candidate)
                break
        return spec

    @staticmethod
    def _err(code: int, spec: DiskFaultSpec, doing: str) -> OSError:
        return OSError(
            code,
            f"injected disk fault {spec.to_part()!r} during {doing}",
        )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_bytes(self, path: str, layer: str) -> bytes:
        """Whole-file read (the only read shape the repo uses)."""
        spec = self._enter(layer, "read", path)
        if spec is not None:
            raise self._err(errno.EIO, spec, f"read of {path}")
        with open(path, "rb") as handle:
            return handle.read()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def open_append(self, path: str, layer: str):
        """Open ``path`` for appending (binary); durable watermark is
        the current size (everything already on disk is presumed
        fsynced by whoever wrote it)."""
        handle = open(path, "ab")
        self._durable.setdefault(path, handle.tell())
        return handle

    def _enter_write(self, layer: str, path: str, data: bytes):
        """Fault decision for one write, *before* any effect.

        An ENOSPC fault raises here — no byte (and for
        :meth:`write_file`, not even the truncating ``open``) may land
        first; any other fault is returned to apply mid-write.
        """
        spec = self._enter(layer, "write", path, nbytes=len(data))
        if spec is not None and spec.kind is DiskFaultKind.ENOSPC:
            raise self._err(errno.ENOSPC, spec, f"write to {path}")
        return spec

    def _finish_write(
        self, handle, data: bytes, spec: Optional[DiskFaultSpec], path: str
    ) -> None:
        if spec is not None:
            # torn/crash: a prefix reaches the file, the rest never does
            handle.write(data[: len(data) // 2])
            handle.flush()
            if spec.kind is DiskFaultKind.TORN:
                raise self._err(errno.EIO, spec, f"torn write to {path}")
            self.crash()
            return  # pragma: no cover — crash() never returns
        handle.write(data)
        handle.flush()

    def write_handle(
        self, handle, data: bytes, layer: str, path: str
    ) -> None:
        """Write ``data`` through an open handle (flushed to the OS, so
        a later simulated crash cannot silently lose it from a user
        buffer — only injected faults lose bytes)."""
        spec = self._enter_write(layer, path, data)
        self._finish_write(handle, data, spec, path)

    def write_file(self, path: str, data: bytes, layer: str) -> None:
        """Create/overwrite ``path`` with ``data`` in one faultable op
        (the temp-file half of :func:`~repro.engine.atomic.atomic_write`).
        The fault decision precedes the (truncating) ``open``, so an
        ENOSPC leaves the previous contents intact."""
        spec = self._enter_write(layer, path, data)
        with open(path, "wb") as handle:
            self._finish_write(handle, data, spec, path)

    def fsync_handle(self, handle, layer: str, path: str) -> None:
        spec = self._enter(layer, "fsync", path)
        handle.flush()
        if spec is not None:
            # fsyncgate: the kernel reports the error exactly once and
            # drops the dirty pages — bytes since the last successful
            # fsync are gone, and a retried fsync "succeeds" without them
            os.ftruncate(handle.fileno(), self._durable.get(path, 0))
            raise self._err(errno.EIO, spec, f"fsync of {path}")
        os.fsync(handle.fileno())
        self._durable[path] = os.fstat(handle.fileno()).st_size

    def fsync_path(self, path: str, layer: str) -> None:
        """fsync by path (atomic_write's temp file before the rename)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            spec = self._enter(layer, "fsync", path)
            if spec is not None:
                # dropping to the watermark needs a writable fd
                wfd = os.open(path, os.O_WRONLY)
                try:
                    os.ftruncate(wfd, self._durable.get(path, 0))
                finally:
                    os.close(wfd)
                raise self._err(errno.EIO, spec, f"fsync of {path}")
            os.fsync(fd)
            self._durable[path] = os.fstat(fd).st_size
        finally:
            os.close(fd)

    def fsync_dir(self, directory: str, layer: str) -> None:
        """Persist a rename by fsyncing its directory (best effort)."""
        self._enter(layer, "fsync_dir", directory or ".")
        try:
            fd = os.open(directory or ".", os.O_RDONLY)
        except OSError:
            return  # e.g. a filesystem that cannot open directories
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def replace(self, src: str, dst: str, layer: str) -> None:
        self._enter(layer, "rename", dst)
        os.replace(src, dst)
        self._durable[dst] = self._durable.pop(
            src, os.path.getsize(dst) if os.path.exists(dst) else 0
        )

    def truncate(self, path: str, size: int, layer: str) -> None:
        self._enter(layer, "truncate", path, nbytes=size)
        os.truncate(path, size)
        self._durable[path] = min(self._durable.get(path, size), size)


#: process-wide default instance (pure pass-through unless REPRO_FAULT
#: carries disk specs); persistence layers take an optional ``storage``
#: argument and fall back to this
_STORAGE = Storage()


def get_storage() -> Storage:
    return _STORAGE

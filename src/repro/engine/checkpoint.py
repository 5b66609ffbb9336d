"""Versioned on-disk checkpoint store for completed simulation cells.

A store is a single append-only JSONL file:

* line 1 — header: ``{"kind": "repro-checkpoint", "version": N,
  "scale": ..., "seed": ...}``;
* each further line — one completed cell:
  ``{"key": [...], "crc": <crc32 of canonical result JSON>,
  "result": {...}}``.

Append-only writing makes the store crash-tolerant: a worker SIGKILLed
mid-append leaves at most one truncated *final* line (no trailing
newline), which ``load`` silently drops (that cell simply re-runs on
resume) and the first append of the resumed run cuts off, so a new
record never lands glued onto the fragment.  A kill during the very
first write leaves a newline-less prefix of the header itself; when it
is a prefix of *this* store's header line it is the same torn tail and
the store loads as empty.  Anything else that fails to decode — a
garbled line, a CRC mismatch from bit rot or tampering, a header that
is unreadable, foreign, from a different store version or from a
different (scale, seed) sweep — raises :class:`CheckpointError`: a
cache we cannot trust end-to-end is worse than no cache.

An append that fails — a full disk, a failed ``fsync`` — closes its
handle, truncates the file back to its pre-append size and raises
:class:`CheckpointError`, so the caller degrades the cell instead of
crashing and the next append starts from a clean store.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from typing import Any, Dict, Optional, Tuple

from .errors import CheckpointError

#: bump when the RunResult wire format or cell-key shape changes
#: incompatibly (v2: keys grew telemetry fields, results grew timeseries;
#: v3: keys are content keys ``[benchmark, config hash, occupancy]`` and
#: records may hold multi-tenant results)
CHECKPOINT_VERSION = 3

_HEADER_KIND = "repro-checkpoint"

CellKey = Tuple[Any, ...]


def _canonical(result: Dict[str, Any]) -> bytes:
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


class CheckpointStore:
    """Append-only cell-result cache bound to one (scale, seed) sweep."""

    def __init__(self, path: str, scale: str = "", seed: int = 0) -> None:
        self.path = path
        self.scale = scale
        self.seed = seed
        self._handle = None
        self._loaded = False
        #: start of a torn final append found by ``load``; cut off
        #: before the next write so new records never glue onto it
        self._torn_at: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Dict[CellKey, Dict[str, Any]]:
        """Read every intact cell record; raise on untrustworthy files.

        A final line without its newline is a torn append (every record
        is written together with its newline) and is dropped.
        """
        results: Dict[CellKey, Dict[str, Any]] = {}
        self._loaded = True
        self._torn_at = None
        if not self.exists():
            return results
        with open(self.path, "rb") as handle:
            blob = handle.read()
        lines = blob.split(b"\n")
        torn = lines.pop()  # whatever follows the last newline
        if not lines and not torn:
            return results
        if not lines and self._header_line().encode().startswith(torn):
            # the header write itself was torn: nothing was recorded
            self._torn_at = 0
            return results
        # errors="replace": a flipped byte must surface as a corrupt
        # record (CheckpointError), not a UnicodeDecodeError; any other
        # newline-less header is refused like any other unreadable one
        self._check_header(
            (lines or [torn])[0].decode("utf-8", errors="replace")
        )
        if torn:
            self._torn_at = len(blob) - len(torn)
        for i, raw in enumerate(lines[1:], start=2):
            try:
                record = json.loads(raw.decode("utf-8", errors="replace"))
                key = tuple(record["key"])
                result = record["result"]
                crc = record["crc"]
            except (json.JSONDecodeError, KeyError, TypeError):
                raise CheckpointError(
                    f"{self.path}: corrupt record on line {i}"
                ) from None
            if zlib.crc32(_canonical(result)) != crc:
                raise CheckpointError(
                    f"{self.path}: checksum mismatch on line {i} "
                    f"(key={list(key)!r})"
                )
            results[key] = result
        return results

    def _header_line(self) -> str:
        return json.dumps(
            {
                "kind": _HEADER_KIND,
                "version": CHECKPOINT_VERSION,
                "scale": self.scale,
                "seed": self.seed,
            }
        )

    def _check_header(self, line: str) -> None:
        try:
            header = json.loads(line)
            kind = header["kind"]
            version = header["version"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise CheckpointError(
                f"{self.path}: unreadable checkpoint header"
            ) from None
        if kind != _HEADER_KIND:
            raise CheckpointError(
                f"{self.path}: not a checkpoint file (kind={kind!r})"
            )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{self.path}: checkpoint version {version} does not match "
                f"supported version {CHECKPOINT_VERSION}"
            )
        if self.scale and header.get("scale") not in ("", None, self.scale):
            raise CheckpointError(
                f"{self.path}: checkpoint was taken at scale "
                f"{header.get('scale')!r}, this run is {self.scale!r}"
            )
        if header.get("seed") not in (None, self.seed):
            raise CheckpointError(
                f"{self.path}: checkpoint seed {header.get('seed')!r} does "
                f"not match this run's seed {self.seed!r}"
            )

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> bool:
        """Open the append handle; True when the file needs a header."""
        if self._handle is not None:
            return False
        if self.exists() and not self._loaded:
            self.load()  # validate the header and find any torn tail
        if self._torn_at is not None:
            os.truncate(self.path, self._torn_at)
            self._torn_at = None
        fresh = not self.exists() or os.path.getsize(self.path) == 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "ab")
        return fresh

    def append(self, key: CellKey, result: Dict[str, Any]) -> None:
        """Durably record one completed cell (flushed immediately).

        A write or fsync failure (ENOSPC, EIO) surfaces as
        :class:`CheckpointError` after rolling the file back to its
        pre-append size — the header write of a fresh file included —
        so a torn partial line can never corrupt the *middle* of the
        store for the next ``load``.  The failed handle is dropped
        even when closing it fails too (its buffered flush hits the
        same full disk), so the next append reopens the file.
        """
        record = {
            "key": list(key),
            "crc": zlib.crc32(_canonical(result)),
            "result": result,
        }
        try:
            fresh = self._ensure_open()
        except OSError as exc:
            raise CheckpointError(
                f"{self.path}: checkpoint open failed: {exc}"
            ) from exc
        pre_size = self._handle.tell()
        try:
            if fresh:
                self._write_line(self._header_line())
            self._write_line(json.dumps(record))
            os.fsync(self._handle.fileno())
        except OSError as exc:
            handle, self._handle = self._handle, None
            with contextlib.suppress(OSError):
                handle.close()  # retries the flush; may fail the same way
            with contextlib.suppress(OSError):
                if os.path.getsize(self.path) > pre_size:
                    os.truncate(self.path, pre_size)
            raise CheckpointError(
                f"{self.path}: checkpoint append failed: {exc}"
            ) from exc

    def _write_line(self, line: str) -> None:
        self._handle.write((line + "\n").encode())
        self._handle.flush()

    def compact(self) -> None:
        """Atomically rewrite the store from its intact records.

        Appends are crash-tolerant but not atomic: a SIGKILL mid-write
        leaves a torn final line that every later ``load`` must skip.
        Compaction squeezes that tail out by round-tripping the intact
        records through :func:`~repro.engine.atomic.atomic_write`, so a
        store that was closed cleanly is byte-exact JSONL with no
        salvage needed on resume.
        """
        from .atomic import atomic_write

        results = self.load()
        lines = [self._header_line()]
        for key, result in results.items():
            lines.append(
                json.dumps(
                    {
                        "key": list(key),
                        "crc": zlib.crc32(_canonical(result)),
                        "result": result,
                    }
                )
            )
        atomic_write(self.path, "\n".join(lines) + "\n")
        self._torn_at = None

    def close(self, compact: bool = False) -> None:
        wrote = self._handle is not None
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if compact and wrote and self.exists():
            self.compact()

    def discard(self) -> None:
        """Delete the on-disk file (start-fresh semantics)."""
        self.close()
        self._torn_at = None
        if self.exists():
            os.remove(self.path)

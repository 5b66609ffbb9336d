"""Write-ahead log for the sweep service: CRC'd JSONL + compaction.

The journal is the *only* durable state of a sweep service.  Every
queue mutation — submit, lease, start, retry, completion, quarantine,
reclamation, shutdown — is appended (and fsynced) as one JSONL record
*before* the in-memory state changes, so a ``kill -9`` of the whole
service process at any instant recovers to a consistent queue on
restart: replay the log, reduce it into a
:class:`~repro.service.state.QueueState`, reclaim stale leases, go.

Record format (one JSON object per line)::

    {"seq": N, "type": "<kind>", "payload": {...}, "crc": <crc32>}

``crc`` covers the canonical JSON of ``{seq, type, payload}``.  ``seq``
is strictly monotonic; the first record is always a ``header`` carrying
the journal version plus the sweep's (scale, seed) so a journal can
never be replayed into the wrong sweep.

Durability rules mirror :mod:`repro.engine.checkpoint`:

* a torn *final* line (crash mid-append) is silently dropped — the
  transition it described simply never happened;
* anything else that fails to decode or checksum raises
  :class:`~repro.engine.errors.JournalError` — a log we cannot trust
  end-to-end must not silently drive a sweep.

Snapshot compaction bounds replay cost: :meth:`Journal.compact`
atomically rewrites the log as ``header + snapshot`` (via
:func:`~repro.engine.atomic.atomic_write`), where the snapshot payload
is the fully-reduced queue state.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from typing import Any, Dict, List, Optional

from ..engine.atomic import atomic_write
from ..engine.errors import JournalError
from ..engine.storage import Storage, get_storage

#: storage-shim layer tag for every journal filesystem operation
STORAGE_LAYER = "journal"

JOURNAL_VERSION = 1
_HEADER_TYPE = "header"
_HEADER_KIND = "repro-journal"

#: journal file name inside a service directory
JOURNAL_NAME = "journal.jsonl"

Record = Dict[str, Any]


def _canonical(seq: int, rtype: str, payload: Dict[str, Any]) -> bytes:
    body = {"seq": seq, "type": rtype, "payload": payload}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _encode(seq: int, rtype: str, payload: Dict[str, Any]) -> str:
    record = {
        "seq": seq,
        "type": rtype,
        "payload": payload,
        "crc": zlib.crc32(_canonical(seq, rtype, payload)),
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class Journal:
    """Append-only WAL bound to one (scale, seed) sweep service."""

    def __init__(
        self,
        path: str,
        scale: str = "",
        seed: int = 0,
        storage: Optional[Storage] = None,
    ) -> None:
        self.path = path
        self.scale = scale
        self.seed = seed
        self.storage = storage if storage is not None else get_storage()
        self._handle = None
        #: seq of the last durable record; None until opened/replayed
        self._seq: Optional[int] = None
        #: byte offset of the end of the last intact record when replay
        #: found torn bytes after it; the tail must be truncated away
        #: before appending, or the next record would be glued to the
        #: garbage and lost with it
        self._torn_tail: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def exists(self) -> bool:
        return os.path.exists(self.path)

    @property
    def seq(self) -> Optional[int]:
        """Seq of the last durable record (None before open/replay)."""
        return self._seq

    @staticmethod
    def peek_header(path: str) -> Optional[Dict[str, Any]]:
        """Header payload of a journal file, or None when unreadable.

        Lets a reader bind to whatever (scale, seed) the journal was
        created with instead of requiring the caller to repeat them.
        """
        try:
            blob = get_storage().read_bytes(path, STORAGE_LAYER)
            line = blob.split(b"\n", 1)[0].decode("utf-8")
            record = json.loads(line)
            payload = record.get("payload", {})
        except (OSError, ValueError, AttributeError, UnicodeDecodeError):
            return None
        if payload.get("kind") != _HEADER_KIND:
            return None
        return payload

    def replay(self) -> List[Record]:
        """Read every intact record (header excluded) in append order.

        Validates the header against this journal's (scale, seed),
        checks every CRC, and requires strictly monotonic ``seq``.  A
        torn final line is dropped; everything else raises
        :class:`JournalError`.  Also positions :meth:`append` after the
        last intact record.
        """
        self._torn_tail = None
        if not self.exists():
            self._seq = None
            return []
        try:
            blob = self.storage.read_bytes(self.path, STORAGE_LAYER)
        except OSError as exc:
            # an unreadable log (permissions, I/O error) is in the same
            # trust bucket as a corrupt one: taxonomy error, exit 12
            raise JournalError(
                f"{self.path}: journal unreadable: {exc}"
            ) from exc
        trailing_newline = blob.endswith(b"\n")
        raw_lines = blob.split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        if not raw_lines:
            self._seq = None
            return []
        records: List[Record] = []
        last_seq: Optional[int] = None
        intact_bytes = 0
        for i, raw in enumerate(raw_lines, start=1):
            is_last = i == len(raw_lines)
            if is_last and not trailing_newline:
                break  # final append lost its newline: torn, drop it
            record = self._decode(
                raw.decode("utf-8", errors="replace"), i,
                tolerate_torn=is_last,
            )
            if record is None:
                break  # torn final append: transition never happened
            if last_seq is not None and record["seq"] <= last_seq:
                raise JournalError(
                    f"{self.path}: seq {record['seq']} on line {i} does "
                    f"not advance past {last_seq}; log replayed out of "
                    f"order or spliced"
                )
            last_seq = record["seq"]
            intact_bytes += len(raw) + 1
            if i == 1:
                self._check_header(record)
                continue
            records.append(record)
        if last_seq is None:
            # the only line is a torn header append: the journal was
            # never durably created — recover as a fresh, empty log
            self.storage.remove(self.path, STORAGE_LAYER)
            self._seq = None
            return []
        if intact_bytes < len(blob):
            self._torn_tail = intact_bytes
        self._seq = last_seq
        return records

    def _decode(
        self, line: str, lineno: int, tolerate_torn: bool
    ) -> Optional[Record]:
        try:
            record = json.loads(line)
            seq = record["seq"]
            rtype = record["type"]
            payload = record["payload"]
            crc = record["crc"]
        except (json.JSONDecodeError, KeyError, TypeError):
            if tolerate_torn:
                return None
            raise JournalError(
                f"{self.path}: corrupt journal record on line {lineno}"
            ) from None
        if zlib.crc32(_canonical(seq, rtype, payload)) != crc:
            if tolerate_torn:
                return None
            raise JournalError(
                f"{self.path}: checksum mismatch on line {lineno} "
                f"(seq={seq}, type={rtype!r})"
            )
        return record

    def _check_header(self, record: Record) -> None:
        payload = record.get("payload", {})
        if record.get("type") != _HEADER_TYPE or (
            payload.get("kind") != _HEADER_KIND
        ):
            raise JournalError(
                f"{self.path}: first record is not a journal header"
            )
        if payload.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {payload.get('version')} "
                f"does not match supported version {JOURNAL_VERSION}"
            )
        if self.scale and payload.get("scale") not in ("", None, self.scale):
            raise JournalError(
                f"{self.path}: journal belongs to scale "
                f"{payload.get('scale')!r}, this service runs {self.scale!r}"
            )
        if payload.get("seed") not in (None, self.seed):
            raise JournalError(
                f"{self.path}: journal seed {payload.get('seed')!r} does "
                f"not match this service's seed {self.seed!r}"
            )

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _header_payload(self) -> Dict[str, Any]:
        return {
            "kind": _HEADER_KIND,
            "version": JOURNAL_VERSION,
            "scale": self.scale,
            "seed": self.seed,
        }

    def _ensure_open(self) -> None:
        if self._handle is not None:
            return
        if self._seq is None and self.exists():
            # appending to an un-replayed journal would reuse seqs
            self.replay()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if self._torn_tail is not None:
            self.storage.truncate(self.path, self._torn_tail, STORAGE_LAYER)
            self._torn_tail = None
        self._handle = self.storage.open_append(self.path, STORAGE_LAYER)
        if self._seq is None:
            self._seq = 1
            self._write_line(_encode(1, _HEADER_TYPE, self._header_payload()))
            self._flush()

    def append(self, rtype: str, payload: Dict[str, Any]) -> int:
        """Durably journal one record; returns its ``seq``.

        The record is flushed and fsynced before this returns — callers
        apply the state transition only *after* it is on disk (that is
        the "write-ahead" in write-ahead log).  A storage failure
        (ENOSPC, failed fsync, torn write) surfaces as
        :class:`JournalError`: a WAL that cannot persist a record must
        refuse the transition, not half-apply it.  The file is rolled
        back to its pre-append size so a torn partial line can never be
        glued to the next record.
        """
        try:
            self._ensure_open()
        except OSError as exc:
            raise JournalError(
                f"{self.path}: journal open failed: {exc}"
            ) from exc
        self._seq += 1
        pre_size = self._handle.tell()
        try:
            self._write_line(_encode(self._seq, rtype, payload))
            self._flush()
        except OSError as exc:
            self._seq -= 1
            self.close()
            # drop any torn partial line (a failed fsync already
            # truncated to the durable watermark == pre_size; never
            # extend the file, truncate only shrinks it)
            with contextlib.suppress(OSError):
                if os.path.getsize(self.path) > pre_size:
                    os.truncate(self.path, pre_size)
            raise JournalError(
                f"{self.path}: journal append failed ({rtype}): {exc}"
            ) from exc
        return self._seq

    def _write_line(self, line: str) -> None:
        self.storage.write_handle(
            self._handle, (line + "\n").encode(), STORAGE_LAYER, self.path
        )

    def _flush(self) -> None:
        self.storage.fsync_handle(self._handle, STORAGE_LAYER, self.path)

    def compact(self, snapshot_payload: Dict[str, Any]) -> None:
        """Atomically rewrite the log as ``header + snapshot``.

        ``snapshot_payload`` must be the fully-reduced queue state (see
        :meth:`~repro.service.state.QueueState.snapshot_payload`); on
        the next replay it restores in one record what the dropped log
        prefix would have rebuilt event by event.  Sequence numbering
        continues from the pre-compaction tail so seq stays monotonic
        across the rewrite.
        """
        try:
            self._ensure_open()
            base = self._seq
            self.close()
            lines = [
                _encode(base + 1, _HEADER_TYPE, self._header_payload()),
                _encode(base + 2, "snapshot", snapshot_payload),
            ]
            atomic_write(
                self.path,
                "\n".join(lines) + "\n",
                layer=STORAGE_LAYER,
                storage=self.storage,
            )
        except OSError as exc:
            # the rewrite is atomic: on any storage failure the old log
            # is still intact and fully authoritative
            raise JournalError(
                f"{self.path}: journal compaction failed: {exc}"
            ) from exc
        self._torn_tail = None
        self._seq = base + 2

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

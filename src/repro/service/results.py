"""Content-addressed result cache: completed cells served from disk.

The "millions of users" lever: once a sweep cell has been simulated,
every later request for the same *content identity* — the
(benchmark, config-hash, scale, seed) tuple hashed into a 64-hex-digit
idempotency key — is answered from
this cache without re-simulation.  Overlapping sweeps, retried client
requests, and restarted daemons all converge on one execution per cell.

Each entry is one file, ``results/<key>.json``, whose name *is* its
address.  The stored bytes are canonical JSON (sorted keys, fixed
separators) of::

    {"kind": "repro-result", "version": 1, "key": ..., "job_id": ...,
     "benchmark": ..., "config_name": ..., "config_hash": ...,
     "scale": ..., "seed": ..., "result": {...}}

so a retried request is answered *byte-identically* to the first — the
chaos gate asserts exactly that.  Entries are written atomically
(:func:`~repro.engine.atomic.atomic_write`): a SIGKILL mid-write leaves
either no entry or a complete one, never a torn file.  An entry that
fails validation on read (truncated by external interference, foreign
kind, key mismatch) is treated as a miss and quarantined out of the
way rather than served or trusted.

With ``max_bytes`` set, the cache is *bounded*: after each store, the
least-recently-used entries (mtime order; reads touch it) are evicted
until the budget holds, so a long-lived daemon cannot grow disk without
limit.  Unbounded (the default) behaves exactly as before.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, Optional

from ..engine.atomic import atomic_write
from ..engine.storage import Storage, get_storage

CACHE_KIND = "repro-result"
CACHE_VERSION = 1

#: cache directory name inside a service directory
RESULTS_DIR = "results"

#: storage-shim layer tag for every result-cache filesystem operation
STORAGE_LAYER = "results"


class ResultCache:
    """Content-addressed, crash-safe store of completed cell results."""

    def __init__(
        self,
        directory: str,
        storage: Optional[Storage] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.storage = storage if storage is not None else get_storage()
        #: LRU byte budget (None = unbounded, the historical behavior)
        self.max_bytes = max_bytes
        #: served-from-cache / stored / invalid-entry tallies (process-
        #: local observability; durable truth is the files themselves)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: writes that failed on a storage error (ENOSPC, torn write);
        #: the cache is an optimization, so a failed store is counted
        #: and tolerated — the journal's DONE record stays authoritative
        self.store_failures = 0
        #: entries evicted to hold the byte budget
        self.evictions = 0

    def path_for(self, key: str) -> str:
        if (
            not key
            or key in (".", "..")
            or os.sep in key
            or key != os.path.basename(key)
        ):
            raise ValueError(f"malformed cache key {key!r}")
        return os.path.join(self.directory, f"{key}.json")

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the validated entry for ``key``, or None on a miss."""
        entry = self._load(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return entry

    def _touch(self, key: str) -> None:
        """Mark ``key`` recently used (mtime is the LRU clock).

        Only bounded caches pay for the extra syscall; an unbounded
        cache never evicts, so recency is irrelevant there.
        """
        if self.max_bytes is None:
            return
        with contextlib.suppress(OSError):
            os.utime(self.path_for(key))

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The exact stored bytes for ``key`` (byte-identity checks)."""
        if self._load(key) is None:
            return None
        return self.storage.read_bytes(self.path_for(key), STORAGE_LAYER)

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            entry = json.loads(
                self.storage.read_bytes(path, STORAGE_LAYER).decode("utf-8")
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("kind") != CACHE_KIND
            or entry.get("version") != CACHE_VERSION
            or entry.get("key") != key
            or not isinstance(entry.get("result"), dict)
        ):
            self._quarantine(path)
            return None
        return entry

    def _quarantine(self, path: str) -> None:
        """Move an invalid entry aside so it reads as a miss forever.

        Renaming (not deleting) keeps the evidence for debugging while
        guaranteeing the poisoned bytes are never served.
        """
        with contextlib.suppress(OSError):
            self.storage.replace(path, path + ".invalid", STORAGE_LAYER)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put(
        self,
        key: str,
        result: Dict[str, Any],
        *,
        job_id: str = "",
        benchmark: str = "",
        config_name: str = "",
        config_hash: str = "",
        scale: str = "",
        seed: int = 0,
    ) -> str:
        """Store one completed cell; idempotent (first write wins).

        Content addressing makes overwriting pointless: an existing
        entry for ``key`` was produced by the same (deterministic)
        simulation, so the first durable write is kept and later ones
        are no-ops — a restarted daemon re-finishing a reclaimed job
        cannot flap the stored bytes.

        Best-effort under storage failure: a write the disk refuses
        (ENOSPC, torn write, failed fsync) is counted in
        ``store_failures`` and swallowed — the atomic-write discipline
        guarantees no partial entry became visible, the journal's DONE
        record remains the durable truth, and a later request for the
        same key simply re-serves from the journal state.
        """
        path = self.path_for(key)
        if os.path.exists(path):
            return path
        entry = {
            "kind": CACHE_KIND,
            "version": CACHE_VERSION,
            "key": key,
            "job_id": job_id,
            "benchmark": benchmark,
            "config_name": config_name,
            "config_hash": config_hash,
            "scale": scale,
            "seed": seed,
            "result": result,
        }
        blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        try:
            atomic_write(
                path, blob, layer=STORAGE_LAYER, storage=self.storage
            )
        except OSError:
            self.store_failures += 1
            return path
        self.stores += 1
        self._evict_to_budget(keep=path)
        return path

    def _evict_to_budget(self, keep: str) -> None:
        """Evict LRU entries until the byte budget holds.

        ``keep`` (the just-written entry) is never evicted, even if it
        alone exceeds the budget — evicting the result we were asked to
        store would turn the cache into a lie.  Eviction order is
        (mtime, name): oldest access first, names breaking ties so the
        order is deterministic on coarse-mtime filesystems.
        """
        if self.max_bytes is None:
            return
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        entries = []
        total = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            total += info.st_size
            entries.append((info.st_mtime, name, path, info.st_size))
        if total <= self.max_bytes:
            return
        for _, _, path, size in sorted(entries):
            if path == keep:
                continue
            try:
                self.storage.remove(path, STORAGE_LAYER)
            except OSError:
                continue
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        return sum(1 for name in names if name.endswith(".json"))

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_failures": self.store_failures,
            "evictions": self.evictions,
        }

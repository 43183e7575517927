"""Tiered content-addressed storage: memory, sharded disk, and a stack.

The paper's argument is that layered services live or die by the
substrate beneath them; this module *is* that substrate for the repo.
Every result the engine memoizes, every explore trial, every serving
worker's read lands in one of three places:

* :class:`MemoryTier` — the thread-safe in-process LRU (private per
  process; never shared across workers).
* :class:`DiskTier` — one JSON entry per digest, sharded by digest
  prefix into ``objects/<xx>/`` fan-out directories so a million-entry
  cache never puts a million names in one directory.  Writes are
  atomic (tempfile + rename, temp always unlinked on failure); a torn
  or unparsable entry read back is *quarantined* — moved aside into
  ``quarantine/`` and counted — never silently served and never able
  to wedge the key (the next write replaces it).
* :class:`StoreStack` — composes the tiers with read-through/
  write-back promotion, and hands out cross-process single-flight
  :class:`Flight` tokens backed by :class:`~repro.store.locks.DigestLock`.

Entry format on disk is exactly the engine's historical flat-cache
envelope — ``{"schema": N, "value": <payload>}`` — byte-for-byte, so
lineage blocks inside engine envelopes survive the refactor unchanged
and ``adopt_disk_cache`` keeps working on both layouts.  A flat
pre-shard directory reads transparently (legacy fallback probe);
``repro store migrate`` upgrades it in place.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, Optional, Set, Tuple

from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.store.locks import HAVE_FLOCK, DigestLock

#: layout version recorded in the store manifest.  1 = flat (implicit,
#: pre-manifest); 2 = sharded ``objects/<prefix>/`` fan-out.
STORE_LAYOUT_VERSION = 2

#: hex digits of the digest used as the shard directory name (256-way).
SHARD_WIDTH = 2

#: manifest filename.  Deliberately *not* ``*.json``: flat-layout
#: walkers (``adopt_disk_cache``, legacy globs) treat every ``*.json``
#: at the root as a cache entry.
MANIFEST_NAME = "store.manifest"

OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"

#: environment switch for cross-process single-flight (default on when
#: a disk tier is present and the platform has flock).
LOCK_ENV = "REPRO_STORE_LOCK"


def locking_default() -> bool:
    """Whether single-flight is on absent an explicit constructor arg."""
    return os.environ.get(LOCK_ENV, "1").strip().lower() not in (
        "0", "false", "no", "off")


def discard_file(path: str) -> None:
    """Unlink ``path`` if it exists (best-effort)."""
    try:
        os.unlink(path)
    except OSError:
        pass


def iter_entry_paths(root: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(digest, path)`` for every entry under ``root``, sharded
    layout first then flat legacy leftovers, each digest once, sorted
    within each layer.  Quarantined entries and temp files are skipped.
    """
    seen = set()
    objects = os.path.join(root, OBJECTS_DIR)
    try:
        shards = sorted(os.listdir(objects))
    except OSError:
        shards = []
    for shard in shards:
        shard_dir = os.path.join(objects, shard)
        try:
            names = sorted(os.listdir(shard_dir))
        except OSError:
            continue
        for name in names:
            if name.endswith(".json"):
                key = name[: -len(".json")]
                seen.add(key)
                yield key, os.path.join(shard_dir, name)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return
    for name in names:
        if name.endswith(".json"):
            key = name[: -len(".json")]
            path = os.path.join(root, name)
            if key not in seen and os.path.isfile(path):
                yield key, path


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: the serving layer probes and fills one shared cache
    from a pool of worker threads, so every access that touches the
    recency order runs under an internal lock.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.evictions = 0
        self._lock = threading.RLock()
        self._data: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                if _OBS.metrics_on:
                    _METRICS.counter(
                        "engine_lru_evictions_total",
                        "experiments evicted from the in-memory LRU").inc()

    def pop(self, key: str) -> Optional[Any]:
        """Remove and return ``key``'s value (``None`` when absent)."""
        with self._lock:
            return self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class MemoryTier(LRUCache):
    """The in-process tier: an LRU with a tier name for accounting.

    Always private to one process — cross-process sharing happens one
    tier down, through :class:`DiskTier`."""

    name = "memory"


class DiskTier:
    """Sharded one-file-per-digest persistence under a root directory.

    Parameters
    ----------
    root:
        The store directory (``$REPRO_CACHE_DIR`` for the engine).
    schema:
        Entries are wrapped ``{"schema": schema, "value": value}`` on
        write and filtered on read: a foreign-schema entry is a miss,
        not an error (exactly the historical flat-cache contract).
    """

    name = "disk"

    def __init__(self, root: str, schema: Optional[int] = None) -> None:
        self.root = root
        self.schema = schema
        os.makedirs(root, exist_ok=True)
        # what this instance already created, so a put does not repeat
        # the makedirs / manifest syscalls; a put that finds its shard
        # gone (FileNotFoundError) forgets both and retries once.
        self._shards: Set[str] = set()
        self._manifest_written = False

    # -- layout ---------------------------------------------------------
    def shard_dir(self, key: str) -> str:
        return os.path.join(self.root, OBJECTS_DIR, key[:SHARD_WIDTH])

    def path(self, key: str) -> str:
        return os.path.join(self.shard_dir(key), f"{key}.json")

    def legacy_path(self, key: str) -> str:
        """Where a flat, pre-shard layout would hold ``key``."""
        return os.path.join(self.root, f"{key}.json")

    def lock_path(self, key: str) -> str:
        """The digest's single-flight lock file, beside its shard slot."""
        return os.path.join(self.shard_dir(key), f"{key}.lock")

    def _write_manifest(self) -> None:
        if self._manifest_written:
            return
        manifest = os.path.join(self.root, MANIFEST_NAME)
        if os.path.exists(manifest):
            self._manifest_written = True
            return
        tmp = f"{manifest}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"layout": STORE_LAYOUT_VERSION,
                           "fanout": 16 ** SHARD_WIDTH}, fh)
            os.replace(tmp, manifest)
            self._manifest_written = True
        except OSError:
            discard_file(tmp)

    def _ensure_shard(self, shard: str) -> None:
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        self._write_manifest()

    def _write_entry(self, tmp: str, path: str, value: Any) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"schema": self.schema, "value": value}, fh)
        os.replace(tmp, path)

    # -- entry I/O ------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """Read one entry; sharded slot first, flat legacy fallback.

        A torn/unparsable file is quarantined and read as a miss; a
        foreign-schema entry is a plain miss (left in place)."""
        for path in (self.path(key), self.legacy_path(key)):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except ValueError:
                self.quarantine(path)
                continue
            except OSError:
                continue
            if not isinstance(payload, dict):
                self.quarantine(path)
                continue
            if self.schema is not None and payload.get("schema") != self.schema:
                return None
            return payload.get("value")
        return None

    def put(self, key: str, value: Any) -> None:
        """Atomically publish one entry (write-temp, rename).

        An ``OSError`` (full disk, revoked permissions) degrades the
        store to upper tiers and is counted; any failure — including
        non-OS serialization errors — leaves no temp file behind."""
        path = self.path(key)
        shard = self.shard_dir(key)
        tmp = f"{path}.tmp.{os.getpid()}-{threading.get_ident()}"
        published = False
        try:
            self._ensure_shard(shard)
            try:
                self._write_entry(tmp, path, value)
            except FileNotFoundError:
                # the shard (or the whole root) was removed since this
                # instance created it
                self._shards.discard(shard)
                self._manifest_written = False
                self._ensure_shard(shard)
                self._write_entry(tmp, path, value)
            published = True
        except OSError:
            if _OBS.metrics_on:
                _METRICS.counter(
                    "store_write_failed_total",
                    "store disk writes dropped on OSError").inc()
        finally:
            if not published:
                discard_file(tmp)

    def delete(self, key: str) -> None:
        """Drop one entry from both layouts (missing is fine)."""
        for path in (self.path(key), self.legacy_path(key)):
            discard_file(path)

    def quarantine(self, path: str) -> None:
        """Move a torn entry into ``quarantine/`` (best-effort unlink
        when even the move fails) so it can never be read again and the
        defect stays inspectable."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            discard_file(path)
        if _OBS.metrics_on:
            _METRICS.counter(
                "store_quarantined_total",
                "torn or unparsable store entries moved to quarantine").inc()

    # -- enumeration ----------------------------------------------------
    def keys(self) -> Iterator[str]:
        for key, _ in iter_entry_paths(self.root):
            yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def stat(self) -> Dict[str, Any]:
        """Shape and health of the on-disk layout (``repro store stat``)."""
        sharded = flat = entry_bytes = lock_files = tmp_files = 0
        shards = set()
        objects = os.path.join(self.root, OBJECTS_DIR)
        try:
            shard_names = sorted(os.listdir(objects))
        except OSError:
            shard_names = []
        for shard in shard_names:
            shard_dir = os.path.join(objects, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            shards.add(shard)
            for name in names:
                full = os.path.join(shard_dir, name)
                if name.endswith(".json"):
                    sharded += 1
                    try:
                        entry_bytes += os.path.getsize(full)
                    except OSError:
                        pass
                elif name.endswith(".lock"):
                    lock_files += 1
                elif ".tmp." in name:
                    tmp_files += 1
        try:
            root_names = sorted(os.listdir(self.root))
        except OSError:
            root_names = []
        for name in root_names:
            full = os.path.join(self.root, name)
            if name.endswith(".json") and os.path.isfile(full):
                flat += 1
                try:
                    entry_bytes += os.path.getsize(full)
                except OSError:
                    pass
            elif ".tmp." in name and os.path.isfile(full):
                tmp_files += 1
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        try:
            quarantined = len(os.listdir(qdir))
        except OSError:
            quarantined = 0
        return {
            "root": self.root,
            "layout": STORE_LAYOUT_VERSION if shard_names or os.path.exists(
                os.path.join(self.root, MANIFEST_NAME)) else 1,
            "entries": sharded + flat,
            "sharded_entries": sharded,
            "flat_entries": flat,
            "shards": len(shards),
            "entry_bytes": entry_bytes,
            "lock_files": lock_files,
            "tmp_files": tmp_files,
            "quarantined": quarantined,
        }


class Flight:
    """A held single-flight slot for one digest (see ``begin_flight``)."""

    __slots__ = ("key", "waited", "wait_seconds", "_lock")

    def __init__(self, key: str, lock: DigestLock, waited: bool,
                 wait_seconds: float) -> None:
        self.key = key
        #: True when another process held the digest when we arrived —
        #: we are (or were) a *loser* and should re-probe before
        #: computing, because the winner may have published.
        self.waited = waited
        self.wait_seconds = wait_seconds
        self._lock = lock

    def release(self) -> None:
        self._lock.release()


class StoreStack:
    """Tiers composed with read-through, write-back promotion.

    ``get`` probes memory then disk, promoting a disk hit into memory;
    ``put`` writes both.  ``begin_flight`` is the cross-process
    single-flight entry point: callers that miss take a digest lock,
    re-probe (the winner may have published while they waited), and
    only compute while holding the flight.
    """

    def __init__(self, memory: Optional[MemoryTier] = None,
                 disk: Optional[DiskTier] = None,
                 locking: Optional[bool] = None) -> None:
        self.memory = memory
        self.disk = disk
        if locking is None:
            locking = locking_default()
        self.locking = bool(locking) and disk is not None and HAVE_FLOCK

    # -- read/write path ------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        if self.memory is not None:
            value = self.memory.get(key)
            if value is not None:
                if _OBS.metrics_on:
                    _METRICS.counter(
                        "store_hit_total",
                        "store reads served, by tier").inc(tier="memory")
                return value
        if self.disk is not None:
            value = self.disk.get(key)
            if value is not None:
                if self.memory is not None:
                    self.memory.put(key, value)
                if _OBS.metrics_on:
                    _METRICS.counter(
                        "store_hit_total",
                        "store reads served, by tier").inc(tier="disk")
                    _METRICS.counter(
                        "store_promote_total",
                        "disk hits promoted into the memory tier").inc()
                return value
        if _OBS.metrics_on:
            _METRICS.counter(
                "store_miss_total",
                "store reads missing every tier").inc()
        return None

    def put(self, key: str, value: Any) -> None:
        if self.memory is not None:
            self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def delete(self, key: str) -> None:
        if self.memory is not None:
            self.memory.pop(key)
        if self.disk is not None:
            self.disk.delete(key)

    def clear_memory(self) -> None:
        if self.memory is not None:
            self.memory.clear()

    def __contains__(self, key: str) -> bool:
        return self.memory is not None and key in self.memory

    @property
    def memory_len(self) -> int:
        return len(self.memory) if self.memory is not None else 0

    # -- single-flight ---------------------------------------------------
    def begin_flight(self, key: str) -> Optional[Flight]:
        """Acquire the digest's cross-process flight, or ``None`` when
        locking is off/unavailable (callers then race benignly, exactly
        the historical thread semantics).

        Blocks while another process holds the digest; the wait lands
        in ``store_lock_wait_seconds``.  Callers MUST release the
        returned flight in a ``finally``."""
        if not self.locking or self.disk is None:
            return None
        lock = DigestLock(self.disk.lock_path(key))
        t0 = time.perf_counter()
        waited = not lock.acquire(blocking=False)
        if waited:
            lock.acquire(blocking=True)
        wait_seconds = time.perf_counter() - t0
        if _OBS.metrics_on:
            _METRICS.histogram(
                "store_lock_wait_seconds",
                "time spent waiting on another process's flight for the "
                "same digest").observe(wait_seconds)
        return Flight(key, lock, waited, wait_seconds)

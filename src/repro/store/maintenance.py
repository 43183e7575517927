"""Store maintenance: migrate, stat, gc, verify (``repro store ...``).

All four operate on a store *root* (typically ``$REPRO_CACHE_DIR``)
and are safe to run against a live store: migration moves entries with
atomic renames readers already know how to follow (the sharded slot is
probed first, the flat slot second), and gc never touches lock files
(see :mod:`repro.store.locks` for why unlinking one is unsound).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.store.tiers import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    STORE_LAYOUT_VERSION,
    DiskTier,
    discard_file,
    iter_entry_paths,
)


def _load_entry(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


def _lineage_block(entry: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    stored = entry.get("value")
    block = stored.get("lineage") if isinstance(stored, dict) else None
    return block if isinstance(block, dict) else None


def migrate_store(root: str) -> Dict[str, Any]:
    """Upgrade a flat (pre-shard) store directory to the sharded layout
    in place: every root-level ``<digest>.json`` moves to
    ``objects/<prefix>/<digest>.json`` with an atomic rename, and the
    layout manifest is written.  Idempotent — an already-sharded or
    mixed directory only moves the flat leftovers.  The ``lineage.jsonl``
    sidecar (and any explore WAL next to the store) stays where it is.
    """
    tier = DiskTier(root)
    moved = 0
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".json"):
            continue
        src = os.path.join(root, name)
        if not os.path.isfile(src):
            continue
        key = name[: -len(".json")]
        dst = tier.path(key)
        try:
            os.makedirs(tier.shard_dir(key), exist_ok=True)
            os.replace(src, dst)
        except OSError:
            continue
        moved += 1
    tier._write_manifest()
    stat = tier.stat()
    return {"root": root, "moved": moved, "entries": stat["entries"],
            "shards": stat["shards"], "layout": STORE_LAYOUT_VERSION}


def stat_store(root: str) -> Dict[str, Any]:
    """Layout and health summary (see :meth:`DiskTier.stat`)."""
    return DiskTier(root).stat()


def gc_store(root: str, drop_unknown: bool = False) -> Dict[str, Any]:
    """Drop entries unreachable from live lineage, plus debris.

    An entry is *live* when its envelope lineage block addresses the
    entry itself (``block["key"]`` equals the digest it is filed
    under) — exactly the invariant ``adopt_disk_cache`` relies on to
    re-derive the graph, so everything gc keeps remains auditable and
    replayable.  Removed: entries whose block addresses a different
    digest (renamed/copied files no lookup can ever return), corrupt
    entries, orphaned ``*.tmp.*`` files from crashed writers, and the
    quarantine directory's contents.  Pre-provenance entries carry no
    block and cannot prove liveness; they are kept as unknown-lineage
    unless ``drop_unknown`` is set.  Lock files are never touched.
    """
    removed_entries: List[str] = []
    removed_tmp = removed_quarantine = kept = unknown = 0
    for key, path in iter_entry_paths(root):
        entry = _load_entry(path)
        if entry is None:
            removed_entries.append(key)
            discard_file(path)
            continue
        block = _lineage_block(entry)
        if block is None:
            if drop_unknown:
                removed_entries.append(key)
                discard_file(path)
            else:
                unknown += 1
                kept += 1
            continue
        if str(block.get("key")) != key:
            removed_entries.append(key)
            discard_file(path)
            continue
        kept += 1
    removed_tmp = _sweep_tmp(root)
    qdir = os.path.join(root, QUARANTINE_DIR)
    try:
        for name in os.listdir(qdir):
            discard_file(os.path.join(qdir, name))
            removed_quarantine += 1
    except OSError:
        pass
    total_removed = len(removed_entries) + removed_tmp + removed_quarantine
    if total_removed and _OBS.metrics_on:
        _METRICS.counter(
            "store_gc_removed_total",
            "files removed by store gc (entries, temp orphans, "
            "quarantine)").inc(total_removed)
    return {"root": root, "removed": total_removed,
            "removed_entries": len(removed_entries),
            "removed_tmp": removed_tmp,
            "removed_quarantine": removed_quarantine,
            "kept": kept, "unknown_lineage": unknown}


def verify_store(root: str, schema: Optional[int] = None) -> Dict[str, Any]:
    """Integrity pass over every entry: parseable, expected schema,
    lineage block self-addressed.  Returns a report; ``ok`` is False
    when anything is corrupt or mis-addressed (a foreign schema or a
    blockless pre-provenance entry is reported but not a failure —
    both read as plain misses, never as wrong data).
    """
    entries = ok = unknown = 0
    corrupt: List[str] = []
    foreign_schema: List[str] = []
    mismatched: List[str] = []
    for key, path in iter_entry_paths(root):
        entries += 1
        entry = _load_entry(path)
        if entry is None:
            corrupt.append(key)
            continue
        if schema is not None and entry.get("schema") != schema:
            foreign_schema.append(key)
            continue
        block = _lineage_block(entry)
        if block is None:
            unknown += 1
            ok += 1
            continue
        if str(block.get("key")) != key:
            mismatched.append(key)
            continue
        ok += 1
    return {"root": root, "entries": entries, "ok": ok,
            "unknown_lineage": unknown, "corrupt": corrupt,
            "foreign_schema": foreign_schema, "mismatched": mismatched}


def _sweep_tmp(root: str) -> int:
    """Remove orphaned writer temp files (crashed before rename)."""
    removed = 0
    dirs = [root]
    objects = os.path.join(root, "objects")
    try:
        dirs.extend(os.path.join(objects, d) for d in sorted(os.listdir(objects)))
    except OSError:
        pass
    for d in dirs:
        try:
            names = os.listdir(d)
        except OSError:
            continue
        for name in names:
            if ".tmp." in name and name != MANIFEST_NAME:
                full = os.path.join(d, name)
                if os.path.isfile(full):
                    discard_file(full)
                    removed += 1
    return removed

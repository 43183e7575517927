"""Append-only JSONL log: the one primitive under every repo journal.

Three logs are schemas over :class:`AppendLog` — the explore result
WAL (metric prefix ``explore_store``), the lineage sidecar
(``provenance_store``) and the cluster lease journal
(``cluster_journal``).  Each owns its record check and merge rule;
this module owns the bytes:

* **Format.** One JSON object per line, serialized canonically (sorted
  keys, compact separators), UTF-8, newline-terminated.
* **Tail rule.** A file that does not end in a newline lost its writer
  mid-append.  :meth:`AppendLog.load` completes a torn tail that parses
  as a JSON object (newline restored, ``<prefix>_tail_recovered_total``)
  and truncates anything else (``<prefix>_lines_dropped_total``).
  Either way the file is rewritten newline-terminated, so the next
  append can never glue onto torn bytes.
* **Interior garbage.** A terminated line that is not a JSON object is
  skipped and counted in :attr:`AppendLog.skipped_lines`.
* **fsync policy.** An append is one ``open("a")``, one write, one
  flush and no fsync: a crash can tear only the tail, which the next
  load repairs.  Whole-file rewrites (tail repair, :meth:`rewrite`) go
  through a temp file, fsync and rename, so they are all-or-nothing.
* **Failures.** An ``OSError`` on append is counted
  (``<prefix>_write_failed_total``) and swallowed: persistence is
  best-effort and the caller's in-memory state proceeds.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS

_HELP = {
    "tail_recovered": "torn log tails completed on load",
    "lines_dropped": "torn log tails truncated away on load",
    "write_failed": "log appends dropped on OSError",
}


def _parse(raw: bytes) -> Optional[Dict[str, Any]]:
    """One line as a JSON object, or ``None`` when it is not one."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        return None
    return record if isinstance(record, dict) else None


class AppendLog:
    """One append-only JSONL file with torn-tail repair on load."""

    def __init__(self, path: str, prefix: str) -> None:
        self.path = path
        #: metric family prefix (``<prefix>_write_failed_total`` ...).
        self.prefix = prefix
        #: torn final line completed on load.
        self.recovered_tail = 0
        #: torn final line truncated away on load.
        self.dropped_tail = 0
        #: lines that yielded no record: interior garbage, a dropped
        #: tail, and records the schema layer rejected.
        self.skipped_lines = 0

    def load(self) -> List[Dict[str, Any]]:
        """Every record in file order, after repairing a torn tail.  A
        missing or unreadable file reads as empty."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return []
        if data and not data.endswith(b"\n"):
            data = self._repair_tail(data)
        records = []
        for raw in data.splitlines():
            if not raw.strip():
                continue
            record = _parse(raw)
            if record is None:
                self.skipped_lines += 1
            else:
                records.append(record)
        return records

    def _repair_tail(self, data: bytes) -> bytes:
        head, _, tail = data.rpartition(b"\n")
        repaired = head + b"\n" if head else b""
        if _parse(tail) is not None:
            self.recovered_tail += 1
            self._count("tail_recovered")
            repaired += tail + b"\n"
        else:
            self.dropped_tail += 1
            self.skipped_lines += 1
            self._count("lines_dropped")
        self.rewrite(repaired)
        return repaired

    def append(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append a batch of records under one open (flushed, no fsync)."""
        blob = "".join(json.dumps(record, sort_keys=True, separators=(",", ":"))
                       + "\n" for record in records)
        if not blob:
            return
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(blob)
                fh.flush()
        except OSError:
            self._count("write_failed")

    def rewrite(self, data: bytes) -> None:
        """Atomically replace the whole file with ``data`` (temp file,
        fsync, rename); on failure the old file stays as it was."""
        tmp = f"{self.path}.tmp.{os.getpid()}-{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _count(self, event: str) -> None:
        if _OBS.metrics_on:
            _METRICS.counter(f"{self.prefix}_{event}_total", _HELP[event]).inc()

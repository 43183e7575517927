"""Crash safety of the append-only log under all three of its schemas.

Every byte-prefix of a reference log is what a writer killed at that
byte leaves behind.  For each prefix the log is reopened and must show
exactly the records whose bytes were fully written — none lost, no
phantom — with the file newline-terminated again, so one more append
followed by a reopen shows that record too.  A failed append is
counted under the log's own metric prefix, never raised.
"""

import json
import os

import pytest

from repro import obs
from repro.cluster.leases import LeaseJournal
from repro.explore.store import ResultStore
from repro.obs.metrics import REGISTRY
from repro.provenance import LineageRecord, LineageStore


def _trial(store, i):
    store.put(f"k{i}", {"arch_name": f"m{i}", "objectives": {"mcpi": i + 0.5}})


def _lineage(store, i):
    store.append(LineageRecord(digest=f"d{i}", kind="trial", inputs=(f"in{i}",)))


def _event(journal, i):
    journal.append({"event": "complete", "lease": i, "lo": i, "hi": i + 1})


#: (metric prefix, open, write record i, the records a reopened log holds)
SCHEMAS = {
    "explore_store": (ResultStore, _trial, lambda s: list(s.records())),
    "provenance_store": (LineageStore, _lineage,
                         lambda s: [r.to_dict() for r in s.records()]),
    "cluster_journal": (LeaseJournal, _event, lambda s: s.events()),
}

RECORDS = 3


def _line_ends(data):
    """(offset just past the JSON bytes, record) for every line."""
    ends, start = [], 0
    for line in data.split(b"\n")[:-1]:
        ends.append((start + len(line), json.loads(line)))
        start += len(line) + 1
    return ends


@pytest.mark.parametrize("prefix", sorted(SCHEMAS))
def test_every_byte_prefix_reopens_to_exactly_the_written_records(tmp_path, prefix):
    open_log, write, held = SCHEMAS[prefix]
    reference = str(tmp_path / "reference.jsonl")
    log = open_log(reference)
    for i in range(RECORDS):
        write(log, i)
    with open(reference, "rb") as fh:
        data = fh.read()
    ends = _line_ends(data)
    assert held(open_log(reference)) == [record for _, record in ends]

    for cut in range(len(data) + 1):
        path = str(tmp_path / f"cut{cut}" / "log.jsonl")
        os.mkdir(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        expected = [record for end, record in ends if end <= cut]

        reopened = open_log(path)
        assert held(reopened) == expected, cut
        with open(path, "rb") as fh:
            on_disk = fh.read()
        assert on_disk == b"" or on_disk.endswith(b"\n"), cut

        write(reopened, RECORDS)
        survivors = held(open_log(path))
        assert survivors[:-1] == expected, cut
        assert survivors[-1] == held(reopened)[-1], cut


@pytest.mark.parametrize("prefix", sorted(SCHEMAS))
def test_unwritable_append_is_counted_not_raised(tmp_path, prefix):
    open_log, write, held = SCHEMAS[prefix]
    log = open_log(str(tmp_path / "no" / "such" / "dir" / "log.jsonl"))
    counter = f"{prefix}_write_failed_total"
    with obs.capture(enable_spans=False):
        before = REGISTRY.counter(counter).total()
        write(log, 0)  # OSError swallowed
        after = REGISTRY.counter(counter).total()
    assert after == before + 1
    assert len(held(log)) == 1  # the in-memory state proceeds

"""The durable run journal: append-only, checksummed JSONL.

One journal records one run's progress as a sequence of events —
``run-start``, ``shard-start``, ``shard-complete`` (with the completed
checkpoint's digests), ``merge-start``, ``run-complete`` — each on its
own line:

    {"checksum": "<sha256 of the rest>", "payload": {...},
     "run_id": "run-…", "seq": 3, "type": "shard-complete"}

Appends are durable (write → flush → fsync) and every record carries a
SHA-256 over its own canonical body, so on reopen the journal can tell
exactly which events survived a crash:

* a *torn tail* — a final line cut short by a killed writer, or a
  final record whose checksum does not verify — is dropped: the event
  it described never durably happened, so the work is simply redone;
* corruption anywhere *before* the tail (a bad record followed by good
  ones) means the file was damaged after the fact and raises
  :class:`JournalCorruption` — resuming from a lying journal would
  silently skip work.

Timestamps are deliberately absent: the journal orders events by
sequence number only, so its bytes are a pure function of what the run
did (wall-clock reads are banned repo-wide by lint rule ``DET002``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.store.atomic import canonical_json, fsync_directory

#: Format tag recorded by the run-start event.
JOURNAL_FORMAT = "riskybiz-journal/1"


class JournalCorruption(Exception):
    """A journal record before the tail failed verification."""


def _record_checksum(body: dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One verified journal event."""

    seq: int
    run_id: str
    type: str
    payload: dict[str, Any]

    def body(self) -> dict[str, Any]:
        """The checksummed portion of the record."""
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "type": self.type,
            "payload": self.payload,
        }


def _parse_line(line: str) -> JournalRecord | None:
    """The verified record on ``line``, or ``None`` if it fails."""
    try:
        document = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(document, dict):
        return None
    recorded = document.get("checksum")
    body = {k: v for k, v in document.items() if k != "checksum"}
    if not isinstance(recorded, str) or _record_checksum(body) != recorded:
        return None
    try:
        return JournalRecord(
            seq=int(body["seq"]),
            run_id=str(body["run_id"]),
            type=str(body["type"]),
            payload=dict(body["payload"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


class RunJournal:
    """Append-only journal for one run, checksummed per record.

    Construct with :meth:`create` for a fresh run or :meth:`open` to
    replay an existing file (dropping a torn tail, raising
    :class:`JournalCorruption` on earlier damage). The ``torn_writer``
    hook exists for chaos testing: given the encoded record it may
    return a cut position, in which case only that prefix is written
    (durably — the fragment must survive, that is the point) and the
    writer dies via :class:`~repro.faults.process.ChaosKill`,
    simulating a crash mid-append.
    """

    def __init__(
        self,
        path: str | Path,
        run_id: str,
        records: list[JournalRecord] | None = None,
        *,
        torn_writer: "Callable[[bytes], int | None] | None" = None,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self.records: list[JournalRecord] = list(records or ())
        self.torn_writer = torn_writer

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, run_id: str) -> "RunJournal":
        """Start a fresh journal (the file must not already exist)."""
        target = Path(path)
        if target.exists():
            raise FileExistsError(f"journal already exists: {target}")
        target.parent.mkdir(parents=True, exist_ok=True)
        journal = cls(target, run_id)
        journal.append("run-start", format=JOURNAL_FORMAT, run_id_echo=run_id)
        return journal

    @classmethod
    def open(cls, path: str | Path) -> "RunJournal":
        """Replay an existing journal, recovering from a torn tail."""
        target = Path(path)
        raw_lines = target.read_text(encoding="utf-8").split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        records: list[JournalRecord] = []
        dropped_tail = False
        for index, line in enumerate(raw_lines):
            record = _parse_line(line)
            if record is None or record.seq != len(records):
                if index == len(raw_lines) - 1:
                    dropped_tail = True
                    break
                raise JournalCorruption(
                    f"{target}: record {index} failed verification with "
                    "valid records after it — journal damaged, not torn"
                )
            records.append(record)
        if not records:
            raise JournalCorruption(f"{target}: no verifiable records")
        if records[0].type != "run-start":
            raise JournalCorruption(f"{target}: first record is not run-start")
        journal = cls(target, records[0].run_id, records)
        if dropped_tail:
            journal._truncate_to_verified(raw_lines)
        return journal

    @staticmethod
    def read_run_id(path: str | Path) -> str:
        """The run ID of the journal at ``path``, from its first record.

        Reads and verifies only the ``run-start`` record, for callers
        that need the ID to pick a run before handing the path to a
        runner that opens (and fully verifies) the journal itself.
        """
        target = Path(path)
        with open(target, encoding="utf-8") as handle:
            first = handle.readline().rstrip("\n")
        record = _parse_line(first)
        if record is None or record.seq != 0 or record.type != "run-start":
            raise JournalCorruption(f"{target}: first record is not run-start")
        return record.run_id

    def _truncate_to_verified(self, raw_lines: list[str]) -> None:
        """Rewrite the file to contain exactly the verified records.

        Only the torn tail is dropped; every verified line is kept
        byte-for-byte. The rewrite itself is crash-safe because a
        re-crash mid-truncate just leaves another torn tail.
        """
        verified = raw_lines[: len(self.records)]
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in verified))
            handle.flush()
            os.fsync(handle.fileno())

    # -- appends -------------------------------------------------------------

    def append(self, event_type: str, **payload: Any) -> JournalRecord:
        """Durably append one event; returns the written record."""
        record = JournalRecord(
            seq=len(self.records),
            run_id=self.run_id,
            type=event_type,
            payload=payload,
        )
        body = record.body()
        document = dict(body)
        document["checksum"] = _record_checksum(body)
        line = json.dumps(document, sort_keys=True) + "\n"
        data = line.encode("utf-8")
        cut = self.torn_writer(data) if self.torn_writer is not None else None
        with open(self.path, "ab") as handle:
            handle.write(data if cut is None else data[:cut])
            handle.flush()
            os.fsync(handle.fileno())
        fsync_directory(self.path.parent)
        if cut is not None:
            # Chaos: the torn fragment is on disk; the writer is now dead.
            from repro.faults.process import ChaosKill

            raise ChaosKill("torn", f"journal-append:{event_type}")
        self.records.append(record)
        return record

    # -- replay queries ------------------------------------------------------

    def events(self, event_type: str | None = None) -> Iterator[JournalRecord]:
        """Verified events, optionally filtered by type."""
        for record in self.records:
            if event_type is None or record.type == event_type:
                yield record

    def last(self, event_type: str) -> JournalRecord | None:
        """The most recent event of ``event_type``, if any."""
        for record in reversed(self.records):
            if record.type == event_type:
                return record
        return None

    def completed_shards(self) -> dict[int, dict[str, Any]]:
        """Shard index → completion payload, for every durable shard."""
        done: dict[int, dict[str, Any]] = {}
        for record in self.events("shard-complete"):
            done[int(record.payload["shard"])] = record.payload
        return done

    def completed_stages(self, shard: int) -> list[str]:
        """Stages journaled durable for ``shard``, in completion order."""
        stages: list[str] = []
        for record in self.events("stage-complete"):
            if int(record.payload["shard"]) == shard:
                stages.append(str(record.payload["stage"]))
        return stages

    def last_day_advanced(self) -> JournalRecord | None:
        """The newest ``day-advanced`` event after the last ``engine-reset``.

        An incremental run's engine checkpoint must describe this day; an
        ``engine-reset`` voids every day journaled before it.
        """
        for record in reversed(self.records):
            if record.type == "engine-reset":
                return None
            if record.type == "day-advanced":
                return record
        return None

    @property
    def run_complete(self) -> JournalRecord | None:
        """The run-complete event, if the run durably finished."""
        return self.last("run-complete")

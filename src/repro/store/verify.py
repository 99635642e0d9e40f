"""End-to-end data verification: the engine behind ``riskybiz verify-data``.

Walks the three kinds of durable state the tool chain writes — datasets
(SQLite file + checksummed manifest), artifact caches (pickles +
checksummed manifests), and run directories (journal + checkpoints +
merged result) — recomputing every recorded SHA-256 and reporting what
does not verify. Verification is read-only: nothing is quarantined or
rewritten here (the loaders do that lazily); this module only *reports*,
so it is safe to run against live data.

Each finding is an :class:`Issue` with a machine-usable kind and a
human-readable detail; an empty list means everything verified.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.store.atomic import (
    IntegrityError,
    QUARANTINE_SUFFIX,
    TMP_SUFFIX,
    file_sha256,
    verify_checked_json,
)

if TYPE_CHECKING:
    from repro.runner.journal import RunJournal

#: Issue kinds, for tests and tooling (values double as report labels).
MISSING = "missing"
CHECKSUM_MISMATCH = "checksum-mismatch"
HASH_MISMATCH = "hash-mismatch"
ORPHANED = "orphaned"
CORRUPT = "corrupt"
QUARANTINED = "quarantined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True, slots=True)
class Issue:
    """One verification finding."""

    kind: str
    path: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.path}: {self.detail}"


def _quarantine_issues(directory: Path) -> list[Issue]:
    """Report quarantined files lying around (evidence of past corruption)."""
    if not directory.is_dir():
        return []
    return [
        Issue(QUARANTINED, str(path), "quarantined file present (past corruption)")
        for path in sorted(directory.glob(f"*{QUARANTINE_SUFFIX}*"))
    ]


# -- datasets ----------------------------------------------------------------


def verify_dataset(dataset_path: str | Path) -> list[Issue]:
    """Verify one SQLite dataset against its checksummed manifest.

    Checks, in order: manifest presence and content checksum, the
    recorded ``dataset_sha256`` against the file's actual bytes,
    SQLite's own ``PRAGMA integrity_check``, and the manifest's
    domain/nameserver counts against the store's.
    """
    from repro.store.dataset import manifest_path
    from repro.store.sqlite import SqliteDelegationStore

    target = Path(dataset_path)
    issues: list[Issue] = []
    if not target.exists():
        return [Issue(MISSING, str(target), "dataset file does not exist")]
    sidecar = manifest_path(target)
    manifest = None
    if not sidecar.exists():
        issues.append(Issue(MISSING, str(sidecar), "manifest sidecar missing"))
    else:
        try:
            manifest = verify_checked_json(sidecar)
        except IntegrityError as error:
            issues.append(Issue(CHECKSUM_MISMATCH, str(sidecar), str(error)))
    # Hash before opening: connecting must not perturb the verified bytes.
    actual = file_sha256(target)
    if manifest is not None:
        recorded = manifest.get("dataset_sha256")
        if recorded is not None and recorded != actual:
            issues.append(
                Issue(
                    HASH_MISMATCH,
                    str(target),
                    f"dataset bytes hash {actual[:12]}…, manifest says "
                    f"{str(recorded)[:12]}…",
                )
            )
    store = SqliteDelegationStore(target)
    try:
        for problem in store.integrity_check():
            issues.append(Issue(CORRUPT, str(target), f"sqlite: {problem}"))
        if manifest is not None:
            counts = {
                "domains": store.domain_count(),
                "nameservers": store.nameserver_count(),
            }
            for key, actual_count in counts.items():
                recorded_count = manifest.get(key)
                if recorded_count is not None and recorded_count != actual_count:
                    issues.append(
                        Issue(
                            INCONSISTENT,
                            str(target),
                            f"{key}: store has {actual_count}, manifest "
                            f"says {recorded_count}",
                        )
                    )
    finally:
        store.close()
    issues.extend(_quarantine_issues(target.parent))
    return issues


# -- artifact caches ---------------------------------------------------------


def artifact_entry_count(root: str | Path) -> int:
    """Number of (non-quarantined) artifact manifests under ``root``.

    The same filter :func:`verify_artifact_dir` scans with, exposed so
    callers can summarize the cache ("N entries checked") without
    re-verifying it.
    """
    directory = Path(root)
    if not directory.is_dir():
        return 0
    return sum(
        1
        for path in directory.glob("*.json")
        if QUARANTINE_SUFFIX not in path.name
        and not path.name.endswith(TMP_SUFFIX)
        and not path.name.endswith(".manifest.json")
    )


def verify_artifact_dir(root: str | Path) -> list[Issue]:
    """Verify every entry of an on-disk artifact cache directory.

    Each ``<stem>.json`` manifest must checksum-verify and point at an
    existing ``<stem>.pkl`` whose bytes hash to its ``artifact_sha256``;
    pickles without a manifest are reported as orphans.
    """
    directory = Path(root)
    issues: list[Issue] = []
    if not directory.is_dir():
        return [Issue(MISSING, str(directory), "artifact directory does not exist")]
    manifests = sorted(
        path
        for path in directory.glob("*.json")
        if QUARANTINE_SUFFIX not in path.name
        and not path.name.endswith(TMP_SUFFIX)
        and not path.name.endswith(".manifest.json")  # dataset sidecars
    )
    claimed: set[str] = set()
    for sidecar in manifests:
        try:
            manifest = verify_checked_json(sidecar)
        except IntegrityError as error:
            issues.append(Issue(CHECKSUM_MISMATCH, str(sidecar), str(error)))
            continue
        artifact_name = manifest.get("artifact")
        if not isinstance(artifact_name, str):
            issues.append(
                Issue(INCONSISTENT, str(sidecar), "manifest names no artifact")
            )
            continue
        claimed.add(artifact_name)
        artifact = directory / artifact_name
        if not artifact.exists():
            issues.append(
                Issue(ORPHANED, str(sidecar), f"artifact {artifact_name} missing")
            )
            continue
        recorded = manifest.get("artifact_sha256")
        if recorded is not None:
            actual = file_sha256(artifact)
            if actual != recorded:
                issues.append(
                    Issue(
                        HASH_MISMATCH,
                        str(artifact),
                        f"bytes hash {actual[:12]}…, manifest says "
                        f"{str(recorded)[:12]}…",
                    )
                )
    for pkl in sorted(directory.glob("*.pkl")):
        if QUARANTINE_SUFFIX in pkl.name or pkl.name.endswith(TMP_SUFFIX):
            continue
        if pkl.name not in claimed:
            issues.append(
                Issue(ORPHANED, str(pkl), "artifact has no manifest sidecar")
            )
    issues.extend(_quarantine_issues(directory))
    return issues


# -- run directories ---------------------------------------------------------


def _engine_checkpoint_issues(journal: RunJournal, path: Path) -> list[Issue]:
    """Check an incremental run's engine checkpoint against its journal.

    The newest ``day-advanced`` record after the last ``engine-reset``
    names the checkpoint the run stands on. The file must exist, load,
    and hash to that record's ``checkpoint_sha256``. A checkpoint one
    fold *ahead* of the journal is the crash window between the
    checkpoint write and its journal append, which the next ``advance``
    reconciles, so it is not reported.
    """
    from repro.detection.incremental import ENGINE_WATERMARK, load_engine_state

    newest = journal.last_day_advanced()
    if newest is None:
        return []
    day = int(newest.payload["day"])
    if not path.exists():
        return [
            Issue(
                MISSING,
                str(path),
                f"journal says day {day} was folded but the engine "
                "checkpoint does not exist",
            )
        ]
    data = path.read_bytes()
    try:
        watermark = load_engine_state(data)["watermarks"].get(ENGINE_WATERMARK)
    except Exception as error:
        return [Issue(CORRUPT, str(path), f"unreadable engine checkpoint: {error}")]
    if watermark is not None and watermark > day:
        return []
    if watermark != day:
        return [
            Issue(
                INCONSISTENT,
                str(path),
                f"engine checkpoint is at day {watermark}, journal says {day}",
            )
        ]
    actual = hashlib.sha256(data).hexdigest()
    recorded = newest.payload.get("checkpoint_sha256")
    if actual != recorded:
        return [
            Issue(
                HASH_MISMATCH,
                str(path),
                f"bytes hash {actual[:12]}…, journal says {str(recorded)[:12]}…",
            )
        ]
    return []


def verify_run_dir(run_dir: str | Path) -> list[Issue]:
    """Verify a run directory: journal, checkpoints, result.

    Replays the journal (reporting corruption rather than raising),
    recomputes every checkpoint SHA-256 the journal recorded for a
    completed shard or, for an incremental run, for the newest folded
    day, and — when the run durably completed — verifies the result's
    bytes and manifest.
    """
    from repro.runner.execution import (
        CHECKPOINT_DIR_NAME,
        ENGINE_CHECKPOINT_NAME,
        JOURNAL_NAME,
        RESULT_MANIFEST_NAME,
        RESULT_NAME,
    )
    from repro.runner.journal import JournalCorruption, RunJournal

    directory = Path(run_dir)
    issues: list[Issue] = []
    journal_path = directory / JOURNAL_NAME
    if not journal_path.exists():
        return [Issue(MISSING, str(journal_path), "run journal does not exist")]
    try:
        journal = RunJournal.open(journal_path)
    except JournalCorruption as error:
        return [Issue(CORRUPT, str(journal_path), str(error))]

    checkpoint_dir = directory / CHECKPOINT_DIR_NAME
    for index, payload in sorted(journal.completed_shards().items()):
        recorded = payload.get("checkpoint_sha256")
        matches = sorted(checkpoint_dir.glob(f"shard-{index:04d}-of-*.pkl"))
        if not matches:
            issues.append(
                Issue(
                    MISSING,
                    str(checkpoint_dir),
                    f"shard {index} journaled complete but has no checkpoint",
                )
            )
            continue
        for path in matches:
            actual = file_sha256(path)
            if recorded is not None and actual != recorded:
                issues.append(
                    Issue(
                        HASH_MISMATCH,
                        str(path),
                        f"bytes hash {actual[:12]}…, journal says "
                        f"{str(recorded)[:12]}…",
                    )
                )
            else:
                try:
                    pickle.loads(path.read_bytes())
                except Exception as error:
                    issues.append(
                        Issue(CORRUPT, str(path), f"unreadable checkpoint: {error}")
                    )
    issues.extend(
        _engine_checkpoint_issues(journal, checkpoint_dir / ENGINE_CHECKPOINT_NAME)
    )

    complete = journal.run_complete
    if complete is not None:
        result_path = directory / RESULT_NAME
        if not result_path.exists():
            issues.append(
                Issue(
                    MISSING,
                    str(result_path),
                    "run journaled complete but result file missing",
                )
            )
        else:
            actual = hashlib.sha256(result_path.read_bytes()).hexdigest()
            recorded = complete.payload.get("result_sha256")
            if recorded is not None and actual != recorded:
                issues.append(
                    Issue(
                        HASH_MISMATCH,
                        str(result_path),
                        f"bytes hash {actual[:12]}…, journal says "
                        f"{str(recorded)[:12]}…",
                    )
                )
        manifest_file = directory / RESULT_MANIFEST_NAME
        if manifest_file.exists():
            try:
                manifest = verify_checked_json(manifest_file)
            except IntegrityError as error:
                issues.append(
                    Issue(CHECKSUM_MISMATCH, str(manifest_file), str(error))
                )
            else:
                if manifest.get("result_digest") != complete.payload.get(
                    "result_digest"
                ):
                    issues.append(
                        Issue(
                            INCONSISTENT,
                            str(manifest_file),
                            "manifest result_digest disagrees with journal",
                        )
                    )
    issues.extend(_quarantine_issues(directory))
    issues.extend(_quarantine_issues(checkpoint_dir))
    return issues


def render_issues(issues: list[Issue]) -> str:
    """Human-readable report (one line per issue, or an all-clear)."""
    if not issues:
        return "verify-data: all checks passed"
    lines = [f"verify-data: {len(issues)} issue(s)"]
    lines.extend(f"  {issue}" for issue in issues)
    return "\n".join(lines)


def issues_as_json(issues: list[Issue]) -> str:
    """The findings as a JSON document (for tooling/CI)."""
    return json.dumps(
        [
            {"kind": issue.kind, "path": issue.path, "detail": issue.detail}
            for issue in issues
        ],
        indent=2,
        sort_keys=True,
    )

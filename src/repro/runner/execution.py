"""Supervised detection runs: journaled, checkpointed, resumable.

This module ties the supervisor and the journal to the detection
pipeline. One *supervised run* lives in a run directory::

    <run_dir>/journal.jsonl                    append-only run journal
    <run_dir>/checkpoints/shard-NNNN-of-NNNN.pkl   per-shard state
    <run_dir>/result.pkl + result.json         merged result + manifest

Durability protocol, per shard stage::

    run stage  →  atomic checkpoint write  →  journal stage-complete

so every crash window converges on resume:

* killed before the checkpoint write — the stage's work is in memory
  only; the checkpoint still describes the previous stage; redo it;
* killed between checkpoint and journal append — the checkpoint is
  *ahead* of the journal; resume reconciles by journaling the stages
  the checkpoint proves complete (flagged ``reconciled``);
* a torn journal append — the fragment fails verification and is
  dropped on reopen, identical to the previous window.

Checkpoints and the merged result are content-verified on resume: a
file whose SHA-256 does not match what the journal recorded is
quarantined and its work recomputed — the journal never lies about
what durably exists. Run IDs are deterministic digests of the run's
inputs, so ``--resume`` can also detect an input switcheroo.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.detection.incremental import (
    ENGINE_WATERMARK,
    IncrementalDetectionEngine,
    dump_engine_state,
    load_engine_state,
)
from repro.detection.pipeline import (
    DetectionPipeline,
    PipelineResult,
    dump_pipeline_state,
    load_pipeline_state,
)
from repro.obs import profiling
from repro.obs import runtime as obs
from repro.obs.tracer import Tracer
from repro.runner.journal import RunJournal
from repro.runner.supervisor import (
    RunFailed,
    RunSupervisor,
    ShardOutcome,
    SupervisorPolicy,
)
from repro.store.artifacts import content_digest
from repro.store.atomic import (
    atomic_write_bytes,
    file_sha256,
    load_checked_json,
    quarantine,
    write_checked_json,
)
from repro.store.dataset import SCENARIO_DIGEST_KEY, DeltaView, ShardSpec

if TYPE_CHECKING:
    from repro.faults.process import ChaosMonkey
    from repro.whois.archive import WhoisArchive
    from repro.zonedb.database import ZoneDatabase

#: Format tag carried by the result manifest sidecar.
RESULT_FORMAT = "riskybiz-run-result/1"

#: Filenames inside a run directory.
JOURNAL_NAME = "journal.jsonl"
RESULT_NAME = "result.pkl"
RESULT_MANIFEST_NAME = "result.json"
CHECKPOINT_DIR_NAME = "checkpoints"
TRACE_NAME = "trace.jsonl"
METRICS_NAME = "metrics.json"
ENGINE_CHECKPOINT_NAME = "engine-state.pkl"
ENGINE_STORE_NAME = "engine-store.sqlite"


def compute_run_id(fingerprint: dict[str, Any]) -> str:
    """Deterministic run ID for a run-input fingerprint.

    Same dataset + same options ⇒ same ID, so a resume against changed
    inputs is caught as an ID mismatch instead of producing a franken-run.
    """
    return "run-" + content_digest(fingerprint)[:12]


def result_fingerprint(result: PipelineResult) -> dict[str, Any]:
    """A canonical, JSON-able fingerprint of a pipeline result.

    Semantic (field values), not representational (pickle bytes), so it
    is stable across processes, hash seeds, and pickle protocols. Two
    results fingerprint equal iff every output the paper reports from
    them is equal.
    """
    return {
        "funnel": asdict(result.funnel),
        "sacrificial": [asdict(entry) for entry in result.sacrificial],
        "matches": [asdict(match) for match in result.matches],
        "candidates": [
            [c.name, c.first_seen, list(c.referencing_domains)]
            for c in result.candidates
        ],
        "mined": [[p.substring, p.support] for p in result.mined_patterns],
    }


def result_digest(result: PipelineResult) -> str:
    """SHA-256 digest of :func:`result_fingerprint`."""
    return content_digest(result_fingerprint(result))


def state_digest(state: dict[str, Any]) -> str:
    """Semantic digest of one shard's checkpointable state.

    Journaled at every stage boundary; like :func:`result_fingerprint`
    it digests field values, not pickle bytes, so digests agree between
    the process that wrote a checkpoint and the one that resumes it.
    """
    fingerprint: dict[str, Any] = {
        "done": sorted(state.get("done", ())),
        "funnel": asdict(state["funnel"]),
    }
    for key in ("candidates", "stage1", "remaining"):
        if key in state:
            fingerprint[key] = [
                [c.name, c.first_seen, list(c.referencing_domains)]
                for c in state[key]
            ]
    if "sacrificial" in state:
        fingerprint["sacrificial"] = {
            name: asdict(entry) for name, entry in state["sacrificial"].items()
        }
    if "matches" in state:
        fingerprint["matches"] = [asdict(match) for match in state["matches"]]
    return content_digest(fingerprint)


@dataclass
class SupervisedResult:
    """What a supervised run produced, plus how it got there."""

    run_id: str
    result: PipelineResult
    result_digest: str
    run_dir: Path
    journal_path: Path
    resumed: bool = False
    #: Per-shard execution outcomes (empty when replayed from a
    #: durably-complete journal without re-executing anything).
    outcomes: dict[int, ShardOutcome] = field(default_factory=dict)


def _boundary(chaos: "ChaosMonkey | None", site: str, label: str) -> None:
    """Hit a chaos boundary if a monkey is riding along."""
    if chaos is None:
        return
    if site == "worker":
        chaos.worker_boundary(label)
    else:
        chaos.supervisor_boundary(label)


def _note_shard_reset(index: int, reason: str) -> None:
    """Mirror a journaled shard-reset into metrics and the trace."""
    obs.counter("runner.shard_resets").inc()
    obs.trace_event("runner.shard-reset", shard=index, reason=reason)


def _load_partial_state(
    journal: RunJournal,
    pipeline: DetectionPipeline,
    shard: ShardSpec,
    path: Path,
) -> dict[str, Any]:
    """The resumable state for an unfinished shard, reconciled.

    Source of truth is the checkpoint file (it is written before the
    journal entry); the journal is cross-checked against it:

    * checkpoint ahead of journal — journal the proven stages
      (``reconciled``) and continue from the checkpoint;
    * checkpoint behind the journal, unreadable, or missing while the
      journal claims progress — the durable artifact is gone or lying;
      quarantine it, journal a ``shard-reset``, start the shard over.
    """
    journaled = set(journal.completed_stages(shard.index))
    if not path.exists():
        if journaled:
            journal.append(
                "shard-reset", shard=shard.index, reason="checkpoint-missing"
            )
            _note_shard_reset(shard.index, "checkpoint-missing")
        return pipeline.new_shard_state()
    try:
        state = load_pipeline_state(path.read_bytes())
        done = set(state["done"])
    except Exception:
        quarantine(path)
        journal.append(
            "shard-reset", shard=shard.index, reason="checkpoint-unreadable"
        )
        _note_shard_reset(shard.index, "checkpoint-unreadable")
        return pipeline.new_shard_state()
    if not journaled <= done:
        quarantine(path)
        journal.append(
            "shard-reset", shard=shard.index, reason="checkpoint-behind-journal"
        )
        _note_shard_reset(shard.index, "checkpoint-behind-journal")
        return pipeline.new_shard_state()
    for stage in pipeline.SHARD_STAGES:
        if stage in done and stage not in journaled:
            journal.append(
                "stage-complete",
                shard=shard.index,
                stage=stage,
                state_digest=state_digest(state),
                checkpoint_sha256=file_sha256(path),
                reconciled=True,
            )
    return state


def _verified_completed_shards(
    journal: RunJournal,
    pipeline: DetectionPipeline,
    checkpoint_dir: Path,
    shards: int,
) -> set[int]:
    """Journal-complete shards whose checkpoints verify on disk.

    A shard-complete record whose checkpoint is missing or hashes wrong
    is demoted: the file is quarantined, a ``shard-reset`` journaled,
    and the shard re-executed (stages are deterministic, so redoing is
    always safe).
    """
    verified: set[int] = set()
    for index, payload in journal.completed_shards().items():
        if not 0 <= index < shards:
            continue
        path = pipeline.shard_checkpoint_path(
            checkpoint_dir, ShardSpec(index, shards)
        )
        if path.exists() and file_sha256(path) == payload.get("checkpoint_sha256"):
            verified.add(index)
            continue
        if path.exists():
            quarantine(path)
        journal.append(
            "shard-reset", shard=index, reason="completed-checkpoint-mismatch"
        )
        _note_shard_reset(index, "completed-checkpoint-mismatch")
    return verified


def _load_completed_result(
    run_dir: Path, payload: dict[str, Any]
) -> PipelineResult | None:
    """The durably-journaled merged result, verified, or None.

    None means the result artifact was missing or failed verification;
    the corrupt files are quarantined and the caller re-merges from the
    (independently verified) shard checkpoints.
    """
    result_path = run_dir / RESULT_NAME
    manifest_path = run_dir / RESULT_MANIFEST_NAME
    if not result_path.exists():
        return None
    data = result_path.read_bytes()
    if hashlib.sha256(data).hexdigest() != payload.get("result_sha256"):
        quarantine(result_path)
        if manifest_path.exists():
            quarantine(manifest_path)
        return None
    try:
        result: PipelineResult = pickle.loads(data)
    except Exception:
        quarantine(result_path)
        return None
    if result_digest(result) != payload.get("result_digest"):
        quarantine(result_path)
        return None
    if manifest_path.exists() and load_checked_json(manifest_path) is None:
        # Manifest corrupt (now quarantined): rewrite it from the
        # verified result rather than leaving the run dir inconsistent.
        _write_result_manifest(run_dir, payload["run_id"], data, result)
    return result


def _write_result_manifest(
    run_dir: Path, run_id: str, data: bytes, result: PipelineResult
) -> dict[str, Any]:
    manifest = {
        "format": RESULT_FORMAT,
        "run_id": run_id,
        "result": RESULT_NAME,
        "result_sha256": hashlib.sha256(data).hexdigest(),
        "result_digest": result_digest(result),
        "sacrificial_total": result.funnel.sacrificial_total,
    }
    write_checked_json(run_dir / RESULT_MANIFEST_NAME, manifest)
    return manifest


# -- worker-process entry point ---------------------------------------------


def _shard_worker(
    index: int,
    shards: int,
    dataset_path: str,
    whois_path: str | None,
    checkpoint_dir: str,
    mine_patterns: bool,
    heartbeats: Any,
    chaos_seed: int | None,
    kill_rate: float,
) -> None:
    """One shard, in its own process: open data, resume, checkpoint.

    Module-level so it pickles under any multiprocessing start method.
    The worker never touches the journal — the journal has exactly one
    writer, the supervisor, which records the completion only after
    verifying the checkpoint this worker left behind.

    Chaos (when ``chaos_seed`` is not None) uses a per-shard seed and
    ``os._exit(137)`` at stage boundaries, so the supervisor sees a
    genuine SIGKILL-style crash; the supervisor only arms it on a
    shard's first attempt, so retries always make progress.
    """
    from repro.store.dataset import open_dataset
    from repro.whois.archive import WhoisArchive

    # A forked worker inherits the supervisor's open tracer; the trace
    # has one writer (the supervisor), so drop the inherited handle.
    obs.detach()

    monkey = None
    if chaos_seed is not None and kill_rate > 0:
        from repro.faults.process import ChaosMonkey, ProcessChaosConfig
        from repro.faults.rng import stable_hash

        monkey = ChaosMonkey(
            ProcessChaosConfig(
                seed=stable_hash(f"{chaos_seed}:worker:{index}"),
                kill_worker_rate=kill_rate,
                max_kills=1,
            )
        )
    zonedb = open_dataset(dataset_path)
    whois = WhoisArchive.load(whois_path) if whois_path else WhoisArchive()
    pipeline = DetectionPipeline(
        zonedb, whois, mine_patterns=mine_patterns, shards=shards
    )
    shard = ShardSpec(index, shards)
    path = pipeline.shard_checkpoint_path(Path(checkpoint_dir), shard)
    state = pipeline.new_shard_state()
    if path.exists():
        try:
            state = load_pipeline_state(path.read_bytes())
        except Exception:
            state = pipeline.new_shard_state()

    def after_stage(stage: str, st: dict[str, Any]) -> None:
        if monkey is not None:
            monkey.exit_if(f"shard-{index}:{stage}")
        atomic_write_bytes(path, dump_pipeline_state(st))
        heartbeats.put((index, stage))

    pipeline.run_shard_stages(shard, state, after_stage=after_stage)


# -- the supervised run ------------------------------------------------------


def _write_metrics_snapshot(run_dir: Path) -> Path:
    """Write the global metrics registry as ``metrics.json`` (atomic)."""
    snapshot = obs.metrics().snapshot()
    path = run_dir / METRICS_NAME
    atomic_write_bytes(
        path,
        (json.dumps(snapshot, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    return path


def run_supervised_detection(
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    run_dir: str | Path,
    shards: int = 1,
    mine_patterns: bool = True,
    options: dict[str, Any] | None = None,
    policy: SupervisorPolicy | None = None,
    chaos: "ChaosMonkey | None" = None,
    resume: str | None = None,
    dataset_path: str | Path | None = None,
    whois_path: str | Path | None = None,
    trace: bool = False,
    profile: bool = False,
) -> SupervisedResult:
    """Run the detection pipeline under supervision, journaled in ``run_dir``.

    Fresh run: ``run_dir`` must hold no journal; one is created under a
    deterministic run ID. Resume: pass ``resume=<run-id>`` (from the
    journal, or ``riskybiz detect``'s output); the journal is replayed
    and exactly the work that did not durably complete is re-executed —
    finishing a run twice returns the recorded result without running
    anything.

    ``policy.workers == 0`` executes shards inline (the deterministic
    mode the chaos harness drives); ``workers > 0`` fans out worker
    processes under the :class:`RunSupervisor` liveness loop, which
    requires ``dataset_path`` so workers can reopen the data themselves.

    ``chaos`` arms the execution-plane fault injectors at every stage,
    journal-append, and merge boundary (see :mod:`repro.faults.process`).

    ``trace`` emits a span/event trace to ``<run_dir>/trace.jsonl`` and a
    metrics snapshot to ``<run_dir>/metrics.json`` (deterministic span
    IDs; wall durations confined to telemetry-only fields — see
    :mod:`repro.obs.tracer`). ``profile`` additionally records per-stage
    durations and ``tracemalloc`` peaks into the metrics snapshot.
    """
    policy = policy or SupervisorPolicy()
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    journal_path = run_dir / JOURNAL_NAME
    checkpoint_dir = run_dir / CHECKPOINT_DIR_NAME
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    options = dict(options or {})
    run_id = compute_run_id(
        {
            "scenario_digest": zonedb.store.get_meta(SCENARIO_DIGEST_KEY),
            "shards": shards,
            "mine_patterns": mine_patterns,
            "options": options,
        }
    )

    resumed = journal_path.exists()
    if resumed:
        if resume is None:
            raise RunFailed(
                f"{run_dir} already holds a journal; pass resume=<run-id> "
                "(or point at a fresh run directory)"
            )
        journal = RunJournal.open(journal_path)
        if journal.run_id != resume:
            raise RunFailed(
                f"journal belongs to {journal.run_id}, not {resume}"
            )
        if journal.run_id != run_id:
            raise RunFailed(
                f"run inputs changed: journal is {journal.run_id}, these "
                f"inputs fingerprint to {run_id}"
            )
    else:
        if resume is not None:
            raise RunFailed(f"nothing to resume in {run_dir}")
        journal = RunJournal.create(journal_path, run_id)
    if chaos is not None:
        journal.torn_writer = chaos.torn_write
    if journal.last("run-config") is None:
        journal.append(
            "run-config",
            shards=shards,
            mine_patterns=mine_patterns,
            options=options,
            workers=policy.workers,
        )

    tracer = (
        Tracer.open_or_create(run_dir / TRACE_NAME, run_id) if trace else None
    )
    if trace or profile:
        # The snapshot written at run end must cover exactly this run,
        # not whatever the process-global registry accumulated before.
        obs.reset_metrics()
    if profile:
        profiling.enable()
    try:
        with obs.observing(tracer):
            return _execute_supervised(
                zonedb=zonedb,
                whois=whois,
                journal=journal,
                run_dir=run_dir,
                journal_path=journal_path,
                checkpoint_dir=checkpoint_dir,
                run_id=run_id,
                shards=shards,
                mine_patterns=mine_patterns,
                policy=policy,
                chaos=chaos,
                dataset_path=dataset_path,
                whois_path=whois_path,
                resumed=resumed,
                tracer=tracer,
            )
    finally:
        if profile:
            profiling.disable()
        if tracer is not None:
            tracer.close()


def _execute_supervised(
    *,
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    journal: RunJournal,
    run_dir: Path,
    journal_path: Path,
    checkpoint_dir: Path,
    run_id: str,
    shards: int,
    mine_patterns: bool,
    policy: SupervisorPolicy,
    chaos: "ChaosMonkey | None",
    dataset_path: str | Path | None,
    whois_path: str | Path | None,
    resumed: bool,
    tracer: Tracer | None,
) -> SupervisedResult:
    """The journal-driven execution body of :func:`run_supervised_detection`.

    Runs with the caller's tracer (possibly None) installed as the
    active one; every span and event below no-ops when tracing is off.
    The outermost ``run`` span closes only when the run completes, so a
    kill anywhere inside leaves a start-without-end — the same shape the
    journal's crash windows have.
    """
    with obs.span("run", shards=shards) as run_span:
        complete_record = journal.run_complete
        if complete_record is not None:
            replayed = _load_completed_result(run_dir, complete_record.payload)
            if replayed is not None:
                run_span.set(
                    result_digest=str(complete_record.payload["result_digest"])
                )
                if tracer is not None:
                    _write_metrics_snapshot(run_dir)
                return SupervisedResult(
                    run_id=run_id,
                    result=replayed,
                    result_digest=str(
                        complete_record.payload["result_digest"]
                    ),
                    run_dir=run_dir,
                    journal_path=journal_path,
                    resumed=True,
                )

        pipeline = DetectionPipeline(
            zonedb, whois, mine_patterns=mine_patterns, shards=shards
        )
        done = _verified_completed_shards(
            journal, pipeline, checkpoint_dir, shards
        )
        todo = [index for index in range(shards) if index not in done]
        supervisor = RunSupervisor(policy)
        outcomes: dict[int, ShardOutcome] = {}

        def on_complete(index: int) -> None:
            shard = ShardSpec(index, shards)
            path = pipeline.shard_checkpoint_path(checkpoint_dir, shard)
            state = load_pipeline_state(path.read_bytes())
            _boundary(chaos, "supervisor", f"shard-complete:{index}")
            journal.append(
                "shard-complete",
                shard=index,
                state_digest=state_digest(state),
                checkpoint_sha256=file_sha256(path),
            )
            obs.counter("runner.shards_completed").inc()

        if todo:
            if policy.workers == 0:

                def execute(index: int) -> None:
                    shard = ShardSpec(index, shards)
                    path = pipeline.shard_checkpoint_path(
                        checkpoint_dir, shard
                    )
                    with obs.span(f"shard-{index}", shard=index) as shard_span:
                        state = _load_partial_state(
                            journal, pipeline, shard, path
                        )
                        _boundary(chaos, "supervisor", f"shard-start:{index}")
                        journal.append(
                            "shard-start",
                            shard=index,
                            resumed_stages=sorted(state["done"]),
                        )

                        def after_stage(stage: str, st: dict[str, Any]) -> None:
                            _boundary(chaos, "worker", f"shard-{index}:{stage}")
                            atomic_write_bytes(path, dump_pipeline_state(st))
                            _boundary(
                                chaos,
                                "supervisor",
                                f"stage-complete:{index}:{stage}",
                            )
                            journal.append(
                                "stage-complete",
                                shard=index,
                                stage=stage,
                                state_digest=state_digest(st),
                                checkpoint_sha256=file_sha256(path),
                            )

                        pipeline.run_shard_stages(
                            shard, state, after_stage=after_stage
                        )
                        shard_span.set(stages=sorted(state["done"]))

                outcomes = supervisor.run_inline(
                    todo, execute, on_complete=on_complete
                )
            else:
                if dataset_path is None:
                    raise RunFailed(
                        "process-pool execution needs dataset_path so workers "
                        "can reopen the dataset"
                    )
                chaos_seed = chaos.config.seed if chaos is not None else None
                kill_rate = (
                    chaos.config.kill_worker_rate if chaos is not None else 0.0
                )

                def spawn(index: int, attempt: int, heartbeats: Any) -> Any:
                    import multiprocessing

                    journal.append("shard-start", shard=index, attempt=attempt)
                    obs.trace_event(
                        "supervisor.spawn", shard=index, attempt=attempt
                    )
                    process = multiprocessing.get_context().Process(
                        target=_shard_worker,
                        args=(
                            index,
                            shards,
                            str(dataset_path),
                            str(whois_path) if whois_path else None,
                            str(checkpoint_dir),
                            mine_patterns,
                            heartbeats,
                            chaos_seed if attempt == 1 else None,
                            kill_rate,
                        ),
                    )
                    process.start()
                    return process

                outcomes = supervisor.run_processes(
                    todo, spawn, on_complete=on_complete
                )

        _boundary(chaos, "supervisor", "merge-start")
        journal.append("merge-start", shards=shards)
        with obs.span("merge", shards=shards):
            states = [
                load_pipeline_state(
                    pipeline.shard_checkpoint_path(
                        checkpoint_dir, ShardSpec(index, shards)
                    ).read_bytes()
                )
                for index in range(shards)
            ]
            result = pipeline.merge_shard_states(states)
        data = pickle.dumps(result)
        atomic_write_bytes(run_dir / RESULT_NAME, data)
        manifest = _write_result_manifest(run_dir, run_id, data, result)
        _boundary(chaos, "supervisor", "run-complete")
        journal.append(
            "run-complete",
            run_id=run_id,
            result_sha256=manifest["result_sha256"],
            result_digest=manifest["result_digest"],
        )
        run_span.set(result_digest=str(manifest["result_digest"]))
        if tracer is not None:
            _write_metrics_snapshot(run_dir)
        return SupervisedResult(
            run_id=run_id,
            result=result,
            result_digest=str(manifest["result_digest"]),
            run_dir=run_dir,
            journal_path=journal_path,
            resumed=resumed,
            outcomes=outcomes,
        )


# -- the incremental run -----------------------------------------------------


@dataclass
class IncrementalRunResult:
    """What an incremental run produced, plus how far it advanced."""

    run_id: str
    result: PipelineResult
    result_digest: str
    run_dir: Path
    journal_path: Path
    #: The engine watermark after draining (last folded batch day).
    watermark: int | None
    #: Day batches folded by *this* invocation (0 when already current).
    days_advanced: int = 0
    #: Delta events applied by this invocation.
    deltas_applied: int = 0
    resumed: bool = False
    #: The watermark adopted from the durable checkpoint on resume.
    restored_watermark: int | None = None


def _note_engine_reset(reason: str) -> None:
    """Mirror a journaled engine-reset into metrics and the trace."""
    obs.counter("runner.engine_resets").inc()
    obs.trace_event("runner.engine-reset", reason=reason)


def _restore_engine(
    journal: RunJournal,
    engine: IncrementalDetectionEngine,
    zonedb: "ZoneDatabase",
    path: Path,
) -> int | None:
    """Adopt the durable engine checkpoint, reconciled with the journal.

    The checkpoint is written before its ``day-advanced`` record, so it
    is the source of truth and the journal is cross-checked against it:

    * checkpoint ahead of the journal (crash in the append window) —
      journal the day the checkpoint proves folded (``reconciled``);
    * checkpoint behind the journal, unreadable, or missing while the
      journal claims days, or hashing differently from what the journal
      recorded for the same day — the durable artifact is gone or
      lying; quarantine it, journal an ``engine-reset``, and refold the
      whole stream (advancing is deterministic, so redoing is safe).

    Returns the restored watermark (None when starting from scratch).
    The checkpoint is read and parsed once; its bytes are hashed in
    memory. The engine is only mutated once the checkpoint has fully
    verified, so every reset path leaves it fresh.
    """
    journaled_day: int | None = None
    journaled_sha: str | None = None
    newest = journal.last_day_advanced()
    if newest is not None:
        journaled_day = int(newest.payload["day"])
        journaled_sha = newest.payload.get("checkpoint_sha256")
    if not path.exists():
        if journaled_day is not None:
            journal.append("engine-reset", reason="checkpoint-missing")
            _note_engine_reset("checkpoint-missing")
        return None
    try:
        data = path.read_bytes()
        state = load_engine_state(data)
        watermark = state["watermarks"].get(ENGINE_WATERMARK)
    except Exception:
        quarantine(path)
        journal.append("engine-reset", reason="checkpoint-unreadable")
        _note_engine_reset("checkpoint-unreadable")
        return None
    sha = hashlib.sha256(data).hexdigest()
    if journaled_day is not None:
        if watermark is None or watermark < journaled_day:
            quarantine(path)
            journal.append("engine-reset", reason="checkpoint-behind-journal")
            _note_engine_reset("checkpoint-behind-journal")
            return None
        if watermark == journaled_day and sha != journaled_sha:
            quarantine(path)
            journal.append("engine-reset", reason="checkpoint-mismatch")
            _note_engine_reset("checkpoint-mismatch")
            return None
    elif watermark is None:
        return None
    engine.restore(zonedb, state)
    if journaled_day is None or watermark > journaled_day:
        journal.append(
            "day-advanced",
            day=watermark,
            checkpoint_sha256=sha,
            reconciled=True,
        )
    return watermark


def run_incremental_detection(
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    *,
    run_dir: str | Path,
    until: int | None = None,
    backend: str = "memory",
    mine_patterns: bool = True,
    options: dict[str, Any] | None = None,
    chaos: "ChaosMonkey | None" = None,
    resume: str | None = None,
    consumer: str | None = None,
    trace: bool = False,
    profile: bool = False,
) -> IncrementalRunResult:
    """Advance an incremental detection run to the end of the delta stream.

    Instead of re-running the batch pipeline, an
    :class:`~repro.detection.incremental.IncrementalDetectionEngine`
    folds every recorded day batch past its watermark into standing
    state, journaled per day::

        fold day  →  atomic engine checkpoint  →  journal day-advanced

    so a crash anywhere resumes at the last durable day, never earlier
    (and never refolds a day twice). The run directory holds one
    engine checkpoint (``checkpoints/engine-state.pkl``) that always
    describes the journal's newest ``day-advanced`` record — the same
    checkpoint-ahead reconciliation the batch runner uses.

    Unlike a batch run, an incremental run is durable *across*
    invocations: call again (with ``resume=<run-id>``) after the source
    dataset grows and exactly the new days are folded. ``until`` caps
    the horizon without entering the run fingerprint, so one standing
    run can advance day by day. With ``consumer`` set, the source
    store's per-consumer watermark is committed after each durable day.

    The produced result is bit-identical (same result digest) to a
    fresh batch run over the same history — that invariant is what the
    ``incremental-equivalence`` CI job asserts on both backends.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    journal_path = run_dir / JOURNAL_NAME
    checkpoint_dir = run_dir / CHECKPOINT_DIR_NAME
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = checkpoint_dir / ENGINE_CHECKPOINT_NAME
    options = dict(options or {})
    run_id = compute_run_id(
        {
            "scenario_digest": zonedb.store.get_meta(SCENARIO_DIGEST_KEY),
            "mode": "incremental",
            "backend": backend,
            "mine_patterns": mine_patterns,
            "options": options,
        }
    )

    resumed = journal_path.exists()
    if resumed:
        if resume is None:
            raise RunFailed(
                f"{run_dir} already holds a journal; pass resume=<run-id> "
                "(or point at a fresh run directory)"
            )
        journal = RunJournal.open(journal_path)
        if journal.run_id != resume:
            raise RunFailed(
                f"journal belongs to {journal.run_id}, not {resume}"
            )
        if journal.run_id != run_id:
            raise RunFailed(
                f"run inputs changed: journal is {journal.run_id}, these "
                f"inputs fingerprint to {run_id}"
            )
    else:
        if resume is not None:
            raise RunFailed(f"nothing to resume in {run_dir}")
        journal = RunJournal.create(journal_path, run_id)
    if chaos is not None:
        journal.torn_writer = chaos.torn_write
    if journal.last("run-config") is None:
        journal.append(
            "run-config",
            mode="incremental",
            backend=backend,
            mine_patterns=mine_patterns,
            options=options,
        )

    tracer = (
        Tracer.open_or_create(run_dir / TRACE_NAME, run_id) if trace else None
    )
    if trace or profile:
        obs.reset_metrics()
    if profile:
        profiling.enable()
    try:
        with obs.observing(tracer):
            return _execute_incremental(
                zonedb=zonedb,
                whois=whois,
                journal=journal,
                run_dir=run_dir,
                journal_path=journal_path,
                checkpoint_path=checkpoint_path,
                run_id=run_id,
                until=until,
                backend=backend,
                mine_patterns=mine_patterns,
                chaos=chaos,
                consumer=consumer,
                resumed=resumed,
                tracer=tracer,
            )
    finally:
        if profile:
            profiling.disable()
        if tracer is not None:
            tracer.close()


def _execute_incremental(
    *,
    zonedb: "ZoneDatabase",
    whois: "WhoisArchive",
    journal: RunJournal,
    run_dir: Path,
    journal_path: Path,
    checkpoint_path: Path,
    run_id: str,
    until: int | None,
    backend: str,
    mine_patterns: bool,
    chaos: "ChaosMonkey | None",
    consumer: str | None,
    resumed: bool,
    tracer: Tracer | None,
) -> IncrementalRunResult:
    """The journal-driven drain loop of :func:`run_incremental_detection`."""
    with obs.span("run", mode="incremental") as run_span:
        store_path: Path | None = None
        if backend == "sqlite":
            # The private store is rebuilt by deterministic replay; only
            # the engine-state checkpoint is a durable artifact. A stale
            # store from an earlier invocation must not be replayed into.
            store_path = run_dir / ENGINE_STORE_NAME
            for leftover in (
                store_path,
                store_path.with_name(store_path.name + "-wal"),
                store_path.with_name(store_path.name + "-shm"),
            ):
                leftover.unlink(missing_ok=True)
        engine = IncrementalDetectionEngine(
            whois,
            backend=backend,
            store_path=store_path,
            mine_patterns=mine_patterns,
        )
        restored = (
            _restore_engine(journal, engine, zonedb, checkpoint_path)
            if resumed
            else None
        )
        days = 0
        deltas = 0
        # The source-side watermark is shared by consumer *name*, so a
        # fresh run directory refolding already-consumed days must not
        # drag it backwards — only ever advance it.
        source_mark = (
            zonedb.watermark(consumer) if consumer is not None else None
        )
        view = DeltaView(zonedb, since=engine.watermark, until=until)
        for batch_day, events in view.batches():
            applied = engine.advance(batch_day, events)
            _boundary(chaos, "worker", f"day:{batch_day}")
            checkpoint = dump_engine_state(engine)
            atomic_write_bytes(checkpoint_path, checkpoint)
            _boundary(chaos, "supervisor", f"day-advanced:{batch_day}")
            journal.append(
                "day-advanced",
                day=batch_day,
                deltas_applied=applied,
                checkpoint_sha256=hashlib.sha256(checkpoint).hexdigest(),
            )
            if consumer is not None and (
                source_mark is None or batch_day > source_mark
            ):
                zonedb.commit_watermark(consumer, batch_day)
                source_mark = batch_day
            days += 1
            deltas += applied
        if days == 0:
            complete = journal.run_complete
            if (
                complete is not None
                and complete.payload.get("watermark") == engine.watermark
            ):
                replayed = _load_completed_result(run_dir, complete.payload)
                if replayed is not None:
                    digest = str(complete.payload["result_digest"])
                    run_span.set(result_digest=digest, days=0)
                    if tracer is not None:
                        _write_metrics_snapshot(run_dir)
                    return IncrementalRunResult(
                        run_id=run_id,
                        result=replayed,
                        result_digest=digest,
                        run_dir=run_dir,
                        journal_path=journal_path,
                        watermark=engine.watermark,
                        resumed=True,
                        restored_watermark=restored,
                    )
        result = engine.result()
        data = pickle.dumps(result)
        atomic_write_bytes(run_dir / RESULT_NAME, data)
        manifest = _write_result_manifest(run_dir, run_id, data, result)
        _boundary(chaos, "supervisor", "run-complete")
        journal.append(
            "run-complete",
            run_id=run_id,
            watermark=engine.watermark,
            days_advanced=days,
            result_sha256=manifest["result_sha256"],
            result_digest=manifest["result_digest"],
        )
        run_span.set(
            result_digest=str(manifest["result_digest"]), days=days
        )
        if tracer is not None:
            _write_metrics_snapshot(run_dir)
        return IncrementalRunResult(
            run_id=run_id,
            result=result,
            result_digest=str(manifest["result_digest"]),
            run_dir=run_dir,
            journal_path=journal_path,
            watermark=engine.watermark,
            days_advanced=days,
            deltas_applied=deltas,
            resumed=resumed,
            restored_watermark=restored,
        )

"""The incremental detection engine: batch-identical daily updates.

The contract under test: after advancing through batch day N, the
engine's :meth:`~repro.detection.incremental.IncrementalDetectionEngine.result`
is bit-identical (same result digest) to a fresh batch pipeline run over
a zone database rebuilt through day N — on both engine store backends,
across serialize/restore, and through the journaled incremental runner
with its crash-recovery paths.
"""

from __future__ import annotations

import pickle

import pytest

from repro.detection.incremental import (
    ENGINE_STATE_FORMAT,
    ENGINE_WATERMARK,
    IncrementalDetectionEngine,
    commit_watermark,
    dump_engine_state,
    load_engine_state,
    new_engine_state,
)
from repro.detection.pipeline import MINE_MIN_SUPPORT, DetectionPipeline
from repro.detection.substrings import SubstringCounter
from repro.runner.execution import (
    result_digest,
    run_incremental_detection,
)
from repro.runner.journal import RunJournal
from repro.runner.supervisor import RunFailed
from repro.store.dataset import DeltaView
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

SCALE = 0.05
SEED = 2021


@pytest.fixture(scope="module")
def world():
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.world import World

    return World(default_scenario(SEED).scaled(SCALE)).run()


@pytest.fixture(scope="module")
def batch_digest(world):
    result = DetectionPipeline(world.zonedb, world.whois).run()
    return result_digest(result)


def _drained_engine(world, **kwargs) -> IncrementalDetectionEngine:
    engine = IncrementalDetectionEngine(world.whois, **kwargs)
    engine.advance_from(world.zonedb)
    return engine


def _mini_inputs() -> tuple[ZoneDatabase, WhoisArchive]:
    """A tiny hand-built history: a few days, every delta kind."""
    zonedb = ZoneDatabase()
    zonedb.cover("biz")
    zonedb.set_delegation(1, "alpha.biz", ["ns1.alpha.biz"])
    zonedb.set_glue(1, "ns1.alpha.biz")
    zonedb.set_delegation(2, "beta.biz", ["ns1.alpha.biz"])
    zonedb.set_delegation(3, "alpha.biz", ["dropme99.gamma.biz"])
    zonedb.remove_glue(3, "ns1.alpha.biz")
    zonedb.set_delegation(5, "beta.biz", ["ns2.delta.biz"])
    zonedb.remove_delegation(6, "alpha.biz")
    return zonedb, WhoisArchive()


class TestEngineEquivalence:
    def test_memory_backend_matches_batch(self, world, batch_digest):
        engine = _drained_engine(world)
        assert result_digest(engine.result()) == batch_digest

    def test_sqlite_backend_matches_batch(self, world, batch_digest, tmp_path):
        engine = _drained_engine(
            world, backend="sqlite", store_path=tmp_path / "engine.sqlite"
        )
        assert result_digest(engine.result()) == batch_digest

    def test_partial_then_continued_advance_matches_batch(
        self, world, batch_digest
    ):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        engine = IncrementalDetectionEngine(world.whois)
        days_first = engine.advance_from(world.zonedb, until=midpoint)
        assert engine.watermark == midpoint
        days_rest = engine.advance_from(world.zonedb)
        assert days_first > 0 and days_rest > 0
        assert result_digest(engine.result()) == batch_digest

    def test_every_prefix_matches_batch_on_mini_history(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        for batch_day, events in DeltaView(zonedb).batches():
            engine.advance(batch_day, events)
            replica = ZoneDatabase()
            for day, event in zonedb.deltas_since(None):
                if day <= batch_day:
                    replica.apply_delta(event)
            batch = DetectionPipeline(replica, whois).run()
            assert result_digest(engine.result()) == result_digest(batch), (
                f"prefix through day {batch_day} diverged"
            )


class TestWatermarkGuards:
    def test_advance_rejects_non_increasing_batch_day(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        batches = DeltaView(zonedb).batches()
        engine.advance(*batches[1])
        with pytest.raises(ValueError, match="already advanced"):
            engine.advance(*batches[1])
        with pytest.raises(ValueError, match="already advanced"):
            engine.advance(*batches[0])

    def test_commit_watermark_never_moves_backwards(self):
        state = new_engine_state()
        commit_watermark(state, ENGINE_WATERMARK, 5)
        commit_watermark(state, ENGINE_WATERMARK, 5)
        with pytest.raises(ValueError, match="cannot move backwards"):
            commit_watermark(state, ENGINE_WATERMARK, 4)

    def test_advance_from_commits_source_consumer_watermark(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        engine.advance_from(zonedb, consumer="incremental-engine")
        assert zonedb.watermark("incremental-engine") == engine.watermark


class TestSerialization:
    def test_dump_restore_round_trip_matches(self, world, batch_digest):
        data = dump_engine_state(_drained_engine(world))
        fresh = IncrementalDetectionEngine(world.whois)
        watermark = fresh.restore(world.zonedb, load_engine_state(data))
        assert watermark == DeltaView(world.zonedb).last_batch_day()
        assert fresh.watermark == watermark
        assert result_digest(fresh.result()) == batch_digest

    def test_dump_is_deterministic(self):
        zonedb, whois = _mini_inputs()
        first = IncrementalDetectionEngine(whois)
        first.advance_from(zonedb)
        second = IncrementalDetectionEngine(whois)
        second.advance_from(zonedb)
        assert dump_engine_state(first) == dump_engine_state(second)

    def test_restore_requires_fresh_engine(self):
        zonedb, whois = _mini_inputs()
        engine = IncrementalDetectionEngine(whois)
        engine.advance_from(zonedb)
        with pytest.raises(ValueError, match="fresh engine"):
            engine.restore(zonedb, load_engine_state(dump_engine_state(engine)))

    def test_load_rejects_foreign_payloads(self):
        with pytest.raises(ValueError, match="not an engine state"):
            load_engine_state(pickle.dumps({"format": "something-else/1"}))

    def test_restored_engine_continues_advancing(self):
        zonedb, whois = _mini_inputs()
        batches = DeltaView(zonedb).batches()
        partial = IncrementalDetectionEngine(whois)
        for batch_day, events in batches[:-2]:
            partial.advance(batch_day, events)
        fresh = IncrementalDetectionEngine(whois)
        fresh.restore(zonedb, load_engine_state(dump_engine_state(partial)))
        fresh.advance_from(zonedb)
        batch = DetectionPipeline(zonedb, whois).run()
        assert result_digest(fresh.result()) == result_digest(batch)


class TestMinerCheckpoint:
    """The miner's substring counts are rebuilt on load, not stored."""

    def test_counter_restores_exactly(self, world):
        engine = _drained_engine(world)
        data = dump_engine_state(engine)
        payload = pickle.loads(data)
        assert payload["format"] == ENGINE_STATE_FORMAT
        assert payload["mine_names"]
        assert "mine_counts" not in payload
        original = engine.state["mine_counter"]
        restored = load_engine_state(data)["mine_counter"]
        # Compared as plain dicts: Counter equality would treat a stored
        # zero count as absent.
        assert dict(restored.counts) == dict(original.counts)
        assert dict(restored.names) == dict(original.names)
        assert (restored.min_length, restored.max_length) == (
            original.min_length,
            original.max_length,
        )
        # The result digest only sees patterns at or above the support
        # threshold; the counts below it must survive too.
        assert any(n < MINE_MIN_SUPPORT for n in original.counts.values())

    def test_restored_engine_keeps_folding_like_an_unserialized_one(
        self, world, batch_digest
    ):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        straight = _drained_engine_until(world, midpoint)
        restored = IncrementalDetectionEngine(world.whois)
        restored.restore(
            world.zonedb, load_engine_state(dump_engine_state(straight))
        )
        straight.advance_from(world.zonedb)
        restored.advance_from(world.zonedb)
        assert result_digest(restored.result()) == batch_digest
        ours = restored.state["mine_counter"]
        theirs = straight.state["mine_counter"]
        for counter in (ours, theirs):
            for name in sorted(counter.names)[:3]:
                counter.discard(name)
            counter.add("ns1.pleasedropthishost1234.biz")
            counter.add("ns2.pleasedropthishost1234.biz")
        assert dict(ours.counts) == dict(theirs.counts)
        assert dict(ours.names) == dict(theirs.names)
        assert ours.select(min_support=1) == theirs.select(min_support=1)


class TestIncrementalRunner:
    def test_fresh_run_matches_batch(self, world, batch_digest, tmp_path):
        outcome = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        assert outcome.result_digest == batch_digest
        assert outcome.days_advanced > 0
        assert not outcome.resumed
        assert outcome.watermark == DeltaView(world.zonedb).last_batch_day()

    def test_sqlite_engine_backend_matches_batch(
        self, world, batch_digest, tmp_path
    ):
        outcome = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run",
            backend="sqlite",
        )
        assert outcome.result_digest == batch_digest

    def test_resume_folds_exactly_the_new_days(self, world, batch_digest, tmp_path):
        view = DeltaView(world.zonedb)
        total = len(view.batches())
        midpoint = view.batches()[total // 2][0]
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run", until=midpoint
        )
        assert first.watermark == midpoint
        second = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run",
            resume=first.run_id,
        )
        assert second.resumed
        assert second.restored_watermark == midpoint
        assert second.days_advanced == total - (total // 2 + 1)
        assert second.result_digest == batch_digest

    def test_current_run_replays_recorded_result(self, world, tmp_path):
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        replay = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run",
            resume=first.run_id,
        )
        assert replay.resumed
        assert replay.days_advanced == 0
        assert replay.result_digest == first.result_digest

    def test_existing_journal_requires_resume(self, world, tmp_path):
        run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        with pytest.raises(RunFailed, match="already holds a journal"):
            run_incremental_detection(
                world.zonedb, world.whois, run_dir=tmp_path / "run"
            )

    def test_resume_detects_changed_inputs(self, world, tmp_path):
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=tmp_path / "run"
        )
        with pytest.raises(RunFailed, match="run inputs changed"):
            run_incremental_detection(
                world.zonedb, world.whois, run_dir=tmp_path / "run",
                mine_patterns=False, resume=first.run_id,
            )

    def _journaled_resets(self, run_dir):
        journal = RunJournal.open(run_dir / "journal.jsonl")
        return [r.payload["reason"] for r in journal.events("engine-reset")]

    def test_corrupt_checkpoint_resets_and_refolds(self, world, tmp_path):
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir
        )
        checkpoint = run_dir / "checkpoints" / "engine-state.pkl"
        checkpoint.write_bytes(b"garbage")
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert again.restored_watermark is None
        assert again.days_advanced > 0  # full deterministic refold
        assert again.result_digest == first.result_digest
        assert self._journaled_resets(run_dir) == ["checkpoint-unreadable"]

    def test_missing_checkpoint_resets_and_refolds(self, world, tmp_path):
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir
        )
        (run_dir / "checkpoints" / "engine-state.pkl").unlink()
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert again.result_digest == first.result_digest
        assert self._journaled_resets(run_dir) == ["checkpoint-missing"]

    def test_format_1_checkpoint_is_quarantined_and_refolded(
        self, world, tmp_path
    ):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, until=midpoint
        )
        # Rewrite the checkpoint the way the /1 format stored it: the
        # same state plus every (substring, support) pair.
        checkpoint = run_dir / "checkpoints" / "engine-state.pkl"
        payload = pickle.loads(checkpoint.read_bytes())
        counter = SubstringCounter()
        for name, multiplicity in payload["mine_names"]:
            for _ in range(multiplicity):
                counter.add(name)
        payload["format"] = "riskybiz-engine-state/1"
        payload["mine_counts"] = sorted(counter.counts.items())
        checkpoint.write_bytes(pickle.dumps(payload))
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert self._journaled_resets(run_dir) == ["checkpoint-unreadable"]
        assert (checkpoint.parent / "engine-state.pkl.corrupt").exists()
        assert again.restored_watermark is None
        batch = DetectionPipeline(
            world.zonedb, world.whois, mine_patterns=True
        ).run()
        assert again.result_digest == result_digest(batch)
        assert load_engine_state(checkpoint.read_bytes())["watermarks"][
            ENGINE_WATERMARK
        ] == view.last_batch_day()

    def test_stale_checkpoint_behind_journal_resets(self, world, tmp_path):
        view = DeltaView(world.zonedb)
        midpoint = view.batches()[len(view.batches()) // 2][0]
        run_dir = tmp_path / "run"
        first = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, until=midpoint
        )
        checkpoint = run_dir / "checkpoints" / "engine-state.pkl"
        stale = dump_engine_state(_drained_engine_until(world, view.batches()[0][0]))
        checkpoint.write_bytes(stale)
        again = run_incremental_detection(
            world.zonedb, world.whois, run_dir=run_dir, resume=first.run_id
        )
        assert self._journaled_resets(run_dir) == ["checkpoint-behind-journal"]
        batch = DetectionPipeline(world.zonedb, world.whois).run()
        assert again.result_digest == result_digest(batch)

    def test_source_consumer_watermark_only_advances(self, world, tmp_path):
        zonedb, whois = _mini_inputs()
        last = DeltaView(zonedb).last_batch_day()
        run_incremental_detection(
            zonedb, whois, run_dir=tmp_path / "one", consumer="incremental-engine"
        )
        assert zonedb.watermark("incremental-engine") == last
        # A second run directory refolds the same days; the shared
        # dataset-side watermark must not be dragged backwards.
        run_incremental_detection(
            zonedb, whois, run_dir=tmp_path / "two", consumer="incremental-engine"
        )
        assert zonedb.watermark("incremental-engine") == last


def _drained_engine_until(world, until: int) -> IncrementalDetectionEngine:
    engine = IncrementalDetectionEngine(world.whois)
    engine.advance_from(world.zonedb, until=until)
    return engine

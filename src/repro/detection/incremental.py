"""Incremental detection: streaming stage operators over the delta log.

The batch :class:`~repro.detection.pipeline.DetectionPipeline` recomputes
every stage from scratch on each run. This module decomposes those
stages into :class:`IncrementalStage` operators — each with explicit,
serializable standing state and a per-stage watermark — and folds one
day's recorded :class:`~repro.store.changelog.DeltaEvent` batch into
that state via :class:`IncrementalDetectionEngine`.

The contract is *batch-identical daily updates*: after advancing through
batch day N, :meth:`IncrementalDetectionEngine.result` is bit-identical
(same :func:`~repro.runner.execution.result_fingerprint`) to a fresh
batch run over a zone database rebuilt through day N. Two properties
make this cheap to guarantee:

* the engine owns its **own** zone database, grown by replaying the
  delta stream through the exact store primitives that produced it —
  so per-day evaluation always sees the day-N store, bit for bit;
* every stage verdict for a nameserver is a pure function of store
  state reachable from that nameserver, so one conservative *dirty set*
  per day batch (derived below) bounds what must be re-evaluated.

Dirty-set derivation, per event kind:

* delegation add/remove on ``(domain, ns)`` — dirties ``ns`` (its
  first-seen day, referencing domains, repository spread and candidate
  verdict can change) and every nameserver that ever had a record on
  ``domain`` (their ``nameservers_removed_on`` joins run through it);
* glue add/remove on ``host`` — dirties ``host`` (resolvability);
* domain appear/expire on ``domain`` — dirties every known nameserver
  whose registered domain is ``domain`` (resolvability and collision
  checks read its presence);
* tld-cover on ``tld`` — dirties every known nameserver under ``tld``
  (coverage flips resolvability verdicts from unknown to assessable).

Shared evaluator logic (collision checks, pattern/match classification)
lives in :class:`StageContext`, which both the batch pipeline and the
engine consume — one code path, two schedules.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.dnscore.names import Name
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.detection.candidates import CandidateNameserver, build_candidate_set
from repro.detection.idioms import (
    IdiomClass,
    IdiomClassifier,
    classify_match,
    known_classifiers,
)
from repro.detection.matching import MatchResult, OriginalNameserverMatcher
from repro.detection.pipeline import (
    MINE_MIN_SUPPORT,
    CoverageAnnotations,
    PipelineFunnel,
    PipelineResult,
    SacrificialNameserver,
)
from repro.detection.repository_check import RepositoryMap, SingleRepositoryFilter
from repro.detection.resolvability import ResolvabilityAnalyzer
from repro.detection.substrings import (
    SubstringCounter,
    _select_patterns,
    mine_substrings_cached,
)
from repro.detection.testns import TestNameserverFilter
from repro.obs import runtime as obs
from repro.store.changelog import (
    DELEGATION_ADD,
    DELEGATION_REMOVE,
    DOMAIN_APPEAR,
    DOMAIN_EXPIRE,
    GLUE_ADD,
    GLUE_REMOVE,
    TLD_COVER,
    DeltaEvent,
)
from repro.store.dataset import DatasetView, DeltaView
from repro.store.memory import MemoryDelegationStore
from repro.whois.archive import WhoisArchive
from repro.zonedb.database import ZoneDatabase

if TYPE_CHECKING:
    from pathlib import Path

    from repro.store.dataset import DatasetView as _DatasetView  # noqa: F401

#: Format tag carried by serialized engine state.
ENGINE_STATE_FORMAT = "riskybiz-engine-state/2"

#: Watermark key for the engine as a whole (stages use their own names).
ENGINE_WATERMARK = "engine"

_EMPTY: frozenset[str] = frozenset()


def commit_watermark(state: dict[str, Any], stage: str, day: int) -> None:
    """Commit a stage (or engine) watermark — the *only* sanctioned write.

    Watermarks are the durability contract of the incremental plane: a
    consumer that has committed day N promises its standing state folds
    every batch through N. They never move backwards, and every update
    must come through here (lint rule ``DET013`` flags state mutations
    that bypass this path).
    """
    current = state["watermarks"].get(stage)
    if current is not None and day < current:
        raise ValueError(
            f"watermark for {stage!r} cannot move backwards: {day} < {current}"
        )
    state["watermarks"][stage] = day


@dataclass(frozen=True)
class StageContext:
    """Everything a stage evaluator needs, batch or incremental.

    The classification helpers used to live on ``DetectionPipeline``;
    they moved here so the incremental engine evaluates dirty
    nameservers through exactly the code the batch stages run.
    """

    zonedb: ZoneDatabase
    whois: WhoisArchive
    psl: PublicSuffixList
    classifiers: list[IdiomClassifier]
    test_filter: TestNameserverFilter
    repo_filter: SingleRepositoryFilter
    matcher: OriginalNameserverMatcher
    analyzer: ResolvabilityAnalyzer
    mine_patterns: bool = True

    @classmethod
    def build(
        cls,
        zonedb: ZoneDatabase,
        whois: WhoisArchive,
        *,
        psl: PublicSuffixList | None = None,
        classifiers: list[IdiomClassifier] | None = None,
        test_filter: TestNameserverFilter | None = None,
        repo_map: RepositoryMap | None = None,
        mine_patterns: bool = True,
    ) -> "StageContext":
        psl = psl or default_psl()
        return cls(
            zonedb=zonedb,
            whois=whois,
            psl=psl,
            classifiers=classifiers or known_classifiers(),
            test_filter=test_filter or TestNameserverFilter(),
            repo_filter=SingleRepositoryFilter(zonedb, repo_map or RepositoryMap()),
            matcher=OriginalNameserverMatcher(zonedb, whois, psl=psl),
            analyzer=ResolvabilityAnalyzer(zonedb, psl=psl),
            mine_patterns=mine_patterns,
        )

    def was_registered_before(self, registered_domain: str, day: int) -> bool:
        """Collision check: did the domain exist before the rename?"""
        record = self.whois.current(registered_domain, day)
        if record is not None and record.created < day:
            return True
        return self.zonedb.domain_present(registered_domain, max(0, day - 1))

    def classify_pattern(
        self, name: str, classifier: IdiomClassifier
    ) -> SacrificialNameserver:
        """A sacrificial-nameserver entry for one pattern classifier hit."""
        first_seen = self.zonedb.first_seen(name) or 0
        registered = self.psl.registered_domain(name)
        collision = False
        if classifier.klass is IdiomClass.RANDOM and registered is not None:
            collision = self.was_registered_before(registered, first_seen)
        return SacrificialNameserver(
            name=name,
            created_day=first_seen,
            idiom_id=classifier.idiom_id,
            hijackable=classifier.hijackable,
            registrar=classifier.registrar_hint,
            registered_domain=registered,
            source="pattern",
            collision=collision,
        )

    def classify_match(self, match: MatchResult) -> SacrificialNameserver | None:
        """A sacrificial-nameserver entry for one history match, if idiomatic."""
        idiom_id = classify_match(match)
        if idiom_id is None:
            return None
        registered = self.psl.registered_domain(match.candidate)
        collision = False
        if registered is not None:
            collision = self.was_registered_before(registered, match.first_seen)
        return SacrificialNameserver(
            name=match.candidate,
            created_day=match.first_seen,
            idiom_id=idiom_id,
            hijackable=True,
            registrar=match.registrar,
            registered_domain=registered,
            source="match",
            original_ns=match.original_ns,
            original_domain=match.original_domain,
            collision=collision,
        )


@dataclass
class AdvanceNotes:
    """Per-batch scratchpad threaded through the stage operators.

    ``dirty`` is the conservative re-evaluation set for the batch;
    the candidates operator records which verdicts appeared/disappeared
    so downstream operators (miner, test filter) adjust incrementally
    instead of re-deriving the change themselves.
    """

    batch_day: int
    events: tuple[DeltaEvent, ...]
    dirty: tuple[str, ...]
    candidates_added: list[str] = field(default_factory=list)
    candidates_removed: list[str] = field(default_factory=list)


class IncrementalStage:
    """One detection stage, runnable batch-wise or delta-wise.

    ``run_batch`` is the stage body the batch pipeline executes (the old
    ``_stage_*`` methods); ``advance`` folds one day batch into the
    stage's standing keys in the engine state. Each stage carries its
    own watermark in ``state["watermarks"]``, committed through
    :func:`commit_watermark` after a successful advance.
    """

    name = ""

    def init_state(self, state: dict[str, Any]) -> None:
        """Install this stage's standing keys into a fresh engine state."""

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        raise NotImplementedError

    def advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        watermark = state["watermarks"].get(self.name)
        if watermark is not None and notes.batch_day <= watermark:
            raise ValueError(
                f"stage {self.name!r} already advanced through "
                f"{watermark}; got batch day {notes.batch_day}"
            )
        self._advance(context, state, notes)
        commit_watermark(state, self.name, notes.batch_day)

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        raise NotImplementedError


class CandidatesStage(IncrementalStage):
    """§3.2.1: unresolvable-at-first-reference candidate verdicts."""

    name = "candidates"

    def init_state(self, state: dict[str, Any]) -> None:
        state["candidates"] = {}

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        funnel = state["funnel"]
        funnel.total_nameservers = view.nameserver_count()
        candidates = build_candidate_set(
            view.zonedb, context.analyzer, nameservers=view.nameservers()
        )
        funnel.candidates = len(candidates)
        state["candidates"] = candidates

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        verdicts: dict[str, CandidateNameserver] = state["candidates"]
        for ns in notes.dirty:
            fresh = build_candidate_set(
                context.zonedb, context.analyzer, nameservers=[ns]
            )
            new = fresh[0] if fresh else None
            old = verdicts.get(ns)
            if new is None:
                if old is not None:
                    del verdicts[ns]
                    notes.candidates_removed.append(ns)
            else:
                verdicts[ns] = new
                if old is None:
                    notes.candidates_added.append(ns)


class MineStage(IncrementalStage):
    """§3.2.2: frequent-substring mining over the candidate names."""

    name = "mine"

    def init_state(self, state: dict[str, Any]) -> None:
        state["mine_counter"] = SubstringCounter()

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        mined: list[Any] = []
        if context.mine_patterns:
            mined = mine_substrings_cached(
                (c.name for c in state["candidates"]),
                min_support=MINE_MIN_SUPPORT,
            )
        state["mined"] = mined

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        if not context.mine_patterns:
            return
        counter: SubstringCounter = state["mine_counter"]
        for name in notes.candidates_removed:
            counter.discard(name)
        for name in notes.candidates_added:
            counter.add(name)


class TestFilterStage(IncrementalStage):
    """§3.2.2: drop registry test nameservers from the candidate set."""

    name = "test-filter"

    def init_state(self, state: dict[str, Any]) -> None:
        state["test_removed"] = set()

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        candidates, test_removed = context.test_filter.partition(
            state["candidates"]
        )
        state["funnel"].test_removed = len(test_removed)
        state["candidates"] = candidates

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        removed: set[str] = state["test_removed"]
        for name in notes.candidates_removed:
            removed.discard(name)
        for name in notes.candidates_added:
            if context.test_filter.is_test_nameserver(name):
                removed.add(name)


class PatternSweepStage(IncrementalStage):
    """§3.2.2: confirmed-pattern sweep over the nameserver population."""

    name = "pattern-sweep"

    def init_state(self, state: dict[str, Any]) -> None:
        state["pattern"] = {}

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        sacrificial: dict[str, SacrificialNameserver] = {}
        for name in view.nameservers():
            if context.test_filter.is_test_nameserver(name):
                continue
            for classifier in context.classifiers:
                if classifier.matches_name(name):
                    sacrificial[name] = context.classify_pattern(name, classifier)
                    break
        state["funnel"].pattern_classified = len(sacrificial)
        state["sacrificial"] = sacrificial

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        entries: dict[str, SacrificialNameserver] = state["pattern"]
        for ns in notes.dirty:
            if (
                context.zonedb.first_seen(ns) is None
                or context.test_filter.is_test_nameserver(ns)
            ):
                entries.pop(ns, None)
                continue
            entry: SacrificialNameserver | None = None
            for classifier in context.classifiers:
                if classifier.matches_name(ns):
                    entry = context.classify_pattern(ns, classifier)
                    break
            if entry is None:
                entries.pop(ns, None)
            else:
                entries[ns] = entry


class SingleRepoStage(IncrementalStage):
    """§3.2.3: the single-repository property filter."""

    name = "single-repo"

    def init_state(self, state: dict[str, Any]) -> None:
        state["single_repo"] = set()

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        remaining = [
            c for c in state["candidates"] if c.name not in state["sacrificial"]
        ]
        remaining, eliminated = context.repo_filter.partition(remaining)
        state["funnel"].single_repo_removed = len(eliminated)
        state["remaining"] = remaining

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        # The verdict is a pure predicate of (candidate, zonedb), so it
        # is evaluated for every dirty candidate regardless of pattern
        # membership; the result fold applies the batch ordering rules.
        violations: set[str] = state["single_repo"]
        for ns in notes.dirty:
            candidate = state["candidates"].get(ns)
            if candidate is not None and context.repo_filter.violates(candidate):
                violations.add(ns)
            else:
                violations.discard(ns)


class MatchStage(IncrementalStage):
    """§3.2.3: original-nameserver history matching + classification."""

    name = "match"

    def init_state(self, state: dict[str, Any]) -> None:
        state["match_results"] = {}
        state["match_entries"] = {}

    def run_batch(
        self, context: StageContext, view: DatasetView, state: dict[str, Any]
    ) -> None:
        funnel = state["funnel"]
        sacrificial = state["sacrificial"]
        matches, _unmatched = context.matcher.match_all(state["remaining"])
        funnel.history_matched = len(matches)
        for match in matches:
            entry = context.classify_match(match)
            if entry is not None and entry.name not in sacrificial:
                sacrificial[entry.name] = entry
        funnel.match_classified = len(sacrificial) - funnel.pattern_classified
        state["matches"] = matches

    def _advance(
        self, context: StageContext, state: dict[str, Any], notes: AdvanceNotes
    ) -> None:
        results: dict[str, MatchResult] = state["match_results"]
        entries: dict[str, SacrificialNameserver] = state["match_entries"]
        for ns in notes.dirty:
            candidate = state["candidates"].get(ns)
            if candidate is None or ns in state["test_removed"]:
                results.pop(ns, None)
                entries.pop(ns, None)
                continue
            match = context.matcher.match(candidate)
            if match is None:
                results.pop(ns, None)
                entries.pop(ns, None)
                continue
            results[ns] = match
            entry = context.classify_match(match)
            if entry is None:
                entries.pop(ns, None)
            else:
                entries[ns] = entry


def build_stages() -> tuple[IncrementalStage, ...]:
    """The six stage operators, in pipeline execution order."""
    return (
        CandidatesStage(),
        MineStage(),
        TestFilterStage(),
        PatternSweepStage(),
        SingleRepoStage(),
        MatchStage(),
    )


def new_engine_state() -> dict[str, Any]:
    """A fresh engine state with every stage's standing keys installed."""
    state: dict[str, Any] = {"watermarks": {}}
    for stage in build_stages():
        stage.init_state(state)
    return state


class IncrementalDetectionEngine:
    """Folds per-day delta batches into standing detection state.

    The engine owns a private zone database (memory or SQLite backend)
    grown by replaying the consumed delta stream, plus the stage
    operators' standing state. :meth:`advance` folds one day batch;
    :meth:`advance_from` drains everything past the engine watermark
    from a source dataset; :meth:`result` reconstructs the exact
    :class:`~repro.detection.pipeline.PipelineResult` a batch run over
    the same history would produce.

    ``covered_tlds`` must name any TLDs the source database was
    *constructed* covering (coverage declared after construction flows
    through ``tld-cover`` deltas and needs no special handling).
    """

    #: Default consumer name for dataset-side watermark commits.
    CONSUMER = "incremental-engine"

    def __init__(
        self,
        whois: WhoisArchive,
        *,
        backend: str = "memory",
        store_path: "str | Path | None" = None,
        covered_tlds: Iterable[str] = (),
        psl: PublicSuffixList | None = None,
        classifiers: list[IdiomClassifier] | None = None,
        test_filter: TestNameserverFilter | None = None,
        repo_map: RepositoryMap | None = None,
        mine_patterns: bool = True,
    ) -> None:
        if backend == "memory":
            store = MemoryDelegationStore()
        elif backend == "sqlite":
            if store_path is None:
                raise ValueError("sqlite backend needs store_path")
            from repro.store.sqlite import SqliteDelegationStore

            store = SqliteDelegationStore(store_path)
        else:
            raise ValueError(f"unknown engine backend {backend!r}")
        self.backend = backend
        self.zonedb = ZoneDatabase(covered_tlds, store=store)
        self.context = StageContext.build(
            self.zonedb,
            whois,
            psl=psl,
            classifiers=classifiers,
            test_filter=test_filter,
            repo_map=repo_map,
            mine_patterns=mine_patterns,
        )
        self.stages = build_stages()
        self.state = new_engine_state()
        # Conservative dirty-set indices (monotone: entries are never
        # removed; a stale member only widens re-evaluation, never
        # narrows it).
        self._domain_ns: dict[str, set[str]] = {}
        self._registered_ns: dict[str, set[str]] = {}
        self._tld_ns: dict[str, set[str]] = {}
        self._known_ns: set[str] = set()
        #: (counter revision, selected patterns) fold memo.
        self._mine_memo: tuple[int, list[Any]] | None = None

    # -- bookkeeping ---------------------------------------------------------

    @property
    def watermark(self) -> int | None:
        """The last batch day fully folded into the standing state."""
        return self.state["watermarks"].get(ENGINE_WATERMARK)

    def _note_ns(self, ns: str) -> None:
        if ns in self._known_ns:
            return
        self._known_ns.add(ns)
        registered = self.context.psl.registered_domain(ns)
        if registered is not None:
            self._registered_ns.setdefault(registered, set()).add(ns)
        self._tld_ns.setdefault(Name(ns).tld, set()).add(ns)

    def _replay(self, event: DeltaEvent) -> None:
        """Apply one delta to the private store and the dirty indices."""
        self.zonedb.apply_delta(event)
        if event.kind in (DELEGATION_ADD, DELEGATION_REMOVE):
            assert event.ns is not None
            self._note_ns(event.ns)
            self._domain_ns.setdefault(event.name, set()).add(event.ns)

    def _dirty_from(self, events: Iterable[DeltaEvent]) -> set[str]:
        dirty: set[str] = set()
        dirty_domains: set[str] = set()
        for event in events:
            if event.kind in (DELEGATION_ADD, DELEGATION_REMOVE):
                assert event.ns is not None
                dirty.add(event.ns)
                dirty_domains.add(event.name)
            elif event.kind in (GLUE_ADD, GLUE_REMOVE):
                dirty.add(event.name)
            elif event.kind in (DOMAIN_APPEAR, DOMAIN_EXPIRE):
                dirty |= self._registered_ns.get(event.name, _EMPTY)
            elif event.kind == TLD_COVER:
                dirty |= self._tld_ns.get(event.name, _EMPTY)
        for domain in sorted(dirty_domains):
            dirty |= self._domain_ns.get(domain, _EMPTY)
        return dirty

    # -- advancing -----------------------------------------------------------

    def advance(self, batch_day: int, events: Iterable[DeltaEvent]) -> int:
        """Fold one day's delta batch; returns the number of events applied.

        Batches must arrive in strictly increasing batch-day order (the
        order :meth:`~repro.store.dataset.DeltaView.batches` yields).
        """
        events = tuple(events)
        watermark = self.watermark
        if watermark is not None and batch_day <= watermark:
            raise ValueError(
                f"engine already advanced through {watermark}; "
                f"got batch day {batch_day}"
            )
        with obs.span("engine.advance", day=batch_day) as span:
            with obs.span("delta.apply", day=batch_day, count=len(events)):
                for event in events:
                    self._replay(event)
            dirty = self._dirty_from(events)
            notes = AdvanceNotes(
                batch_day=batch_day,
                events=events,
                dirty=tuple(sorted(dirty)),
            )
            for stage in self.stages:
                stage.advance(self.context, self.state, notes)
            commit_watermark(self.state, ENGINE_WATERMARK, batch_day)
            span.set(deltas=len(events), dirty=len(dirty))
        obs.counter("detect.incremental.days").inc()
        obs.counter("detect.incremental.deltas_applied").inc(len(events))
        return len(events)

    def advance_from(
        self,
        source: "ZoneDatabase | DatasetView",
        *,
        until: int | None = None,
        consumer: str | None = None,
    ) -> int:
        """Drain every batch past the engine watermark from ``source``.

        Returns the number of day batches folded. With ``consumer`` set,
        the source store's per-consumer watermark is committed after
        each fully-folded day, so a later run (or another process)
        resumes exactly where this one durably stopped.
        """
        zonedb = source.zonedb if isinstance(source, DatasetView) else source
        view = DeltaView(zonedb, since=self.watermark, until=until)
        days = 0
        for batch_day, events in view.batches():
            self.advance(batch_day, events)
            if consumer is not None:
                zonedb.commit_watermark(consumer, batch_day)
            days += 1
        return days

    # -- the fold ------------------------------------------------------------

    def result(self) -> PipelineResult:
        """The batch-identical :class:`PipelineResult` for the current state.

        Reconstructs every ordering the batch pipeline produces:
        candidates in (first_seen, name) order, matches in surviving-
        candidate order, the final set sorted by (created_day, name).
        Coverage annotations are empty — the engine replays deltas, not
        snapshots, so there are no ingest reports to summarize (result
        fingerprints exclude coverage for exactly this reason).
        """
        state = self.state
        funnel = PipelineFunnel()
        funnel.total_nameservers = self.zonedb.nameserver_count()
        everyone = sorted(
            state["candidates"].values(), key=lambda c: (c.first_seen, c.name)
        )
        funnel.candidates = len(everyone)
        mined: list[Any] = []
        if self.context.mine_patterns:
            counter: SubstringCounter = state["mine_counter"]
            # Selection is a pure function of the counts; memoize on the
            # counter revision so days without candidate churn (the
            # common case) skip the full re-selection. The memo is
            # per-instance scratch, deliberately left out of
            # dump_engine_state.
            if self._mine_memo is None or self._mine_memo[0] != counter.revision:
                self._mine_memo = (
                    counter.revision,
                    _select_patterns(
                        counter.counts,
                        min_support=MINE_MIN_SUPPORT,
                        top=50,
                        containment_slack=0.9,
                    ),
                )
            mined = list(self._mine_memo[1])
        kept = [c for c in everyone if c.name not in state["test_removed"]]
        funnel.test_removed = len(everyone) - len(kept)
        pattern: dict[str, SacrificialNameserver] = state["pattern"]
        funnel.pattern_classified = len(pattern)
        sacrificial: dict[str, SacrificialNameserver] = dict(pattern)
        remaining = [c for c in kept if c.name not in pattern]
        survivors = [c for c in remaining if c.name not in state["single_repo"]]
        funnel.single_repo_removed = len(remaining) - len(survivors)
        matches = [
            state["match_results"][c.name]
            for c in survivors
            if c.name in state["match_results"]
        ]
        funnel.history_matched = len(matches)
        for match in matches:
            entry = state["match_entries"].get(match.candidate)
            if entry is not None and entry.name not in sacrificial:
                sacrificial[entry.name] = entry
        funnel.match_classified = len(sacrificial) - funnel.pattern_classified
        final = sorted(
            sacrificial.values(), key=lambda s: (s.created_day, s.name)
        )
        funnel.sacrificial_total = len(final)
        return PipelineResult(
            sacrificial=final,
            funnel=funnel,
            mined_patterns=mined,
            matches=matches,
            candidates=kept,
            coverage=CoverageAnnotations(),
        )

    # -- serialization / resume ----------------------------------------------

    def restore(
        self, source: "ZoneDatabase | DatasetView", state: dict[str, Any]
    ) -> int | None:
        """Adopt a loaded state, rebuilding the private store by replay.

        ``state`` is what :func:`load_engine_state` returned, so a caller
        that already parsed a checkpoint to verify it does not parse it
        again. Only valid on a fresh engine. The source's recorded deltas
        up to the state's watermark are replayed into the private store
        (replay is deterministic, so the rebuilt store is bit-identical
        to the one the state was dumped against); the standing verdicts
        are installed as-is. Returns the restored watermark.
        """
        if self.watermark is not None:
            raise ValueError("restore requires a fresh engine")
        watermark = state["watermarks"].get(ENGINE_WATERMARK)
        if watermark is not None:
            zonedb = (
                source.zonedb if isinstance(source, DatasetView) else source
            )
            with obs.span("delta.apply", day=watermark, restore=True):
                for batch_day, event in zonedb.deltas_since(None):
                    if batch_day > watermark:
                        break
                    self._replay(event)
        self.state = state
        return watermark


def dump_engine_state(engine: IncrementalDetectionEngine) -> bytes:
    """Serialize an engine's standing state deterministically.

    Every unordered container is normalized (sets to sorted lists,
    dicts to key-sorted) so equal states produce identical bytes
    regardless of fold order or process hash seed — engine checkpoints
    are content-addressed by these bytes, exactly like the batch
    pipeline's stage checkpoints. The miner's substring counts are not
    stored: they are a pure function of its name multiset, which is, and
    :func:`load_engine_state` rebuilds them from it.
    """
    state = engine.state
    counter: SubstringCounter = state["mine_counter"]
    normalized = {
        "format": ENGINE_STATE_FORMAT,
        "watermarks": dict(sorted(state["watermarks"].items())),
        "candidates": {
            ns: state["candidates"][ns] for ns in sorted(state["candidates"])
        },
        "mine_lengths": [counter.min_length, counter.max_length],
        "mine_names": sorted(counter.names.items()),
        "test_removed": sorted(state["test_removed"]),
        "pattern": {ns: state["pattern"][ns] for ns in sorted(state["pattern"])},
        "single_repo": sorted(state["single_repo"]),
        "match_results": {
            ns: state["match_results"][ns]
            for ns in sorted(state["match_results"])
        },
        "match_entries": {
            ns: state["match_entries"][ns]
            for ns in sorted(state["match_entries"])
        },
    }
    return pickle.dumps(normalized)


def load_engine_state(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`dump_engine_state`.

    Any other format, including the ``/1`` format that stored the
    substring counts, raises ``ValueError``; the runner treats that as
    an unreadable checkpoint and refolds from the delta stream.
    """
    payload: dict[str, Any] = pickle.loads(data)
    if payload.get("format") != ENGINE_STATE_FORMAT:
        raise ValueError(
            f"not an engine state (format {payload.get('format')!r})"
        )
    min_length, max_length = payload["mine_lengths"]
    counter = SubstringCounter(min_length=min_length, max_length=max_length)
    for name, multiplicity in payload["mine_names"]:
        for _ in range(multiplicity):
            counter.add(name)
    return {
        "watermarks": dict(payload["watermarks"]),
        "candidates": dict(payload["candidates"]),
        "mine_counter": counter,
        "test_removed": set(payload["test_removed"]),
        "pattern": dict(payload["pattern"]),
        "single_repo": set(payload["single_repo"]),
        "match_results": dict(payload["match_results"]),
        "match_entries": dict(payload["match_entries"]),
    }

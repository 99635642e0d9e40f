"""The per-layer split: which program functions each layer is, and how
they are wrapped with spans from outside the program.

Each :class:`Layer` names public functions of one layer
(``module:Qualified.name``). :func:`install` replaces every one of them —
on its class, in its defining module, and at every ``repro`` module that
imported it by name — with a wrapper that records a span (or, for
``count_only`` layers, just a call count) while the recorder is enabled.

:func:`install` is also the first half of the layer-coverage guard: a
target that no longer resolves, or an import site listed in ``sites``
that no longer holds the function, is reported as a problem. The second
half, :func:`coverage_problems`, checks after a traced iteration that
every target of a layer ran on each workload the layer ``loads`` and
that no target ran on a workload where the layer is ``idle``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spans import SpanRecorder, layer_busy, layer_self

LIB = "library-mined"
CLI = "cli-disk"
DAILY = "daily-advance"
WORKLOADS = (LIB, CLI, DAILY)

Observer = Callable[[dict, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    path: str  # "module:Qualified.name"
    sites: tuple[str, ...] = ()  # modules that import a module-level target by name
    observe: Observer | None = None
    loads: tuple[str, ...] | None = None  # overrides the layer's ``loads``


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[Target, ...]
    loads: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()
    count_only: bool = False
    # Spans of this target are filed under a layer derived from the call.
    layer_of: Callable[[tuple], str] | None = field(default=None, compare=False)


def _epp_result(counts, args, kwargs, result):
    if not result.ok:
        counts["epp.commands_failed"] = counts.get("epp.commands_failed", 0) + 1


def _epp_rename(counts, args, kwargs, result):
    _epp_result(counts, args, kwargs, result)
    counts["epp.host_renames"] = counts.get("epp.host_renames", 0) + 1


def _archive_bytes(counts, args, kwargs, result):
    size = sum(Path(path).stat().st_size for path in result)
    counts["zonedb.archive.write.bytes"] = (
        counts.get("zonedb.archive.write.bytes", 0) + size
    )


def _atomic_bytes(counts, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts["store.atomic.bytes"] = counts.get("store.atomic.bytes", 0) + len(data)


def _fold_deltas(counts, args, kwargs, result):
    counts["detection.incremental.fold.deltas"] = (
        counts.get("detection.incremental.fold.deltas", 0) + result
    )


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["detection.incremental.checkpoint.bytes"] = (
        counts.get("detection.incremental.checkpoint.bytes", 0) + len(result)
    )


# The state-changing commands; the read-only checks and infos are not
# wrapped.
_EPP_COMMANDS = (
    "domain_create domain_delete domain_renew domain_update_ns "
    "domain_transfer host_create host_delete host_set_addresses"
).split()

_SIMULATION = (LIB, CLI)

LAYERS: tuple[Layer, ...] = (
    Layer(
        "ecosystem.population",
        (Target("repro.ecosystem.population:PopulationPlanner.build"),),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "ecosystem.world",
        (
            Target("repro.ecosystem.world:World.__init__"),
            Target("repro.ecosystem.world:World.build"),
            Target("repro.ecosystem.world:World.run"),
        ),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "registrar",
        tuple(
            Target(f"repro.registrar.registrar:Registrar.{method}")
            for method in (
                "accredit_at", "register_domain",
                "ensure_external_host", "create_subordinate_hosts",
                "update_nameservers", "renew_domain", "delete_domain",
            )
        )
        + (Target("repro.registrar.policy:DeletionMachinery.delete_domain"),),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "ecosystem.mirror",
        (Target("repro.ecosystem.mirror:ZoneMirror.__call__"),),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "dnscore.names",
        (Target("repro.dnscore.names:Name.__init__"),),
        # Not idle on daily-advance: the incremental fold builds names too.
        loads=WORKLOADS, count_only=True,
    ),
    Layer(
        "epp",
        tuple(
            Target(f"repro.epp.commands:EppSession.{method}", observe=_epp_result)
            for method in _EPP_COMMANDS
        )
        + (
            Target("repro.epp.commands:EppSession.host_rename", observe=_epp_rename),
        ),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "zonedb.mutations",
        tuple(
            Target(f"repro.zonedb.database:ZoneDatabase.{method}")
            for method in (
                "set_delegation", "remove_delegation", "set_glue", "remove_glue",
            )
        ),
        loads=_SIMULATION, idle=(DAILY,),
    ),
    Layer(
        "zonedb.snapshot_at",
        (Target("repro.zonedb.database:ZoneDatabase.snapshot_at"),),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "zonedb.archive.write",
        (
            Target(
                "repro.zonedb.archive:write_archive",
                sites=("repro.cli",), observe=_archive_bytes,
            ),
        ),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "zonedb.archive.read",
        (Target("repro.zonedb.archive:read_archive", sites=("repro.cli",)),),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "zonedb.ingest_snapshot",
        (Target("repro.zonedb.database:ZoneDatabase.ingest_snapshot"),),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "whois.dump",
        (Target("repro.whois.archive:WhoisArchive.dump"),),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "store.dataset.write",
        (Target("repro.store.dataset:write_dataset", sites=("repro.store",)),),
        loads=(CLI,), idle=(LIB, DAILY),
    ),
    Layer(
        "whois.load",
        (Target("repro.whois.archive:WhoisArchive.load"),),
        loads=(CLI, DAILY), idle=(LIB,),
    ),
    Layer(
        "store.dataset.open",
        (Target("repro.store.dataset:open_dataset", sites=("repro.store",)),),
        loads=(CLI, DAILY), idle=(LIB,),
    ),
    Layer(
        "store.atomic",
        (
            Target(
                "repro.store.atomic:atomic_write_bytes",
                sites=("repro.runner.execution",), observe=_atomic_bytes,
            ),
        ),
        loads=(CLI, DAILY), idle=(LIB,),
    ),
    Layer(
        "runner.journal",
        (Target("repro.runner.journal:RunJournal.append"),),
        loads=(CLI, DAILY), idle=(LIB,),
    ),
    Layer(
        "runner",
        (
            Target(
                "repro.runner.execution:run_supervised_detection",
                sites=("repro.runner",), loads=(CLI,),
            ),
            Target(
                "repro.runner.execution:run_incremental_detection",
                sites=("repro.runner",), loads=(DAILY,),
            ),
        ),
        idle=(LIB,),
    ),
    Layer(
        "detection.pipeline",
        (Target("repro.detection.pipeline:DetectionPipeline.run"),),
        loads=(LIB, CLI), idle=(DAILY,),
    ),
    Layer(
        "detection.stage",
        (Target("repro.detection.pipeline:_run_stage_observed"),),
        loads=(LIB, CLI), idle=(DAILY,),
        layer_of=lambda args: f"detection.stage.{args[0]}",
    ),
    Layer(
        "detection.substrings",
        (
            Target(
                "repro.detection.substrings:mine_substrings", loads=(LIB,)
            ),
            Target("repro.detection.substrings:SubstringCounter.add"),
            Target(
                "repro.detection.substrings:SubstringCounter.select", loads=(LIB,)
            ),
            # The incremental engine selects patterns from its standing
            # counts directly, not through ``select``.
            Target(
                "repro.detection.substrings:_select_patterns",
                sites=("repro.detection.incremental",),
            ),
        ),
        loads=(LIB, DAILY), idle=(CLI,),
    ),
    Layer(
        "detection.incremental.fold",
        (
            Target(
                "repro.detection.incremental:IncrementalDetectionEngine.advance",
                observe=_fold_deltas,
            ),
        ),
        loads=(DAILY,), idle=(LIB, CLI),
    ),
    Layer(
        "detection.incremental.checkpoint",
        (
            Target(
                "repro.detection.incremental:dump_engine_state",
                sites=("repro.runner.execution",), observe=_checkpoint_bytes,
            ),
        ),
        loads=(DAILY,), idle=(LIB, CLI),
    ),
    Layer(
        "detection.incremental.result",
        (Target("repro.detection.incremental:IncrementalDetectionEngine.result"),),
        loads=(DAILY,), idle=(LIB, CLI),
    ),
    Layer(
        "analysis.study",
        (Target("repro.analysis.study:StudyAnalysis.__init__"),),
        loads=(LIB, CLI), idle=(DAILY,),
    ),
    Layer(
        "analysis.report",
        (
            Target("repro.analysis.report:render_full_report", loads=(LIB,)),
            Target("repro.analysis.report:render_funnel", sites=("repro.cli",)),
            Target(
                "repro.analysis.report:render_table1",
                sites=("repro.cli",), loads=(LIB, CLI),
            ),
            Target(
                "repro.analysis.report:render_table2",
                sites=("repro.cli",), loads=(LIB, CLI),
            ),
            Target(
                "repro.analysis.report:render_table3",
                sites=("repro.cli",), loads=(LIB, CLI),
            ),
        ),
        loads=(LIB, CLI, DAILY),
    ),
)

#: Counters read from the program's own metrics registry.
REGISTRY_COUNTERS = {
    "sqlite.writes": "store.sqlite.writes",
    "sqlite.ns_records_queries": "store.sqlite.ns_records_queries",
    "artifact_cache.hits": "store.artifacts.hits",
}

#: Metrics that are the number of calls into one layer's targets.
CALL_COUNTS = {
    "ecosystem.mirror.calls": "ecosystem.mirror",
    "dnscore.names.constructions": "dnscore.names",
    "epp.commands": "epp",
    "zonedb.mutations": "zonedb.mutations",
    "zonedb.snapshot_at.calls": "zonedb.snapshot_at",
    "store.atomic.writes": "store.atomic",
    "runner.journal.appends": "runner.journal",
}

#: Every per-layer metric the traced run reports, with its unit.
METRICS: dict[str, str] = {
    "ecosystem.population.busy_s": "s",
    "ecosystem.world.self_s": "s",
    "registrar.self_s": "s",
    "ecosystem.mirror.calls": "count",
    "ecosystem.mirror.busy_s": "s",
    "dnscore.names.constructions": "count",
    "epp.commands": "count",
    "epp.commands_failed": "count",
    "epp.host_renames": "count",
    "epp.self_s": "s",
    "zonedb.mutations": "count",
    "zonedb.mutations.busy_s": "s",
    "zonedb.snapshot_at.calls": "count",
    "zonedb.snapshot_at.busy_s": "s",
    "zonedb.archive.write.busy_s": "s",
    "zonedb.archive.write.bytes": "bytes",
    "zonedb.archive.read.busy_s": "s",
    "zonedb.ingest_snapshot.busy_s": "s",
    "whois.dump.busy_s": "s",
    "store.dataset.write.busy_s": "s",
    "whois.load.busy_s": "s",
    "store.dataset.open.busy_s": "s",
    "store.sqlite.writes": "count",
    "store.sqlite.ns_records_queries": "count",
    "store.atomic.writes": "count",
    "store.atomic.bytes": "bytes",
    "store.atomic.busy_s": "s",
    "runner.journal.appends": "count",
    "runner.journal.busy_s": "s",
    "runner.self_s": "s",
    "detection.pipeline.busy_s": "s",
    **{
        f"detection.stage.{stage}.busy_s": "s"
        for stage in (
            "candidates", "mine", "test-filter", "pattern-sweep",
            "single-repo", "match",
        )
    },
    "detection.substrings.busy_s": "s",
    "detection.incremental.fold.busy_s": "s",
    "detection.incremental.fold.deltas": "count",
    "detection.incremental.checkpoint.busy_s": "s",
    "detection.incremental.checkpoint.bytes": "bytes",
    "detection.incremental.result.busy_s": "s",
    "analysis.study.busy_s": "s",
    "analysis.report.busy_s": "s",
    "store.artifacts.hits": "count",
    "trace.overhead_ratio": "ratio",
}


class RegistryTally:
    """Totals of registry counters across the program's own resets.

    The runner zeroes the process-global registry at run start, so a
    plain before/after read would lose counts; :func:`install` makes
    every reset harvest first.
    """

    def __init__(self, registry) -> None:
        self.registry = registry
        self.totals = dict.fromkeys(REGISTRY_COUNTERS, 0)
        self._seen = dict.fromkeys(REGISTRY_COUNTERS, 0)
        self.enabled = False

    def harvest(self) -> None:
        for name in REGISTRY_COUNTERS:
            value = self.registry.counter(name).value
            if self.enabled:
                self.totals[name] += value - self._seen[name]
            self._seen[name] = value

    def after_reset(self) -> None:
        self._seen = dict.fromkeys(REGISTRY_COUNTERS, 0)


@dataclass
class Tracing:
    """Installed wrappers of one traced process and what they recorded."""

    recorder: SpanRecorder
    tally: RegistryTally
    calls: dict[str, int]
    counts: dict[str, int]
    problems: list[str]

    def start(self) -> None:
        self.tally.harvest()
        self.recorder.enabled = self.tally.enabled = True

    def stop(self) -> None:
        self.tally.harvest()
        self.recorder.enabled = self.tally.enabled = False

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded while enabled."""
        busy = layer_busy(self.recorder.rows)
        own = layer_self(self.recorder.rows)
        values: dict[str, float] = {}
        for metric in METRICS:
            stem, _, kind = metric.rpartition(".")
            if metric in CALL_COUNTS:
                values[metric] = sum(
                    self.calls.get(target.path, 0)
                    for layer in LAYERS
                    if layer.name == CALL_COUNTS[metric]
                    for target in layer.targets
                )
            elif kind == "busy_s":
                values[metric] = busy.get(stem, 0.0)
            elif kind == "self_s":
                values[metric] = own.get(stem, 0.0)
            else:
                values[metric] = self.counts.get(metric, 0)
        for name, metric in REGISTRY_COUNTERS.items():
            values[metric] = self.tally.totals[name]
        del values["trace.overhead_ratio"]
        return values


def _resolve(path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module:Qualified.name``."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attribute not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {attribute}")
        return owner, attribute, owner.__dict__[attribute]
    return owner, attribute, getattr(owner, attribute)


def _wrapper(fn, path, layer: Layer, target: Target, tracing: Tracing):
    recorder = tracing.recorder
    calls = tracing.calls
    counts = tracing.counts
    calls[path] = 0
    if layer.count_only:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if recorder.enabled:
                calls[path] += 1
            return fn(*args, **kwargs)

        return counted

    layer_of = layer.layer_of
    observe = target.observe
    name = layer.name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        calls[path] += 1
        index = recorder.open(path, layer_of(args) if layer_of else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if observe is not None:
            observe(counts, args, kwargs, result)
        return result

    return traced


def install(recorder: SpanRecorder) -> Tracing:
    """Wrap every layer target; problems are collected, not raised."""
    from repro.obs import runtime
    from repro.obs.metrics import MetricsRegistry

    tracing = Tracing(recorder, RegistryTally(runtime.metrics()), {}, {}, [])
    for layer in LAYERS:
        for target in layer.targets:
            try:
                owner, attribute, raw = _resolve(target.path)
            except (ImportError, AttributeError) as error:
                tracing.problems.append(f"{target.path} does not resolve: {error}")
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(
                        _wrapper(raw.__func__, target.path, layer, target, tracing)
                    )
                else:
                    wrapped = _wrapper(raw, target.path, layer, target, tracing)
                setattr(owner, attribute, wrapped)
                continue
            for site in target.sites:
                module = importlib.import_module(site)
                if getattr(module, attribute, None) is not raw:
                    tracing.problems.append(
                        f"{target.path} is not what {site}.{attribute} names"
                    )
            wrapped = _wrapper(raw, target.path, layer, target, tracing)
            for module_name, module in list(sys.modules.items()):
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

    tally = tracing.tally
    reset = MetricsRegistry.reset

    @functools.wraps(reset)
    def harvesting_reset(self):
        if self is tally.registry:
            tally.harvest()
            reset(self)
            tally.after_reset()
        else:
            reset(self)

    MetricsRegistry.reset = harvesting_reset
    return tracing


def coverage_problems(tracing: Tracing, workload: str) -> list[str]:
    """Targets that missed their load, or ran where their layer is idle."""
    problems = []
    for layer in LAYERS:
        for target in layer.targets:
            calls = tracing.calls.get(target.path, 0)
            loads = layer.loads if target.loads is None else target.loads
            if workload in loads and calls == 0:
                problems.append(f"{target.path} recorded no call on {workload}")
            if workload in layer.idle and calls:
                problems.append(
                    f"{target.path} ran {calls} time(s) on {workload}, "
                    f"where {layer.name} is idle"
                )
    return problems

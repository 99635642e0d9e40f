"""One iteration of one workload, in a fresh interpreter.

Run by ``run.py`` once per iteration; it is not meant to be run by hand
(see README.md for the commands to use). The iteration sets up, runs
the measured phase — every operation is one library call or one
``repro.cli.main`` invocation, timed on its own — then checks the
outputs and writes one JSON document to ``--out``. With ``--prepare``
it only does the workload's once-per-run preparation, whose files in
``--shared`` the run's iterations then share.

With ``--trace 1`` the layer wrappers of ``layers.py`` are installed
during set-up and record only inside the measured phase; the spans are
written next to ``--out`` after the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402

LIBRARY_SCALE = 1.0
CLI_SCALE = 0.25
DAILY_SCALE = 0.03
SCALES = {layers.LIB: LIBRARY_SCALE, layers.CLI: CLI_SCALE, layers.DAILY: DAILY_SCALE}
#: ``daily-advance``: the measured catch-up folds this many batch days,
#: then one ``advance`` runs for each of the last DAILY_SINGLE_DAYS.
DAILY_CATCHUP_DAYS = 60
DAILY_SINGLE_DAYS = 30


class OperationFailed(Exception):
    pass


class Operations:
    """Runs and times the measured phase's operations one by one."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.log: list[dict] = []

    def __call__(self, name: str, fn):
        if self.recorder is not None:
            self.recorder.begin_op()
        entry = {"name": name, "seconds": None, "cpu_s": None, "ok": True, "error": None}
        self.log.append(entry)
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            value = fn()
        except Exception as error:  # one failed operation, reported, not fatal
            entry["ok"] = False
            entry["error"] = f"{type(error).__name__}: {error}"
            traceback.print_exc(file=sys.stderr)
            return None
        entry["seconds"] = time.perf_counter() - started
        entry["cpu_s"] = time.process_time() - cpu
        return value

    def fail(self, index: int, problem: str) -> None:
        """A failed output check fails the operation it checks."""
        entry = self.log[index]
        entry["ok"] = False
        entry["seconds"] = None
        entry["error"] = (entry["error"] + "; " if entry["error"] else "") + problem


def run_cli(argv: list[str]) -> str:
    """``repro.cli.main(argv)`` with its output captured; stdout is returned."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"exit {code}: {err.getvalue().strip()[-500:]}")
    return out.getvalue()


def table3_numbers(text: str) -> dict[str, list[int]]:
    """The Table 3 rows of a rendered report: {row: [hijackable, hijacked]}."""
    _, _, tail = text.partition("Table 3:")
    rows = {}
    for label in ("Sacrificial NS", "Affected Domains"):
        match = re.search(rf"^{label}\s+(\d+)\s+(\d+)", tail, re.MULTILINE)
        if match:
            rows[label] = [int(match.group(1)), int(match.group(2))]
    return rows


def final_sacrificial(text: str) -> int | None:
    match = re.search(r"^final sacrificial nameservers\s+(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else None


class LibraryMined:
    """``repro.api.reproduce(..., mine_patterns=True)`` plus the full report."""

    def __init__(self, seed: int, workdir: Path, shared: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        import repro.analysis.report  # noqa: F401
        import repro.api  # noqa: F401
        import repro.runner.execution  # noqa: F401

    def run(self, ops: Operations) -> None:
        from repro import api
        from repro.analysis import report

        self.bundle = ops(
            "reproduce",
            lambda: api.reproduce(
                self.seed, scale=LIBRARY_SCALE, mine_patterns=True, use_cache=False
            ),
        )
        if self.bundle is None:
            return
        self.report = ops(
            "render_full_report",
            lambda: report.render_full_report(self.bundle.pipeline, self.bundle.study),
        )

    def check(self, ops: Operations) -> dict:
        from repro.analysis.tables import table3
        from repro.runner.execution import result_digest

        if self.bundle is None:
            return {}
        pipeline = self.bundle.pipeline
        truth = {rename.new_name for rename in self.bundle.world.log.renames}
        # A rename whose new name no domain ever delegated to is not in
        # the zone data, so no zone-based method can see it.
        observable = truth & set(self.bundle.world.zonedb.all_nameservers())
        detected = {entry.name for entry in pipeline.sacrificial}
        if detected != observable:
            ops.fail(
                0,
                f"detected {len(detected)} sacrificial names, ground truth "
                f"{len(observable)} in the zone data, "
                f"{len(detected ^ observable)} differ",
            )
        if not pipeline.mined_patterns:
            ops.fail(0, "no mined patterns")
        if self.report is not None and "Table 3:" not in self.report:
            ops.fail(1, "report has no Table 3")
        summary = table3(self.bundle.study)
        return {
            "result_digest": result_digest(pipeline),
            "sacrificial": len(detected),
            "ground_truth": len(truth),
            "ground_truth_in_zone_data": len(observable),
            "mined_patterns": len(pipeline.mined_patterns),
            "table3": {
                "Sacrificial NS": [summary.hijackable_ns, summary.hijacked_ns],
                "Affected Domains": [
                    summary.hijackable_domains, summary.hijacked_domains,
                ],
            },
        }


class CliDisk:
    """``simulate`` to disk, then ``detect`` over the dataset and the archive."""

    def __init__(self, seed: int, workdir: Path, shared: Path) -> None:
        self.seed = seed
        self.out = workdir / "sim"
        self.reference = shared / "reference.json"
        self.outputs: list[tuple[int, list[str], str]] = []

    def setup(self) -> None:
        import repro.cli  # noqa: F401

    def run(self, ops: Operations) -> None:
        out = self.out
        steps = [
            ("simulate", [
                "simulate", "--seed", str(self.seed), "--scale", str(CLI_SCALE),
                "--out", str(out),
            ]),
            ("detect-dataset", [
                "detect", "--dataset", str(out / "dataset.sqlite"),
                "--whois", str(out / "whois.jsonl"), "--run-dir", str(out / "run"),
            ]),
            ("detect-archive", [
                "detect", "--archive", str(out / "zones"),
                "--whois", str(out / "whois.jsonl"),
            ]),
        ]
        for index, (name, argv) in enumerate(steps):
            output = ops(name, lambda argv=argv: run_cli(argv))
            if output is None:
                return
            self.outputs.append((index, argv, output))

    def expected(self) -> dict:
        """Funnel + Tables 1-3 and ground truth of the in-memory run."""
        if self.reference.exists():
            return json.loads(self.reference.read_text())
        from repro.analysis.report import (
            render_funnel, render_table1, render_table2, render_table3,
        )
        from repro.analysis.study import StudyAnalysis, StudyConfig
        from repro.detection.pipeline import DetectionPipeline
        from repro.ecosystem.config import default_scenario
        from repro.ecosystem.world import World
        from repro.runner.execution import result_digest

        world = World(default_scenario(self.seed).scaled(CLI_SCALE)).run()
        result = DetectionPipeline(world.zonedb, world.whois).run()
        study = StudyAnalysis(
            result, world.zonedb, world.whois,
            StudyConfig(study_end=world.zonedb.horizon),
        )
        text = "\n\n".join(
            [render_funnel(result)]
            + [render(study) for render in (render_table1, render_table2, render_table3)]
        ) + "\n"
        expected = {
            "text": text,
            "result_digest": result_digest(result),
            "ground_truth": len({r.new_name for r in world.log.renames}),
        }
        self.reference.write_text(json.dumps(expected))
        return expected

    def check(self, ops: Operations) -> dict:
        from repro.runner.execution import RESULT_MANIFEST_NAME

        expected = self.expected()
        truth = expected["ground_truth"]
        record = {"reference_digest": expected["result_digest"], "ground_truth": truth}
        for index, argv, text in self.outputs:
            if "--dataset" in argv:
                if text != expected["text"]:
                    ops.fail(index, "funnel/Tables 1-3 differ from the in-memory run")
                run_dir = Path(argv[argv.index("--run-dir") + 1])
                manifest = json.loads((run_dir / RESULT_MANIFEST_NAME).read_text())
                record["result_digest"] = manifest["result_digest"]
                record["table3"] = table3_numbers(text)
            elif "--archive" in argv:
                found = final_sacrificial(text)
                if found is None or not 0 < found <= truth:
                    ops.fail(
                        index,
                        f"archive path found {found} sacrificial names, "
                        f"ground truth {truth}",
                    )
                record["archive_sacrificial"] = found
                record["archive_table3"] = table3_numbers(text)
        return record


class DailyAdvance:
    """A catch-up ``advance`` then one ``advance`` per remaining batch day.

    The run prepares once (``prepare``): it simulates and folds the
    history up to the catch-up's start, so the measured catch-up is the
    operator's return after an outage of ``DAILY_CATCHUP_DAYS`` batch
    days. Each iteration's set-up restores that prepared state to the
    same path, so every iteration advances from identical files.
    """

    def __init__(self, seed: int, workdir: Path, shared: Path) -> None:
        self.seed = seed
        self.out = shared / "sim"
        self.prepared = shared / "prepared"
        self.days_file = shared / "days.json"
        self.reference = shared / "reference.json"
        self.outputs: list[str | None] = []

    def _advance(self, until: int) -> list[str]:
        return [
            "advance", "--dataset", str(self.out / "dataset.sqlite"),
            "--whois", str(self.out / "whois.jsonl"),
            "--run-dir", str(self.out / "run"), "--mine-patterns",
            "--until", str(until),
        ]

    def prepare(self) -> None:
        from repro.store.dataset import open_dataset

        run_cli([
            "simulate", "--seed", str(self.seed), "--scale", str(DAILY_SCALE),
            "--out", str(self.out),
        ])
        zonedb = open_dataset(self.out / "dataset.sqlite")
        days = sorted({day for day, _ in zonedb.deltas_since(None)})
        zonedb.close()
        if len(days) <= DAILY_CATCHUP_DAYS + DAILY_SINGLE_DAYS:
            raise OperationFailed(f"only {len(days)} batch days recorded")
        run_cli(self._advance(days[-DAILY_CATCHUP_DAYS - DAILY_SINGLE_DAYS - 1]))
        shutil.copytree(self.out, self.prepared)
        self.days_file.write_text(json.dumps(days))

    def setup(self) -> None:
        import repro.cli  # noqa: F401

        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(self.prepared, self.out)
        days = json.loads(self.days_file.read_text())
        self.catchup_day = days[-DAILY_SINGLE_DAYS - 1]
        self.days = days[-DAILY_SINGLE_DAYS:]

    def run(self, ops: Operations) -> None:
        for name, day in [("advance-catchup", self.catchup_day)] + [
            ("advance", day) for day in self.days
        ]:
            output = ops(name, lambda day=day: run_cli(self._advance(day)))
            self.outputs.append(output)
            if output is None:
                return

    def expected(self) -> dict:
        """Digest and Table 3 of a batch run over the simulated dataset."""
        if self.reference.exists():
            return json.loads(self.reference.read_text())
        from repro.analysis.study import StudyAnalysis, StudyConfig
        from repro.analysis.tables import table3
        from repro.detection.pipeline import DetectionPipeline
        from repro.runner.execution import result_digest
        from repro.store.artifacts import default_cache
        from repro.store.dataset import open_dataset
        from repro.whois.archive import WhoisArchive

        # The batch reference must not be served from anything the
        # measured phase left in the process-wide cache.
        default_cache().clear()
        zonedb = open_dataset(self.out / "dataset.sqlite")
        whois = WhoisArchive.load(self.out / "whois.jsonl")
        batch = DetectionPipeline(zonedb, whois, mine_patterns=True).run()
        summary = table3(
            StudyAnalysis(batch, zonedb, whois, StudyConfig(study_end=zonedb.horizon))
        )
        zonedb.close()
        expected = {
            "batch_digest": result_digest(batch),
            "table3": {
                "Sacrificial NS": [summary.hijackable_ns, summary.hijacked_ns],
                "Affected Domains": [
                    summary.hijackable_domains, summary.hijacked_domains,
                ],
            },
        }
        self.reference.write_text(json.dumps(expected))
        return expected

    def check(self, ops: Operations) -> dict:
        final = self.outputs[-1] if self.outputs else None
        if final is None:
            return {}
        match = re.search(r"^Result digest: (\w+)", final, re.MULTILINE)
        digest = match.group(1) if match else None
        expected = self.expected()
        if digest != expected["batch_digest"]:
            ops.fail(
                len(ops.log) - 1,
                f"final digest {digest} != batch {expected['batch_digest']}",
            )
        return {"result_digest": digest, **expected}


WORKLOADS = {
    layers.LIB: LibraryMined,
    layers.CLI: CliDisk,
    layers.DAILY: DailyAdvance,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--shared", type=Path, required=True,
        help="directory shared by the iterations of a run",
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--prepare", action="store_true",
        help="only do the workload's once-per-run preparation",
    )
    args = parser.parse_args(argv)

    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro imported from {source}, not from {ROOT / 'src'}")
    from repro.store.artifacts import default_cache

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.shared)
    if args.prepare:
        workload.prepare()
        args.out.write_text(json.dumps({"prepared": True}))
        return 0
    workload.setup()
    tracing = layers.install(SpanRecorder()) if args.trace else None
    setup_done = time.monotonic()

    ops = Operations(tracing.recorder if tracing else None)
    hits = default_cache().hits
    cpu = time.process_time()
    started = time.perf_counter()
    if tracing:
        tracing.start()
    workload.run(ops)
    if tracing:
        tracing.stop()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    hits = default_cache().hits - hits
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = workload.check(ops)
    if hits:
        ops.fail(0, f"{hits} artifact-cache hit(s) in the measured phase")
    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "artifact_hits": hits,
        "ops": ops.log,
        "record": record,
    }
    if tracing:
        result["layers"] = tracing.metrics()
        result["problems"] = tracing.problems + layers.coverage_problems(
            tracing, args.workload
        )
        spans_path = args.out.with_suffix(".spans.tsv")
        tracing.recorder.write(spans_path)
        result["spans"] = str(spans_path)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

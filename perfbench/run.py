"""The reproduction's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs iterations of one workload (see README.md), each in a fresh
interpreter and one after another, as many as fit in ``--seconds`` at
the workload's nominal iteration time. With ``--trace 0`` every
iteration is untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced iterations alternate (at least one of
each) and the per-layer metrics of the traced ones are reported, with
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the
run leaves behind — the per-iteration records with result digests and
Table 3 numbers, and the span files — is under ``.perfbench-work/`` in
the checkout, replaced by the next run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from iteration import DAILY_SINGLE_DAYS, SCALES  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import CLI, DAILY, LIB, WORKLOADS  # noqa: E402
from spans import percentile  # noqa: E402

WORK = ROOT / ".perfbench-work"
#: Every run must end within this many seconds.
BUDGET_S = 170.0
#: The time one untraced iteration of each workload takes, set-up and
#: checks included, on the 2-core machine the benchmark was built on. A
#: run does ``--seconds / NOMINAL_S`` iterations, at least
#: ``MIN_ITERATIONS``, however fast the machine is at the time:
#: ``fastest`` takes minima, and the minimum of more iterations is
#: lower, so a count that followed the machine's speed would bias the
#: figures.
NOMINAL_S = {LIB: 6.0, CLI: 12.5, DAILY: 4.5}
#: Workloads with a once-per-run preparation that their iterations share.
PREPARES = (DAILY,)
MIN_ITERATIONS = 2

#: End-to-end metrics over a run's passing untraced iterations: the
#: median, or for the measured-phase times the sum of each operation's
#: fastest time (see ``fastest``).
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
#: The per-operation time each measured-phase metric sums.
OP_TIMES = {"wall_s": "seconds", "cpu_s": "cpu_s"}
#: Per-step figures kept in the run record only; README.md says why they
#: are not end-to-end metrics.
STEPS = {
    "cli-disk": {
        "cli_simulate_s": "simulate",
        "cli_detect_dataset_s": "detect-dataset",
        "cli_detect_archive_s": "detect-archive",
    },
    "daily-advance": {"catchup_s": "advance-catchup"},
}


#: The paper-reproduction scenario every workload is sized against.
CANONICAL_SEED = 2021


def daily_features(zonedb) -> tuple[int, ...]:
    """The shape of a world's history as ``daily-advance`` meets it: the
    day its measured catch-up ends (the set-up folds every calendar day
    before it), the nameserver count, which sizes the engine's state,
    and the number of batch days."""
    days = sorted({day for day, _ in zonedb.deltas_since(None)})
    cut = days[-DAILY_SINGLE_DAYS - 1] if len(days) > DAILY_SINGLE_DAYS else 0
    return (cut, zonedb.nameserver_count(), len(days))


#: Scenario seeds a run draws.
CANDIDATES = 12
#: Workloads whose worlds are cheap enough to simulate while picking:
#: how many seeds to draw instead, and the features to match.
SIMULATED = {DAILY: (24, daily_features)}


def scenario_seed(seed: int, workload: str) -> int:
    """The scenario seed a run simulates, drawn from ``seed``.

    The work of a run varies a lot with the scenario seed (at scale 0.03
    the recorded zone changes span almost 3x, and the day the catch-up
    ends 2x). So of ``seed`` and further seeds drawn from it, this picks
    the one whose planned client count is nearest that of the canonical
    scenario at the workload's scale. For the workloads in
    ``SIMULATED`` it simulates every candidate in memory instead and
    picks the one whose features are nearest the canonical world's, by
    summed relative distance. Every run so does about the same amount
    of work, and the canonical seed picks itself.
    """
    from repro.ecosystem.config import default_scenario
    from repro.ecosystem.population import PopulationPlanner
    from repro.ecosystem.world import World

    scale = SCALES[workload]
    drawn, features = SIMULATED.get(workload, (CANDIDATES, None))

    def config(candidate: int):
        config = default_scenario(candidate)
        return config if scale == 1.0 else config.scaled(scale)

    def clients(candidate: int) -> int:
        return PopulationPlanner(config(candidate)).build().client_count()

    def world(candidate: int) -> tuple[int, ...]:
        return features(World(config(candidate)).run().zonedb)

    measure = clients if features is None else world
    wanted = measure(CANONICAL_SEED)

    def distance(candidate: int) -> float:
        have = measure(candidate)
        if features is None:
            return abs(have - wanted)
        return sum(abs(h - w) / w for h, w in zip(have, wanted))

    rng = random.Random(seed)
    candidates = [seed] + [rng.randrange(1, 2**31) for _ in range(drawn - 1)]
    return min(candidates, key=distance)


def spawn(workload: str, seed: int, options: list[str], out: Path, deadline: float):
    """Runs ``iteration.py`` in a child interpreter; its exit code, or
    None if it ran out of time."""
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    command = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed),
        "--shared", str(WORK / "shared"), "--out", str(out), *options,
    ]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        return child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"{out.name}: ran out of time", file=sys.stderr)
        return None


def prepare(workload: str, seed: int, deadline: float) -> float | None:
    """The workload's once-per-run preparation; its seconds, or None if
    it failed."""
    out = WORK / "prepared.json"
    started = time.monotonic()
    code = spawn(workload, seed, ["--prepare", "--trace", "0", "--workdir", str(WORK)],
                 out, deadline)
    if code != 0 or not out.exists():
        print(f"preparation failed (exit {code})", file=sys.stderr)
        return None
    return time.monotonic() - started


def run_iteration(workload: str, seed: int, traced: bool, index: int, deadline: float):
    """One iteration in a child interpreter; its result, or None if it crashed."""
    out = WORK / f"{workload}-seed{seed}-{index}{'-traced' if traced else ''}.json"
    workdir = WORK / f"iteration-{index}"
    spawned = time.monotonic()
    code = spawn(workload, seed, ["--trace", str(int(traced)), "--workdir", str(workdir)],
                 out, deadline)
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not out.exists():
        print(f"iteration {index} failed (exit {code})", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    result["setup_s"] = result.pop("setup_done") - spawned
    return result


def fastest(runs: list[dict], key: str) -> float:
    """The sum over the measured phase's operations of each one's fastest
    ``key`` time across ``runs``.

    Every iteration of a run does the same operations in the same order.
    A shared 2-core machine slows a whole process down for seconds to
    minutes at a time, by up to 1.7x in CPU time as well as wall time,
    and such a slowdown only ever adds time. So an operation's fastest
    time over the iterations is its time in a quiet stretch, if one
    iteration met one; the median over a handful of iterations is not.
    """
    names = [op["name"] for op in runs[0]["ops"]]
    if any([op["name"] for op in run["ops"]] != names for run in runs):
        raise ValueError("the iterations of a run did different operations")
    return sum(
        min(run["ops"][index][key] for run in runs) for index in range(len(names))
    )


def op_seconds(runs: list[dict], name: str) -> list[float]:
    return [op["seconds"] for run in runs for op in run["ops"] if op["name"] == name]


def steps(workload: str, runs: list[dict]) -> dict[str, float]:
    """Per-step figures for the run record (see README.md)."""
    figures = {
        metric: median(op_seconds(runs, op))
        for metric, op in STEPS.get(workload, {}).items()
    }
    if workload == "daily-advance":
        days = op_seconds(runs, "advance")
        figures["advance_day_p50_s"] = percentile(days, 50)
        figures["advance_day_p90_s"] = percentile(days, 90)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "shared").mkdir(parents=True)
    scenario = scenario_seed(args.seed, args.workload)
    deadline = started + BUDGET_S
    iterations = max(MIN_ITERATIONS, round(args.seconds / NOMINAL_S[args.workload]))
    runs: list[dict] = []
    attempted = failed = 0
    prepared_s = 0.0
    if args.workload in PREPARES:
        prepared_s = prepare(args.workload, scenario, deadline)
        if prepared_s is None:
            attempted += 1
            failed += 1
            iterations = 0
    for index in range(iterations):
        # With --trace 1, untraced and traced iterations alternate.
        traced = bool(args.trace) and index % 2 == 1
        result = run_iteration(args.workload, scenario, traced, index, deadline)
        if result is None:
            attempted += 1
            failed += 1
            break
        result["traced"] = traced
        runs.append(result)
        attempted += len(result["ops"])
        failed += sum(1 for op in result["ops"] if not op["ok"])
        if result.get("problems"):
            break
        # Stop early rather than overrun the budget with one more iteration.
        longest = max(run["setup_s"] + run["wall_s"] for run in runs)
        if time.monotonic() + 2 * longest > deadline:
            break

    passing = [run for run in runs if all(op["ok"] for op in run["ops"])]
    untraced = [run for run in passing if not run["traced"]]
    traced_runs = [run for run in passing if run["traced"]]
    problems = sorted({p for run in runs for p in run.get("problems", ())})
    for problem in problems:
        print(f"layer coverage: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems and bool(untraced)
    if args.trace:
        correct = correct and bool(traced_runs)

    metrics: dict[str, dict] = {}
    step_figures: dict[str, float] = {}
    if correct and not args.trace:
        for name, unit in END_TO_END.items():
            if name in OP_TIMES:
                value = fastest(untraced, OP_TIMES[name])
            elif name == "setup_s":
                value = prepared_s + median([r[name] for r in untraced])
            else:
                value = median([r[name] for r in untraced])
            metrics[name] = {"value": value, "unit": unit}
        step_figures = steps(args.workload, untraced)
    elif correct:
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead_ratio":
                value = fastest(traced_runs, "seconds") / fastest(untraced, "seconds")
            else:
                value = median([r["layers"][name] for r in traced_runs])
            metrics[name] = {"value": value, "unit": unit}

    record = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "scenario_seed": scenario,
         "trace": args.trace, "correct": correct, "metrics": metrics,
         "steps": step_figures, "prepared_s": prepared_s, "iterations": runs},
        indent=1,
    ))
    digests = sorted({run["record"].get("result_digest", "-") for run in runs})
    print(
        f"{args.workload} seed {args.seed} (scenario seed {scenario}): "
        f"{len(runs)} iteration(s), "
        f"result digest(s) {', '.join(digests)}; record at {record}",
        file=sys.stderr,
    )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Unit tests of the benchmark's span, percentile and fastest-time rules.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import random

import pytest

from run import fastest
from spans import SpanRecorder, layer_busy, layer_self, percentile, self_times


def _tree() -> SpanRecorder:
    """world [0,10] > epp [1,4] > mirror [2,3]; world > epp [5,9] > epp [6,7]."""
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.begin_op()
    world = recorder.open("World.run", "world")
    first = recorder.open("EppSession.domain_create", "epp")
    mirror = recorder.open("ZoneMirror.__call__", "mirror")
    recorder.close(mirror)
    recorder.close(first)
    second = recorder.open("EppSession.domain_delete", "epp")
    nested = recorder.open("EppSession.host_delete", "epp")
    recorder.close(nested)
    recorder.close(second)
    recorder.close(world)
    return recorder


def test_self_time_subtracts_direct_children_only():
    rows = _tree().rows
    assert self_times(rows) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_layer_self_times_partition_the_root():
    totals = layer_self(_tree().rows)
    assert totals == {"world": 3.0, "epp": 6.0, "mirror": 1.0}
    assert sum(totals.values()) == 10.0


def test_busy_time_counts_nested_same_layer_spans_once():
    assert layer_busy(_tree().rows) == {"world": 10.0, "epp": 7.0, "mirror": 1.0}


def test_self_time_clips_children_to_the_parent():
    rows = [["p", "a", 0.0, 4.0, -1, 0], ["c", "b", 3.0, 6.0, 0, 0]]
    assert self_times(rows) == [3.0, 3.0]


def test_spans_record_parent_and_operation():
    rows = _tree().rows
    assert [row[4] for row in rows] == [-1, 0, 1, 0, 3]
    assert {row[5] for row in rows} == {0}


def test_close_out_of_order_is_an_error():
    recorder = SpanRecorder(clock=lambda: 0.0)
    outer = recorder.open("outer", "a")
    recorder.open("inner", "a")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_write_one_line_per_span(tmp_path):
    path = tmp_path / "spans.tsv"
    _tree().write(path)
    with open(path, newline="") as handle:
        lines = list(csv.DictReader(handle, delimiter="\t"))
    assert len(lines) == 5
    assert lines[2] == {
        "id": "2", "name": "ZoneMirror.__call__", "layer": "mirror",
        "start": "2.0", "end": "3.0", "parent": "1", "op": "0",
    }


def test_nearest_rank_percentiles_leave_ten_samples_beyond_p90():
    samples = [float(value) for value in range(1, 101)]
    random.Random(7).shuffle(samples)
    assert percentile(samples, 50) == 50.0
    p90 = percentile(samples, 90)
    assert p90 == 90.0
    assert sum(1 for value in samples if value > p90) == 10


def test_percentile_edges():
    assert percentile([4.0], 90) == 4.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert percentile([3.0, 1.0, 2.0], 1) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _iteration(*seconds: float, names: str = "abc") -> dict:
    return {
        "ops": [
            {"name": name, "seconds": value, "cpu_s": value / 2}
            for name, value in zip(names, seconds)
        ]
    }


def test_fastest_sums_each_operations_minimum_over_iterations():
    runs = [_iteration(3.0, 1.0, 2.0), _iteration(2.0, 4.0, 2.5), _iteration(5.0, 1.5, 3.0)]
    assert fastest(runs, "seconds") == 2.0 + 1.0 + 2.0
    assert fastest(runs, "cpu_s") == (2.0 + 1.0 + 2.0) / 2
    assert fastest(runs[:1], "seconds") == 6.0


def test_fastest_refuses_iterations_that_did_different_operations():
    with pytest.raises(ValueError):
        fastest([_iteration(1.0, 2.0), _iteration(1.0, 2.0, names="ba")], "seconds")

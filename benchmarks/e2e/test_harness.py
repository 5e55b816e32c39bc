"""Tests of the benchmark harness itself.

Run explicitly (not part of tier-1, which collects ``tests/`` only)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import timebase  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "op_id": 1}


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    recorded = [span(0, "op", 0.0, 10.0),
                span(1, "run", 1.0, 7.0, parent=0),
                span(2, "l1", 2.0, 3.0, parent=1),
                span(3, "emit", 8.0, 9.5, parent=0)]
    assert spans.self_times(recorded) == pytest.approx(
        [10.0 - 6.0 - 1.5, 6.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_as_their_union():
    # Children cover [1, 4] and [3, 6] (union 5 s) and one sticks out
    # past the parent's end: only the part inside the parent counts.
    recorded = [span(0, "op", 0.0, 8.0),
                span(1, "a", 1.0, 4.0, parent=0),
                span(2, "b", 3.0, 6.0, parent=0),
                span(3, "c", 7.0, 9.0, parent=0)]
    assert spans.self_times(recorded)[0] == pytest.approx(8.0 - 5.0 - 1.0)


def test_self_time_of_a_slice_ignores_absent_parents():
    recorded = [span(0, "op", 0.0, 4.0), span(1, "run", 1.0, 3.0, 0)]
    assert spans.self_time_by_name(recorded[1:]) == {"run": 2.0}


def test_recorder_links_parents_and_ops():
    recorder = spans.SpanRecorder()
    recorder.begin_op(7)
    with recorder.span("op"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert {outer["op_id"], inner["op_id"]} == {7}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# -- time base and statistics ------------------------------------------------

def test_ref_seconds_scale_with_host_speed():
    # A host running the spin 20 % slower than the reference inflates
    # wall time by 20 %; the reference seconds take that back out.
    slow = timebase.SPIN_REF_S * 1.2
    assert timebase.ref_seconds(1.2, slow, slow) == pytest.approx(1.0)
    assert timebase.ref_seconds(
        1.0, timebase.SPIN_REF_S * 0.9,
        timebase.SPIN_REF_S * 1.1) == pytest.approx(1.0)


def test_timed_reports_wall_spin_and_ref():
    result, sample = timebase.timed(lambda: time.sleep(0.02) or "done")
    assert result == "done" and sample["wall"] >= 0.02
    assert sample["ref"] == pytest.approx(
        sample["wall"] * timebase.SPIN_REF_S / sample["spin"])


@pytest.mark.parametrize("count, expected", [
    (19, None),          # even p75 leaves only 4 samples beyond it
    (40, 75.0),          # 10 beyond p75, 4 beyond p90
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count,
                                                            expected):
    values = list(range(count))
    tail = timebase.tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    percentile, value = tail
    assert percentile == expected
    assert sum(1 for sample in values if sample > value) >= 10


def test_summarise_always_states_the_sample_count():
    record = timebase.summarise([3.0, 1.0, 2.0], "s")
    assert record["n"] == 3 and record["value"] == 2.0
    assert record["q1"] <= record["value"] <= record["q3"]
    assert timebase.summarise([5.0], "s")["n"] == 1


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [metric for metric in BENCHMARK["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric
                                    in BENCHMARK["end_to_end"])
    assert set(workloads.WORKLOADS) == {
        workload["name"] for workload in BENCHMARK["workloads"]}


# -- verdicts ----------------------------------------------------------------

def item(value, q1=None, q3=None, n=4):
    return {"value": value, "q1": q1 or value, "q3": q3 or value, "n": n}


@pytest.mark.parametrize("better, before, after, word", [
    ("lower", item(1.0), item(1.05), "unchanged"),
    ("lower", item(1.0), item(1.2), "regressed"),
    ("lower", item(1.0), item(0.8), "improved"),
    ("higher", item(1.0), item(0.8), "regressed"),
    ("higher", item(1.0), item(1.2), "improved"),
    # The median of 4 operations whose quartiles are 30 % apart is
    # not known to within the 10 % bound: no verdict either way ...
    ("lower", item(1.0, 0.85, 1.15), item(1.3), "unresolved"),
    # ... but the median of 100 such operations is.
    ("lower", item(1.0, 0.85, 1.15, n=100), item(1.3), "regressed"),
])
def test_verdict(better, before, after, word):
    metric = {"better": better, "bound": 0.10}
    assert run.verdict(metric, before, after)[0] == word


# -- the correctness gate ----------------------------------------------------

def test_mistyped_axis_fails_loudly(tmp_path):
    """``mapping`` is not a config field (``mapping_policy`` is): the
    service completes such a job with every point done *and* failed and
    ``api.result`` returns normally — the gate must not."""
    axes = {"mapping": ["set-interleaving", "page-to-bank"]}
    job_id = api.submit("scalar-matmul", root=tmp_path, axes=axes,
                        cores=4, size=8)
    table = api.result(job_id, root=tmp_path, wait=True)
    assert workloads.check_status(api.status(job_id, root=tmp_path))
    assert workloads.check_table(table, 2)
    good = api.sweep("scalar-matmul", 4, size=8,
                     axes={"mapping_policy": axes["mapping"]})
    assert workloads.check_table(good, 2) == ""
    assert workloads.check_table(good, 3)


def test_flipped_fingerprint_fails_the_operation(tmp_path):
    workload = workloads.ScalarCompute(workloads.PINNED_SEED, tmp_path,
                                       smoke=False)
    assert workload.pinned is not None
    assert workload.check_pin(workload.pinned) == ""
    flipped = [workload.pinned[0] + 1] + workload.pinned[1:]
    assert "differs from pinned" in workload.check_pin(flipped)
    # Another seed has different inputs: only workload.verify applies.
    other = workloads.ScalarCompute(workloads.PINNED_SEED + 1, tmp_path,
                                    smoke=False)
    assert other.check_pin(flipped) == ""


# -- the whole thing, at toy sizes -------------------------------------------

def run_benchmark(*arguments, cwd=REPO):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *arguments], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def test_smoke_prints_every_declared_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = run_benchmark("--smoke", "--out", str(out))
    assert time.perf_counter() - start < 20
    assert done.returncode == 0, done.stderr[-2000:]
    assert "NOT COMPARABLE" in done.stdout
    result = json.loads(out.read_text())
    assert result["env"]["comparable"] is False
    assert set(result["env"]) >= {
        "commit", "python", "cpu_count", "affinity", "platform",
        "pythonhashseed", "spin_n", "seed"}
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["end_to_end"]}
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    for name, record in result["workloads"].items():
        if record.get("status") == "skipped":
            assert name == "sweep_pool2" and record["reason"]
            continue
        assert record["attempted"] == 1 and record["failed"] == 0
        assert {metric: item["unit"] for metric, item
                in record["metrics"].items()} == declared
        for metric in declared:
            assert re.search(rf"^\s+{re.escape(metric)}\s", done.stdout,
                             re.MULTILINE)
    with pytest.raises(SystemExit):
        run.compare(result, result)
    assert not list((HERE / "out").glob("tmp-*"))


def test_traced_smoke_emits_every_declared_layer_metric(tmp_path):
    out = tmp_path / "traced.json"
    done = run_benchmark("--smoke", "--trace", "1", "--workload",
                         "sparse_mesh", "--seed", "3", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {
        metric["name"] for metric in BENCHMARK["per_layer"]}
    result = json.loads(out.read_text())
    trace = json.loads((REPO / result["span_file"]).read_text())
    events = [event for event in trace["traceEvents"]
              if event["ph"] == "X"]
    assert {"op", "kernels.build", "coyote.run", "paraver.write"} <= {
        event["name"] for event in events}
    assert all("op_id" in event["args"] for event in events)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "scalar_compute", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

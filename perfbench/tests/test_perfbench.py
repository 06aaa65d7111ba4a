"""Tests of the benchmark itself: declaration, output shape and repeatability.

Run with ``python3 -m pytest perfbench/tests``.  Workloads run with
``--tiny --seconds 0`` (one pass, one rank smaller).  No timing value is
asserted.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 12345


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def line_after(lines: list[str], prefix: str) -> str:
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def test_benchmark_json_follows_the_declared_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_emit_every_end_to_end_metric_and_repeat_exactly(workload):
    first_lines, first = tiny_run(workload, trace=0)
    second_lines, second = tiny_run(workload, trace=0)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert first["attempted"] == second["attempted"]
    for prefix in ("digest sha256:", "work counts per pass: "):
        assert line_after(first_lines, prefix) == line_after(second_lines, prefix)
    counts = json.loads(line_after(first_lines, "work counts per pass: "))
    assert counts["tasks"] >= 1 and counts["checks"] >= counts["tasks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, result = tiny_run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.per_layer_units()
    record = json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace1.json").read_text())
    spans = json.loads((ROOT / record["spans_file"]).read_text())
    names = {span[0] for span in spans["spans"]}
    assert names and names <= set(run.SPANS)
    for name, start, end, parent, task in spans["spans"]:
        assert end >= start and task is not None
        if parent >= 0:
            assert spans["spans"][parent][1] <= start and end <= spans["spans"][parent][2]


def test_failing_and_raising_tasks_are_counted_and_the_run_goes_on():
    import worker
    from tracing import NullTracer

    class Flaky:
        items = ["ok", "fails", "raises", "ok"]

        def new_pass(self):
            return None

        def task(self, ctx, item, tr, log):
            if item == "raises":
                raise ValueError("boom")
            log.expect("holds", item == "ok")
            return item

    phase = worker.Phase()
    worker.run_pass(Flaky(), phase, NullTracer())
    assert (phase.tasks, phase.verified, len(phase.samples)) == (4, 2, 2)
    assert (phase.attempted, phase.failed) == (4, 2)
    assert len(phase.errors) == 2


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

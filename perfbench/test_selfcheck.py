"""Self-check of the benchmark (not part of the repo's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_selfcheck.py -q

A quick-size run of every workload must print every metric named in
``BENCHMARK.json`` with its unit, traced and untraced, and pass the
oracle; altering one captured decision must make the oracle fail the
run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))


def run_bench(workload: str, *extra: str, trace: int = 0) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return done.returncode, result


def test_catalogue_matches_benchmark_json():
    from layers import END_TO_END, PER_LAYER

    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def test_unattributed_counts_phase_time_outside_spans():
    from layers import inproc_layer_metrics
    from spans import Tracer

    tracer = Tracer()
    tracer.set_phase("ingest")
    with tracer.span("advisor.ingest_lines"):
        time.sleep(0.02)
    time.sleep(0.02)  # timed work that no span covers
    tracer.set_phase("untimed")
    metrics = inproc_layer_metrics(tracer, events=1)
    assert metrics["unattributed_frac"] > 0.3
    assert metrics["advisor.self_s"] + metrics["unattributed_s"] == pytest.approx(
        metrics["wall_s"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    code, result = run_bench(workload, trace=trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", ["hot-16v", "socket-ladder"])
def test_oracle_fails_an_altered_decision(workload):
    code, result = run_bench(workload, "--corrupt-one")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-16v", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

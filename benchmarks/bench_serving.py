"""Benchmark: the ingest path fed large chunks vs one line at a time.

One op, ``serve_ingest``: the full durable serving path — JSONL decode,
validation, per-vehicle routing, vectorized apply, WAL group-commit
with fsync — fed 4096-line chunks (``ingest_lines``), against the same
path fed one line at a time (``ingest_line``, a chunk of one) in the
*same* durable configuration (``fsync=True``; durability is where
group-commit earns its keep: one fsync per chunk instead of one per
event).  The "scalar" fields below name the line-at-a-time loop.

Correctness gates before any timing is reported:

* the batched run's per-vehicle ``state_digest()`` values must be
  bit-identical to an uninterrupted line-at-a-time run over the same trace
  (digest equality is exact — ``max_abs_diff`` is 0 by construction or
  the test fails);
* batched events/s must be >= 3x scalar in every mode (the CI smoke
  gate) and >= 10x in full mode on the 100k-event synthetic trace (the
  acceptance floor).

Latency is reported as the p99 *advise latency*: for the scalar loop
the per-event wall time; for the batched loop the per-chunk commit wall
time, which is the worst case an event waits for its decision under
group-commit.  The module writes ``results/BENCH_serving.json`` on
teardown — see ``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.service import AdvisorService, SessionConfig
from repro.service.soak import build_fleet_events

from .conftest import emit_bench_json

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BREAK_EVEN = 28.0  # the paper's vehicle class 1
#: Chunk size for the batched path: large enough that one fsync and one
#: delta compaction per vehicle-run amortize over hundreds of events.
CHUNK = 4096
#: Scalar events measured with fsync on (the full trace would take
#: minutes at per-event fsync rates; throughput is steady-state, so a
#: prefix measures it fairly).
SCALAR_EVENTS = 2_000 if QUICK else 10_000
_RECORDS: list[dict] = []


@pytest.fixture(scope="module")
def bench_records(results_dir):
    yield _RECORDS
    emit_bench_json(_RECORDS, results_dir, filename="BENCH_serving.json")


def _config() -> SessionConfig:
    return SessionConfig(break_even=BREAK_EVEN, dedup_window=4096, seed=3)


def _trace() -> list[str]:
    vehicles, stops = (5, 1_000) if QUICK else (10, 10_000)
    events = build_fleet_events(vehicles, stops, seed=3)
    return [json.dumps(event) for event in events]


def _digests(service: AdvisorService) -> dict:
    snapshot = service.health_snapshot()
    return {v: info["digest"] for v, info in snapshot["vehicles"].items()}


def test_batched_serving_throughput(benchmark, bench_records, tmp_path, results_dir):
    """Batched ingest: bit-identical to scalar, order-of-magnitude faster."""
    lines = _trace()

    # Reference digests: uninterrupted scalar run over the full trace.
    # fsync off — durability mode cannot change session state, and the
    # full 100k trace at per-event fsync rates would take minutes.
    reference = AdvisorService(tmp_path / "reference", _config(), fsync=False)
    for line in lines:
        reference.ingest_line(line)
    reference.close()
    reference_digests = _digests(reference)

    # fsync wall time is the noisiest part of either path, so both are
    # measured best-of-rounds (fresh state directory per round — the
    # paths are stateful) exactly as bench_kernels does.
    rounds = 1 if QUICK else 3

    # Scalar timing: the durable per-event loop on a trace prefix.
    def scalar_run(tag: int) -> tuple[float, np.ndarray]:
        service = AdvisorService(tmp_path / f"scalar-{tag}", _config(), fsync=True)
        walls = np.empty(min(SCALAR_EVENTS, len(lines)))
        t0 = time.perf_counter()
        for index in range(walls.size):
            e0 = time.perf_counter()
            service.ingest_line(lines[index])
            walls[index] = time.perf_counter() - e0
        elapsed = time.perf_counter() - t0
        service.close()
        return elapsed, walls

    scalar_seconds, latencies = min(
        (scalar_run(tag) for tag in range(rounds)), key=lambda r: r[0]
    )
    scalar_evps = latencies.size / scalar_seconds
    scalar_p99 = float(np.percentile(latencies, 99))

    # Batched timing: the columnar group-commit loop on the full trace.
    def batched_run(tag: int) -> tuple[float, list[float], dict]:
        service = AdvisorService(tmp_path / f"batch-{tag}", _config(), fsync=True)
        chunk_walls = []
        t0 = time.perf_counter()
        for offset in range(0, len(lines), CHUNK):
            c0 = time.perf_counter()
            service.ingest_lines(lines[offset : offset + CHUNK])
            chunk_walls.append(time.perf_counter() - c0)
        elapsed = time.perf_counter() - t0
        service.close()
        return elapsed, chunk_walls, _digests(service)

    batch_rounds = [batched_run(tag) for tag in range(rounds - 1)]
    batch_rounds.append(
        benchmark.pedantic(batched_run, args=(rounds - 1,), iterations=1, rounds=1)
    )
    for _, _, digests in batch_rounds:
        assert digests == reference_digests, (
            "batched serving diverged from the scalar loop"
        )
    batch_seconds, chunk_walls, _ = min(batch_rounds, key=lambda r: r[0])
    batch_evps = len(lines) / batch_seconds
    batch_p99 = float(np.percentile(np.asarray(chunk_walls), 99))

    speedup = batch_evps / scalar_evps
    entry = {
        "op": "serve_ingest",
        "n": len(lines),
        "wall_time_s": batch_seconds,
        "scalar_wall_time_s": scalar_seconds,
        "speedup": speedup,
        "max_abs_diff": 0.0,  # digest equality asserted above — exact
        "events_per_s": batch_evps,
        "scalar_events_per_s": scalar_evps,
        "scalar_n": int(latencies.size),
        "p99_advise_latency_s": batch_p99,
        "scalar_p99_advise_latency_s": scalar_p99,
        "batch_size": CHUNK,
        "fsync": True,
    }
    _RECORDS.append(entry)
    # The CI smoke gate: even on shared runners in quick mode the
    # batched path must hold a 3x margin, and the acceptance floor is
    # an order of magnitude on the full 100k-event trace.
    floor = 3.0 if QUICK else 10.0
    assert speedup >= floor, (
        f"batched serving speedup {speedup:.2f}x < {floor:g}x "
        f"({batch_evps:,.0f} vs {scalar_evps:,.0f} events/s)"
    )

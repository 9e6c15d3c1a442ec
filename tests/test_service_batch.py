"""Equivalence harness: the columnar batch path vs the scalar event loop.

The batched serving path (``AdvisorSession.submit_batch``,
``AdvisorService.process_batch``/``ingest_lines``, ``serve --batch N``)
promises to be an *optimization only*: for any event stream and any
batch-boundary split, the decisions returned, the session state digest
(which pins the estimator, the drift detectors, the health ladder, the
bounded histories AND the RNG stream), the ingestion counters, and the
emitted ledger events are bit-identical to feeding the same stream
through the per-event scalar loop — including recovery after a kill
mid-group-commit.

Layers:

* Hypothesis property at the session level: adversarial streams
  (duplicates, stale timestamps, NaN/negative values, drift-inducing
  regime shifts) under ANY chunking == the scalar loop, event for
  event;
* Hypothesis property at the service level: multi-vehicle interleaved
  streams with malformed records mixed in;
* Hypothesis recovery property: abandon a durable batched session at
  any split (optionally tearing the WAL group-commit at any byte),
  recover, redeliver everything — digest equals the uninterrupted
  scalar reference;
* deterministic pins: ``--batch 1`` equals the default loop, strict
  policy still raises, ledger transition parity, and a real-SIGKILL
  chaos cycle in batch mode (marked ``slow``).
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.ledger import RunLedger, use_ledger
from repro.errors import DataValidationError
from repro.service import AdvisorService, AdvisorSession, SessionConfig
from repro.service.batch import ColumnarRun, MalformedEvent, plan_chunk
from repro.service.soak import CELLS, build_fleet_events, run_cell, run_stream

B = 28.0

#: Aggressive knobs: tiny warmups and low drift thresholds so short
#: Hypothesis streams routinely cross HEALTHY -> DEGRADED -> SAFE and
#: back, play every vertex, and trigger mid-batch alarm cuts.
CONFIG = SessionConfig(
    break_even=B,
    min_samples=3,
    dedup_window=512,
    snapshot_every=4,
    length_threshold=6.0,
    split_threshold=6.0,
    drift_min_count=4,
    recover_after=8,
    safe_recover_after=16,
    seed=77,
)


def _scalar_reference(events):
    """Uninterrupted scalar run: decisions + digest + counters."""
    session = AdvisorSession("v1", CONFIG)
    decisions = [session.submit(*event) for event in events]
    return decisions, session


def _chunked(items, sizes):
    """Split ``items`` into chunks whose sizes cycle through ``sizes``."""
    chunks = []
    position = 0
    index = 0
    while position < len(items):
        size = sizes[index % len(sizes)]
        chunks.append(items[position : position + size])
        position += size
        index += 1
    return chunks


@st.composite
def adversarial_stream(draw):
    """Events exercising every admission path and both drift regimes."""
    n = draw(st.integers(min_value=5, max_value=60))
    events = []
    clock = 0.0
    for index in range(n):
        kind = draw(
            st.sampled_from(
                ["ok", "ok", "ok", "ok", "ok", "dup", "stale", "nan", "neg"]
            )
        )
        # Two regimes, switched mid-stream, so the Page-Hinkley tests
        # actually alarm inside batches.
        regime_high = index >= n // 2 and draw(st.booleans())
        value = draw(
            st.floats(min_value=200.0, max_value=900.0)
            if regime_high
            else st.floats(min_value=0.0, max_value=20.0)
        )
        if kind == "dup" and events:
            events.append(events[draw(st.integers(0, len(events) - 1))])
            continue
        clock += 1.0
        if kind == "stale":
            events.append((f"s-{index:03d}", clock - 5.0, value))
        elif kind == "nan":
            events.append((f"n-{index:03d}", clock, float("nan")))
        elif kind == "neg":
            events.append((f"g-{index:03d}", clock, -abs(value) - 0.5))
        else:
            events.append((f"e-{index:03d}", clock, value))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=17), min_size=1, max_size=5)
    )
    return events, sizes


@given(adversarial_stream())
@settings(max_examples=60, deadline=None)
def test_submit_batch_any_split_bit_identical(case):
    """For ANY stream and ANY chunking, submit_batch == scalar submit."""
    events, sizes = case
    scalar_decisions, scalar = _scalar_reference(events)
    batched = AdvisorSession("v1", CONFIG)
    batched_decisions = []
    for chunk in _chunked(events, sizes):
        batched_decisions.extend(
            batched.submit_batch(
                [event[0] for event in chunk],
                [event[1] for event in chunk],
                [event[2] for event in chunk],
            )
        )
    assert batched_decisions == scalar_decisions
    assert batched.state_digest() == scalar.state_digest()
    assert (batched.duplicates, batched.rejected) == (
        scalar.duplicates,
        scalar.rejected,
    )


@st.composite
def fleet_stream(draw):
    """Interleaved multi-vehicle JSON records with malformed ones mixed in."""
    n = draw(st.integers(min_value=5, max_value=50))
    records = []
    clocks = {"veh-a": 0.0, "veh-b": 0.0}
    for index in range(n):
        vehicle = draw(st.sampled_from(["veh-a", "veh-b"]))
        kind = draw(
            st.sampled_from(["ok", "ok", "ok", "ok", "missing", "badnum", "loose"])
        )
        if kind == "missing":
            records.append({"vehicle": vehicle, "t": index})
            continue
        if kind == "loose":
            records.append({"stop": 5.0})
            continue
        clocks[vehicle] += 1.0
        value = draw(st.floats(min_value=0.0, max_value=400.0))
        record = {
            "id": f"{vehicle}-{index:03d}",
            "vehicle": vehicle,
            "t": clocks[vehicle],
            "stop": "oops" if kind == "badnum" else value,
        }
        records.append(record)
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=4)
    )
    return records, sizes


@given(fleet_stream())
@settings(max_examples=40, deadline=None)
def test_service_batch_any_split_bit_identical(case):
    """Multi-vehicle chunks == per-event processing, malformed included."""
    records, sizes = case
    with tempfile.TemporaryDirectory() as tmp:
        scalar = AdvisorService(Path(tmp) / "scalar", CONFIG, policy="repair")
        scalar_decisions = [scalar.process(record) for record in records]
        scalar.close()
        scalar_snapshot = scalar.health_snapshot()

        batched = AdvisorService(Path(tmp) / "batched", CONFIG, policy="repair")
        batched_decisions = []
        for chunk in _chunked(records, sizes):
            batched_decisions.extend(batched.process_batch(chunk))
        batched.close()
        batched_snapshot = batched.health_snapshot()

    assert batched_decisions == scalar_decisions
    assert batched_snapshot["vehicles"] == scalar_snapshot["vehicles"]
    assert batched_snapshot["fleet_cost"] == scalar_snapshot["fleet_cost"]
    assert batched_snapshot["states"] == scalar_snapshot["states"]
    scalar_ingest = dict(scalar_snapshot["ingest"])
    batched_ingest = dict(batched_snapshot["ingest"])
    scalar_ingest.pop("batch")
    batched_ingest.pop("batch")
    assert batched_ingest == scalar_ingest
    # The validation report records the same findings (row order within
    # a chunk may interleave differently across vehicles).
    assert sorted(
        (issue.check, issue.message) for issue in batched.report.issues
    ) == sorted((issue.check, issue.message) for issue in scalar.report.issues)


@st.composite
def durable_case(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(rng_seed)
    lengths = rng.lognormal(3.0, 1.2, n)
    events = [
        (f"e-{index:04d}", float(index), float(length))
        for index, length in enumerate(lengths)
    ]
    split = draw(st.integers(min_value=0, max_value=n))
    chunk = draw(st.integers(min_value=1, max_value=16))
    tear = draw(st.booleans())
    return events, split, chunk, tear


@given(durable_case())
@settings(max_examples=40, deadline=None)
def test_batched_recovery_any_split_any_tear(case):
    """Abandon a durable batched run anywhere — optionally tearing the
    last WAL group-commit at an arbitrary byte — then recover and
    redeliver the full stream in batches: bit-identical to the scalar
    uninterrupted reference.  Exercises delta snapshots throughout
    (snapshot_every=4 compacts on nearly every batch)."""
    events, split, chunk, tear = case
    _, reference = _scalar_reference(events)
    expected = reference.state_digest()
    with tempfile.TemporaryDirectory() as tmp:
        state_dir = Path(tmp) / "v1"
        first = AdvisorSession("v1", CONFIG, state_dir)
        head = events[:split]
        for piece in _chunked(head, [chunk]) if head else []:
            first.submit_batch(
                [event[0] for event in piece],
                [event[1] for event in piece],
                [event[2] for event in piece],
            )
        del first
        if tear:
            wal_path = state_dir / "wal.jsonl"
            if wal_path.exists():
                payload = wal_path.read_bytes()
                if payload:
                    cut = split % (len(payload) + 1)
                    wal_path.write_bytes(payload[:cut])
        recovered = AdvisorSession("v1", CONFIG, state_dir)
        for piece in _chunked(events, [chunk]):
            recovered.submit_batch(
                [event[0] for event in piece],
                [event[1] for event in piece],
                [event[2] for event in piece],
            )
        assert recovered.state_digest() == expected


def test_batch_of_one_equals_scalar():
    """submit_batch with singleton batches IS the scalar loop."""
    events = [(f"e-{i:03d}", float(i), float((i * 37) % 200)) for i in range(25)]
    scalar_decisions, scalar = _scalar_reference(events)
    batched = AdvisorSession("v1", CONFIG)
    decisions = []
    for event_id, timestamp, stop_length in events:
        decisions.extend(batched.submit_batch([event_id], [timestamp], [stop_length]))
    assert decisions == scalar_decisions
    assert batched.state_digest() == scalar.state_digest()


def test_strict_policy_still_raises_in_batch_mode(tmp_path):
    service = AdvisorService(tmp_path, CONFIG, policy="strict")
    with pytest.raises(DataValidationError):
        service.process_batch([{"vehicle": "veh-a", "t": 1}])
    service = AdvisorService(tmp_path / "b", CONFIG, policy="strict")
    with pytest.raises(DataValidationError):
        service.ingest_lines(["{not json"])


def test_ledger_transitions_parity(tmp_path):
    """Per-vehicle advisor-state ledger events match the scalar run's."""
    events = build_fleet_events(vehicles=2, stops_per_vehicle=60, seed=13)
    lines = [json.dumps(event) for event in events]

    def _run(tag, batch):
        ledger_path = tmp_path / f"{tag}.jsonl"
        service = AdvisorService(tmp_path / tag, CONFIG, policy="repair")
        with use_ledger(RunLedger(ledger_path)):
            if batch == 1:
                for line in lines:
                    service.ingest_line(line)
            else:
                for offset in range(0, len(lines), batch):
                    service.ingest_lines(lines[offset : offset + batch])
        service.close()
        records = [
            json.loads(line)
            for line in ledger_path.read_text().splitlines()
            if line
        ]
        by_vehicle = {}
        for record in records:
            if record.get("event") == "advisor-state":
                key = record["vehicle"]
                by_vehicle.setdefault(key, []).append(
                    {
                        field: record[field]
                        for field in ("from", "to", "reason", "applied")
                    }
                )
        return by_vehicle, service

    scalar_transitions, scalar = _run("scalar", 1)
    batched_transitions, batched = _run("batched", 7)
    assert scalar_transitions, "stream should provoke at least one transition"
    assert batched_transitions == scalar_transitions
    assert {
        v: s.state_digest() for v, s in batched.sessions.items()
    } == {v: s.state_digest() for v, s in scalar.sessions.items()}


def test_plan_chunk_orders_and_splits_runs():
    """Malformed records split their vehicle's run; order is by first index."""
    records = [
        {"id": "a-1", "vehicle": "a", "t": 1, "stop": 5.0},
        {"id": "b-1", "vehicle": "b", "t": 1, "stop": 5.0},
        {"vehicle": "a", "t": 2},  # malformed, attributed to a
        {"id": "a-2", "vehicle": "a", "t": 3, "stop": 6.0},
        {"stop": 1.0},  # malformed, unattributable
        {"id": "b-2", "vehicle": "b", "t": 2, "stop": 7.0},
    ]
    plan = plan_chunk(records)
    kinds = [
        (item.vehicle, len(item))
        if isinstance(item, ColumnarRun)
        else ("malformed", item.index)
        for item in plan.items
    ]
    assert plan.size == 6
    assert kinds == [
        ("a", 1),  # a's first run, split by the malformed record at 2
        ("b", 2),  # b's events 1 and 5 coalesce into one run
        ("malformed", 2),
        ("a", 1),  # a's second run
        ("malformed", 4),
    ]
    run_b = plan.items[1]
    assert list(run_b.indices) == [1, 5]
    assert run_b.timestamps.tolist() == [1.0, 2.0]
    assert run_b.stop_lengths.tolist() == [5.0, 7.0]


@pytest.mark.slow
def test_sigkill_chaos_in_batch_mode(tmp_path):
    """Real SIGKILLs mid-group-commit: batched chaos == scalar clean."""
    events = build_fleet_events(vehicles=3, stops_per_vehicle=30, seed=21)
    config = SessionConfig(
        break_even=B, dedup_window=1024, snapshot_every=8, seed=21
    )
    clean = run_stream(events, tmp_path / "clean", config)
    batched_clean = run_stream(events, tmp_path / "clean-batch", config, batch=8)
    assert batched_clean["digests"] == clean["digests"]
    assert batched_clean["fleet_cost"] == clean["fleet_cost"]
    cell = replace(CELLS["process-kill-batch"], count=2, batch=8)
    chaos = run_cell(cell, events, tmp_path / "chaos", config)
    assert chaos["restarts"] == 2
    assert chaos["digests"] == clean["digests"]
    assert chaos["fleet_cost"] == clean["fleet_cost"]

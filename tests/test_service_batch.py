"""Equivalence harness: the one ingest path vs an independent model.

Every event enters a session through ``AdvisorSession.submit_batch``
(``submit`` is a batch of one; ``AdvisorService.process``/``ingest_line``
are chunks of one through ``process_batch``/``ingest_lines``).  For any
event stream and any batch-boundary split, the decisions returned, the
session state digest (which pins the estimator, the drift detectors,
the health ladder, the bounded histories AND the RNG stream), the
ingestion counters and the flagged checks must equal
:class:`AdmissionModel` — a per-event reference written here, apart from
the code under test: dedup, value guard and clock checks of its own,
with each accepted event applied through ``AdvisorSession._apply``
(the apply path WAL replay uses) on an in-memory session.

Layers:

* Hypothesis property at the session level: adversarial streams
  (duplicates, stale and non-finite timestamps, NaN/negative values,
  drift-inducing regime shifts) under ANY chunking == the model, event
  for event;
* Hypothesis property at the service level: multi-vehicle interleaved
  streams with malformed records mixed in;
* Hypothesis recovery property: abandon a durable batched session at
  any split (optionally tearing the WAL group-commit at any byte),
  recover, redeliver everything — digest equals the model's;
* deterministic pins: batches of one equal the model, strict policy
  still raises, ledger transition parity across chunkings, and a
  real-SIGKILL chaos cycle in batch mode (marked ``slow``).
"""

import json
import math
import tempfile
from collections import deque
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
from repro.validation import ValidationReport
from repro.validation.schemas import stop_event_findings

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


class AdmissionModel:
    """Per-event reference for one vehicle's admission and apply.

    Dedup over the last ``dedup_window`` accepted ids, then the value
    guard, then a finite and monotone clock; a duplicate is counted, a
    rejection is counted, recorded by check name and fed to the failure
    streak.  Accepted events go through ``_apply`` on an in-memory
    session, one by one, exactly as WAL replay applies them.
    """

    def __init__(self, vehicle="v1", config=CONFIG):
        self.session = config.build_session(vehicle)
        self.window = deque(maxlen=config.dedup_window)
        self.clock = None
        self.duplicates = 0
        self.rejected = 0
        self.checks = []

    def submit(self, event_id, timestamp, stop_length):
        if event_id in self.window:
            self.duplicates += 1
            return None
        if not math.isfinite(stop_length):
            check = "non-finite-duration"
        elif stop_length < 0.0:
            check = "negative-duration"
        elif not math.isfinite(timestamp):
            check = "non-finite-start-time"
        elif self.clock is not None and timestamp < self.clock:
            check = "non-monotonic-timestamp"
        else:
            self.window.append(event_id)
            self.clock = timestamp
            return self.session._apply(
                {
                    "seq": self.session.applied + 1,
                    "id": event_id,
                    "t": timestamp,
                    "y": stop_length,
                }
            )
        self.rejected += 1
        self.checks.append(check)
        self.session.note_invalid_event(check)
        return None


def _model_run(events):
    """The model over a whole stream: its decisions and the model."""
    model = AdmissionModel()
    return [model.submit(*event) for event in events], model


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
                ["ok", "ok", "ok", "ok", "ok", "dup", "stale", "nan", "neg", "clock"]
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
        elif kind == "clock":
            bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            events.append((f"c-{index:03d}", bad, value))
        else:
            events.append((f"e-{index:03d}", clock, value))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=17), min_size=1, max_size=5)
    )
    return events, sizes


@given(adversarial_stream())
@settings(max_examples=60, deadline=None)
def test_submit_batch_any_split_bit_identical(case):
    """For ANY stream and ANY chunking, submit_batch == the model."""
    events, sizes = case
    model_decisions, model = _model_run(events)
    report = ValidationReport("repair")
    batched = AdvisorSession("v1", CONFIG, report=report)
    batched_decisions = []
    for chunk in _chunked(events, sizes):
        batched_decisions.extend(
            batched.submit_batch(
                [event[0] for event in chunk],
                [event[1] for event in chunk],
                [event[2] for event in chunk],
            )
        )
    assert batched_decisions == model_decisions
    assert batched.state_digest() == model.session.state_digest()
    assert (batched.duplicates, batched.rejected) == (
        model.duplicates,
        model.rejected,
    )
    assert [issue.check for issue in report.issues] == model.checks


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


def _model_fleet(records):
    """The service-level model: schema validation, then one
    :class:`AdmissionModel` per vehicle; a malformed record feeds the
    failure streak of a vehicle already being served."""
    models = {}
    decisions = []
    checks = []
    malformed = 0
    for record in records:
        findings, event = stop_event_findings(record)
        if event is None:
            malformed += 1
            checks.extend(check for check, _message in findings)
            vehicle = record.get("vehicle") if isinstance(record, dict) else None
            if isinstance(vehicle, str) and vehicle in models:
                models[vehicle].session.note_invalid_event(findings[0][0])
            decisions.append(None)
            continue
        event_id, vehicle, timestamp, stop_length = event
        if vehicle not in models:
            models[vehicle] = AdmissionModel(vehicle)
        decisions.append(models[vehicle].submit(event_id, timestamp, stop_length))
    for model in models.values():
        checks.extend(model.checks)
    return decisions, models, malformed, checks


def _assert_service_matches_model(service, decisions, records):
    """Decisions, per-vehicle state, counters and flagged checks."""
    model_decisions, models, malformed, checks = _model_fleet(records)
    assert decisions == model_decisions
    snapshot = service.health_snapshot()
    expected = {}
    for vehicle, model in models.items():
        expected[vehicle] = model.session.health_snapshot()
        expected[vehicle]["delivery"] = {
            "duplicates": model.duplicates,
            "rejected": model.rejected,
        }
    assert snapshot["vehicles"] == expected
    assert snapshot["fleet_cost"] == sum(
        models[vehicle].session.total_cost for vehicle in sorted(models)
    )
    ingest = snapshot["ingest"]
    assert (ingest["received"], ingest["malformed"], ingest["shed"]) == (
        len(records),
        malformed,
        0,
    )
    assert (ingest["duplicates"], ingest["rejected"]) == (
        sum(model.duplicates for model in models.values()),
        sum(model.rejected for model in models.values()),
    )
    # Row order within a chunk may interleave differently across
    # vehicles, so the findings compare as a multiset.
    assert sorted(issue.check for issue in service.report.issues) == sorted(checks)


@given(fleet_stream())
@settings(max_examples=40, deadline=None)
def test_service_batch_any_split_bit_identical(case):
    """Multi-vehicle chunks of any size == the model, malformed included."""
    records, sizes = case
    with tempfile.TemporaryDirectory() as tmp:
        batched = AdvisorService(Path(tmp) / "batched", CONFIG, policy="repair")
        batched_decisions = []
        for chunk in _chunked(records, sizes):
            batched_decisions.extend(batched.process_batch(chunk))
        batched.close()
    _assert_service_matches_model(batched, batched_decisions, records)


@given(fleet_stream())
@settings(max_examples=20, deadline=None)
def test_service_process_and_ingest_line_match_the_model(case):
    """Chunks of one — ``process`` and ``ingest_line`` — == the model."""
    records, _sizes = case
    with tempfile.TemporaryDirectory() as tmp:
        by_record = AdvisorService(Path(tmp) / "process", CONFIG, policy="repair")
        decisions = [by_record.process(record) for record in records]
        by_record.close()
        by_line = AdvisorService(Path(tmp) / "lines", CONFIG, policy="repair")
        line_decisions = [by_line.ingest_line(json.dumps(record)) for record in records]
        by_line.close()
    _assert_service_matches_model(by_record, decisions, records)
    _assert_service_matches_model(by_line, line_decisions, records)


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
    redeliver the full stream in batches: bit-identical to the model.
    Exercises delta snapshots throughout (snapshot_every=4 compacts on
    nearly every batch)."""
    events, split, chunk, tear = case
    _, model = _model_run(events)
    expected = model.session.state_digest()
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
    """submit and singleton submit_batch calls both equal the model."""
    events = [(f"e-{i:03d}", float(i), float((i * 37) % 200)) for i in range(25)]
    events += [events[3], ("late", 1.0, 5.0), ("inf", math.inf, 5.0)]
    model_decisions, model = _model_run(events)
    batched = AdvisorSession("v1", CONFIG)
    decisions = []
    for event_id, timestamp, stop_length in events:
        decisions.extend(batched.submit_batch([event_id], [timestamp], [stop_length]))
    single = AdvisorSession("v1", CONFIG)
    assert [single.submit(*event) for event in events] == model_decisions
    assert decisions == model_decisions
    for session in (batched, single):
        assert session.state_digest() == model.session.state_digest()
        assert (session.duplicates, session.rejected) == (1, 2)


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

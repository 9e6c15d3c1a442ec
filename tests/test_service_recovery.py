"""Crash-recovery pins: bit-identical state after any interruption.

Two layers:

* a Hypothesis property — for ANY split point of the event stream
  (including splits landing inside a snapshot compaction), abandoning
  the session mid-stream and recovering from its state directory, then
  redelivering the FULL stream, yields a state digest bit-identical to
  an uninterrupted in-memory run;
* the acceptance chaos pin — a real SIGKILL delivered at arbitrary
  event indices by the ``process-kill`` soak cell, restart from
  ``--state-dir``, per-vehicle thresholds (RNG stream included) and
  total cost bit-identical to the uninterrupted run.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import AdvisorSession, SessionConfig
from repro.service.soak import CELLS, build_fleet_events, run_cell, run_stream
from repro.service.wal import WalCorruptionError

B = 28.0
N_EVENTS = 40

#: snapshot_every=3 makes most split points land near (or inside) a
#: compaction boundary, the trickiest recovery window.
CONFIG = SessionConfig(
    break_even=B,
    min_samples=3,
    snapshot_every=3,
    dedup_window=64,
    drift_min_count=5,
    seed=99,
)


def _events() -> list[tuple[str, float, float]]:
    rng = np.random.default_rng(2014)
    lengths = rng.lognormal(3.0, 1.2, N_EVENTS)
    return [
        (f"e-{index:04d}", float(index), float(length))
        for index, length in enumerate(lengths)
    ]


EVENTS = _events()


def _reference_digest() -> str:
    session = AdvisorSession("v1", CONFIG)  # in-memory, uninterrupted
    for event_id, timestamp, stop_length in EVENTS:
        session.submit(event_id, timestamp, stop_length)
    return session.state_digest()


REFERENCE = _reference_digest()


class TestSplitRecovery:
    @settings(max_examples=30, deadline=None)
    @given(split=st.integers(min_value=0, max_value=N_EVENTS))
    def test_any_split_plus_full_redelivery_is_bit_identical(self, split):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:split]:
                first.submit(event_id, timestamp, stop_length)
            # Crash: the session object is simply abandoned — no close,
            # no final compaction.  Durability must not depend on them.
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            # At-least-once delivery: the producer replays the WHOLE
            # stream; everything before the split must dedup to no-ops.
            for event_id, timestamp, stop_length in EVENTS:
                recovered.submit(event_id, timestamp, stop_length)
            assert recovered.applied == N_EVENTS
            assert recovered.duplicates == split
            assert recovered.state_digest() == REFERENCE

    def test_split_inside_compaction_window(self):
        # Deterministic pin of the exact boundary cases around
        # snapshot_every=3: right before, at, and after a compaction.
        for split in (2, 3, 4, 6, 39, 40):
            with tempfile.TemporaryDirectory() as tmp:
                state_dir = Path(tmp) / "v1"
                first = AdvisorSession("v1", CONFIG, state_dir)
                for event_id, timestamp, stop_length in EVENTS[:split]:
                    first.submit(event_id, timestamp, stop_length)
                del first
                recovered = AdvisorSession("v1", CONFIG, state_dir)
                for event_id, timestamp, stop_length in EVENTS[split:]:
                    recovered.submit(event_id, timestamp, stop_length)
                assert recovered.state_digest() == REFERENCE, f"split={split}"

    def test_recovery_restores_the_rng_stream(self):
        # The next drawn threshold after recovery equals the one the
        # uninterrupted session would draw: the RNG state round-trips.
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            uninterrupted = AdvisorSession("v1", CONFIG)
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:17]:
                uninterrupted.submit(event_id, timestamp, stop_length)
                first.submit(event_id, timestamp, stop_length)
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[17:]:
                expected = uninterrupted.submit(event_id, timestamp, stop_length)
                actual = recovered.submit(event_id, timestamp, stop_length)
                assert actual == expected  # thresholds bit-identical

    def test_torn_wal_tail_is_compacted_away_and_parity_holds(self):
        # split=3 lands exactly on a compaction (snapshot_every=3), so
        # the WAL is empty except for the torn bytes: recovery replays
        # nothing, yet must still compact so a later append can never
        # merge into the torn frame.
        split = 3
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:split]:
                first.submit(event_id, timestamp, stop_length)
            del first
            with open(state_dir / "wal.jsonl", "a") as handle:
                handle.write('deadbeef {"torn')  # kill mid-append
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            assert recovered._wal.replay() == []  # torn tail gone
            for event_id, timestamp, stop_length in EVENTS[split:]:
                recovered.submit(event_id, timestamp, stop_length)
            del recovered
            final = AdvisorSession("v1", CONFIG, state_dir)
            assert final.state_digest() == REFERENCE

    def test_recompaction_after_recovery_leaves_empty_wal(self):
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", CONFIG, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:7]:
                first.submit(event_id, timestamp, stop_length)
            del first
            recovered = AdvisorSession("v1", CONFIG, state_dir)
            assert recovered.applied == 7
            # Recovery re-compacts: WAL empty, snapshot == live state.
            assert recovered._wal.replay() == []
            seq, state = recovered._snapshots.load()
            assert seq == 7
            assert state == recovered.to_state()

    def test_a_wal_gap_past_the_snapshot_is_refused(self):
        # Frames 2..4 past a snapshot at seq 0 cannot rebuild the state:
        # event 1 is lost.  Recovery must say so, not apply 2..4.
        config = replace(CONFIG, snapshot_every=1000)
        with tempfile.TemporaryDirectory() as tmp:
            state_dir = Path(tmp) / "v1"
            first = AdvisorSession("v1", config, state_dir)
            for event_id, timestamp, stop_length in EVENTS[:4]:
                first.submit(event_id, timestamp, stop_length)
            del first
            wal_path = state_dir / "wal.jsonl"
            lines = wal_path.read_text().splitlines(keepends=True)
            wal_path.write_text("".join(lines[1:]))
            with pytest.raises(WalCorruptionError, match="seq 2"):
                AdvisorSession("v1", config, state_dir)

    def test_non_finite_timestamps_are_rejected_durably(self):
        # The WAL cannot encode a non-finite clock, and an accepted one
        # would make every later event look stale: reject and count it.
        with tempfile.TemporaryDirectory() as tmp:
            session = AdvisorSession("v1", CONFIG, Path(tmp) / "v1")
            decisions = session.submit_batch(
                ["a", "b", "c", "d"],
                [1.0, float("inf"), float("nan"), 2.0],
                [5.0, 5.0, 5.0, 5.0],
            )
            assert [decision is None for decision in decisions] == [
                False, True, True, False
            ]
            assert (session.applied, session.rejected) == (2, 2)
            assert [issue.check for issue in session._enforcer.report.issues] == [
                "non-finite-start-time"
            ] * 2


class TestSigkillChaosPin:
    """The acceptance crash pin, with real SIGKILLs."""

    @pytest.mark.slow
    def test_chaos_run_is_bit_identical_to_clean_run(self, tmp_path):
        events = build_fleet_events(vehicles=2, stops_per_vehicle=25, seed=3)
        config = SessionConfig(
            break_even=B,
            min_samples=5,
            snapshot_every=7,
            dedup_window=64,
            seed=3,
        )
        clean = run_stream(events, tmp_path / "clean", config)
        cell = replace(CELLS["process-kill"], count=2)
        chaos = run_cell(cell, events, tmp_path / "chaos", config)
        assert len(chaos["kill_points"]) == 2
        assert chaos["restarts"] == 2  # each kill fired exactly once
        assert chaos["fleet_cost"] == clean["fleet_cost"]  # exact, not approx
        assert chaos["digests"] == clean["digests"]
        # The ledger survived the kills and is readable.
        assert (tmp_path / "chaos" / "ledger.jsonl").exists()

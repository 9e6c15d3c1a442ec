"""CLI tests for ``serve``, ``ledger`` and the fault-claim sweep hook."""

import io
import json
import os

import pytest

from repro.cli import main
from repro.engine import RunLedger
from repro.service.soak import build_fleet_events


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.jsonl"
    events = build_fleet_events(vehicles=2, stops_per_vehicle=12, seed=5)
    path.write_text("".join(json.dumps(event) + "\n" for event in events))
    return path


class TestServe:
    def test_serve_processes_a_file(self, events_file, tmp_path, capsys):
        assert main([
            "serve", str(events_file), "--state-dir", str(tmp_path / "state"),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet cost:" in out
        assert "24 received" in out

    def test_serve_reads_stdin(self, tmp_path, capsys, monkeypatch):
        event = {"id": "e-1", "vehicle": "v1", "t": 0.0, "stop": 42.0}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(event) + "\n"))
        assert main(["serve", "-", "--state-dir", str(tmp_path / "state")]) == 0
        assert "v1" in capsys.readouterr().out

    def test_serve_writes_health_snapshot(self, events_file, tmp_path, capsys):
        health = tmp_path / "health.json"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--health", str(health),
        ]) == 0
        snapshot = json.loads(health.read_text())
        assert set(snapshot) == {
            "fleet_cost", "vehicles", "ingest", "states", "durability",
        }
        assert snapshot["durability"]["suspended_sessions"] == 0
        assert len(snapshot["vehicles"]) == 2
        for info in snapshot["vehicles"].values():
            assert info["health"] in ("healthy", "degraded", "safe")
            assert "digest" in info

    def test_serve_restart_recovers_and_dedups(self, events_file, tmp_path, capsys):
        state_dir = tmp_path / "state"
        assert main(["serve", str(events_file), "--state-dir", str(state_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["serve", str(events_file), "--state-dir", str(state_dir)]) == 0
        second = capsys.readouterr().out
        # Full redelivery after restart: same fleet cost, all duplicates.
        cost = [line for line in first.splitlines() if "fleet cost" in line]
        assert cost == [line for line in second.splitlines() if "fleet cost" in line]
        assert "24 duplicate(s)" in second

    def test_plain_and_sharded_restarts_report_the_same_fleet(self, tmp_path, capsys):
        # A restart opens every session its state dir holds, so a second
        # stream touching one vehicle still reports the whole fleet —
        # with or without --shards.
        events = build_fleet_events(vehicles=3, stops_per_vehicle=10, seed=5)
        tail = [e for e in events if e["vehicle"] == events[0]["vehicle"]][-3:]
        streams = []
        for name, part in (("first", [e for e in events if e not in tail]),
                           ("second", tail)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(event) + "\n" for event in part))
            streams.append(str(path))
        dumps = []
        for mode, extra in (("plain", []), ("sharded", ["--shards", "1"])):
            state, health = tmp_path / mode, tmp_path / f"{mode}.json"
            for stream in streams:
                assert main([
                    "serve", stream, "--state-dir", str(state),
                    "--health", str(health), *extra,
                ]) == 0
            dumps.append(json.loads(health.read_text()))
        capsys.readouterr()
        plain, sharded = dumps
        assert len(plain["vehicles"]) == len(sharded["vehicles"]) == 3
        assert plain["fleet_cost"] == sharded["fleet_cost"]
        assert {v: i["digest"] for v, i in plain["vehicles"].items()} == {
            v: i["digest"] for v, i in sharded["vehicles"].items()
        }

    def test_serve_ledger_and_summary_round_trip(self, events_file, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--ledger", str(ledger_path),
        ]) == 0
        capsys.readouterr()
        assert main(["ledger", str(ledger_path)]) == 0
        assert "record(s)" in capsys.readouterr().out

    def test_serve_strict_failure_still_flushes_state(self, tmp_path, capsys):
        # A strict-policy validation error aborts the stream mid-pump;
        # service.close() must still run (finally) so the applied work
        # is compacted durably.
        events = tmp_path / "events.jsonl"
        good = {"id": "e-1", "vehicle": "v1", "t": 0.0, "stop": 42.0}
        bad = {"id": "e-2", "vehicle": "v1", "t": 1.0, "stop": -1.0}
        events.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        state_dir = tmp_path / "state"
        assert main([
            "serve", str(events),
            "--state-dir", str(state_dir),
            "--policy", "strict",
        ]) == 1
        assert "error:" in capsys.readouterr().err
        snapshots = list(state_dir.glob("vehicles/*/snapshot.json"))
        assert len(snapshots) == 1
        payload = json.loads(snapshots[0].read_text()[9:])  # skip crc prefix
        assert payload["seq"] == 1  # the good event was compacted

    def test_serve_missing_events_file_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "absent.jsonl"),
            "--state-dir", str(tmp_path / "state"),
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeBatch:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_batch_value_is_usage_error(self, value, events_file, tmp_path, capsys):
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--batch", value,
        ]) == 2
        assert f"--batch must be >= 1, got {value}" in capsys.readouterr().err

    def test_non_integer_batch_is_rejected_by_argparse(self, events_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", str(events_file),
                "--state-dir", str(tmp_path / "state"),
                "--batch", "many",
            ])
        assert excinfo.value.code == 2

    def _summary(self, events_file, tmp_path, capsys, extra):
        state_dir = tmp_path / "state" / ("batch-" + extra[-1] if extra else "scalar")
        assert main([
            "serve", str(events_file), "--state-dir", str(state_dir),
        ] + extra) == 0
        return capsys.readouterr().out

    def test_batch_output_matches_scalar(self, events_file, tmp_path, capsys):
        scalar = self._summary(events_file, tmp_path, capsys, [])
        batched = self._summary(events_file, tmp_path, capsys, ["--batch", "7"])
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("fleet cost:", "ingestion:"))
            or line.lstrip().startswith(("v-", "veh"))
        ]
        assert pick(batched) == pick(scalar)
        assert "batched:" in batched
        assert "batched:" not in scalar

    def test_batch_of_one_prints_no_batch_line(self, events_file, tmp_path, capsys):
        scalar = self._summary(events_file, tmp_path, capsys, [])
        one = self._summary(events_file, tmp_path, capsys, ["--batch", "1"])
        assert "batched:" not in one
        assert [l for l in one.splitlines() if "fleet cost" in l] == [
            l for l in scalar.splitlines() if "fleet cost" in l
        ]

    def test_health_snapshot_reports_batch_throughput(
        self, events_file, tmp_path, capsys
    ):
        health = tmp_path / "health.json"
        assert main([
            "serve", str(events_file),
            "--state-dir", str(tmp_path / "state"),
            "--health", str(health),
            "--batch", "10",
        ]) == 0
        batch = json.loads(health.read_text())["ingest"]["batch"]
        # 24 events in chunks of 10 -> 3 chunks.
        assert batch["chunks"] == 3
        assert batch["events"] == 24
        assert batch["wall_s"] > 0.0
        assert batch["events_per_s"] > 0.0
        out = capsys.readouterr().out
        assert "batched:     3 chunk(s) of <= 10, 24 event(s)" in out

    def test_batch_mode_with_fsync_and_restart_dedups(
        self, events_file, tmp_path, capsys
    ):
        state_dir = tmp_path / "state"
        args = [
            "serve", str(events_file),
            "--state-dir", str(state_dir),
            "--fsync", "--batch", "8",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        cost = [l for l in first.splitlines() if "fleet cost" in l]
        assert cost == [l for l in second.splitlines() if "fleet cost" in l]
        assert "24 duplicate(s)" in second


class TestLedgerSummary:
    def test_truncated_final_line_is_tolerated(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.emit("advisor-state", vehicle="v1", **{
            "from": "healthy", "to": "degraded", "reason": "drift", "applied": 20,
        })
        ledger.emit("map-start", tasks=4)
        with open(path, "a") as handle:
            handle.write('{"event": "torn')  # crash mid-write
        assert main(["ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "advisor state transitions:" in out
        assert "degraded" in out

    def test_missing_ledger_fails_cleanly(self, tmp_path, capsys):
        assert main(["ledger", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mid_file_corruption_fails_cleanly(self, tmp_path, capsys):
        # Real corruption (not a torn tail) raises JSONDecodeError from
        # the reader; the CLI must report it, not traceback.
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.emit("map-start", tasks=1)
        ledger.emit("map-finish")
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-2]  # corrupt a non-final line
        path.write_text("\n".join(lines) + "\n")
        assert main(["ledger", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaultClaimSweep:
    def test_cache_doctor_sweeps_dead_pid_claims(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        claims = tmp_path / "claims"
        claims.mkdir()
        (claims / "deadbeef.0").write_text("999999999")  # no such pid
        (claims / "cafebabe.0").write_text(str(os.getpid()))  # alive: keep
        assert main([
            "cache", "doctor", "--fault-claims", str(claims),
        ]) == 0
        out = capsys.readouterr().out
        assert "swept 1 stale claim(s)" in out
        assert not (claims / "deadbeef.0").exists()
        assert (claims / "cafebabe.0").exists()

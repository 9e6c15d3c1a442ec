"""The sharded serving tier: pure-partition equivalence, routing, locks,
worker chaos, backpressure warnings and the JSONL front end.

The load-bearing property (the sharding contract): for ANY event
stream, ANY shard count and ANY chunking, the decisions and per-vehicle
``state_digest()`` values produced by :class:`ShardedAdvisorService`
are identical to the single-process :class:`AdvisorService` run —
sharding is a pure partition, never a behavior change.  Stated as a
Hypothesis property over adversarial multi-vehicle streams (malformed
records included) over in-process shards (``workers=False``): worker
threads that run the same worker loop, acks and stop handshake as
worker processes.  Pinned against real worker processes by the
smoke/chaos tests (SIGKILL + restart marked ``slow``).
"""

import asyncio
import json
import os
import signal
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.ledger import RunLedger, use_ledger
from repro.service import AdvisorService, SessionConfig
from repro.service.frontend import JsonlFrontend, parse_listen
from repro.service.shard import (
    SHARD_LOCK_NAME,
    HashRing,
    ShardedAdvisorService,
    ShardLockError,
    acquire_shard_lock,
    release_shard_lock,
    sweep_stale_shard_locks,
)
from repro.service.soak import CELLS, build_fleet_events, run_cell

B = 28.0

#: Aggressive knobs (as in test_service_batch): tiny warmups and low
#: drift thresholds so short Hypothesis streams cross health states.
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


# -- consistent-hash ring -------------------------------------------------


def test_ring_is_deterministic_and_total():
    ring = HashRing(5)
    again = HashRing(5)
    for index in range(500):
        vehicle = f"veh-{index}"
        shard = ring.route(vehicle)
        assert 0 <= shard < 5
        assert again.route(vehicle) == shard


def test_ring_single_shard_routes_everything_to_zero():
    ring = HashRing(1)
    assert {ring.route(f"v{i}") for i in range(50)} == {0}


def test_ring_balance_within_reason():
    ring = HashRing(4)
    counts = [0, 0, 0, 0]
    for index in range(8000):
        counts[ring.route(f"veh-{index:05d}")] += 1
    # Consistent hashing with 64 virtual points per shard is not
    # perfectly uniform, but no shard may be starved or doubled.
    assert min(counts) > 8000 / 4 * 0.5
    assert max(counts) < 8000 / 4 * 2.0


def test_ring_growth_moves_a_minority_of_ids():
    before = HashRing(3)
    after = HashRing(4)
    ids = [f"veh-{i:05d}" for i in range(4000)]
    moved = sum(1 for v in ids if before.route(v) != after.route(v))
    # Consistent hashing: adding one shard reclaims ~1/(N+1) of the
    # space; rehash-everything (mod N) would move ~3/4 of ids.
    assert moved / len(ids) < 0.5


def test_ring_rejects_degenerate_parameters():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        HashRing(0)
    with pytest.raises(InvalidParameterError):
        HashRing(2, replicas=0)


# -- the pure-partition equivalence property (satellite: Hypothesis) ------


@st.composite
def sharded_fleet_stream(draw):
    """Multi-vehicle JSONL lines (malformed mixed in) + shards + chunking."""
    n = draw(st.integers(min_value=5, max_value=40))
    vehicles = ["veh-a", "veh-b", "veh-c", "veh-d"]
    clocks = dict.fromkeys(vehicles, 0.0)
    lines = []
    for index in range(n):
        vehicle = draw(st.sampled_from(vehicles))
        kind = draw(
            st.sampled_from(["ok", "ok", "ok", "ok", "missing", "badnum", "garbage"])
        )
        if kind == "garbage":
            lines.append("{not json at all")
            continue
        if kind == "missing":
            lines.append(json.dumps({"vehicle": vehicle, "t": index}))
            continue
        clocks[vehicle] += 1.0
        value = draw(st.floats(min_value=0.0, max_value=400.0))
        lines.append(
            json.dumps(
                {
                    "id": f"{vehicle}-{index:03d}",
                    "vehicle": vehicle,
                    "t": clocks[vehicle],
                    "stop": "oops" if kind == "badnum" else value,
                }
            )
        )
    shards = draw(st.integers(min_value=1, max_value=5))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=4)
    )
    return lines, shards, sizes


def _chunks(lines, sizes):
    position, index, out = 0, 0, []
    while position < len(lines):
        size = sizes[index % len(sizes)]
        out.append(lines[position : position + size])
        position += size
        index += 1
    return out


@given(sharded_fleet_stream())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharding_is_a_pure_partition(tmp_path_factory, case):
    """Any stream x any shard count x any chunking == single-process."""
    lines, shards, sizes = case
    tmp = tmp_path_factory.mktemp("shard-eq")

    single = AdvisorService(tmp / "single", CONFIG, fsync=False)
    decisions_single = []
    for chunk in _chunks(lines, sizes):
        decisions_single.extend(single.ingest_lines(chunk))
    digests_single = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(single.sessions.items())
    }
    snap_single = single.health_snapshot()
    single.close()

    ledger = RunLedger()
    with use_ledger(ledger):
        sharded = ShardedAdvisorService(
            tmp / "sharded", CONFIG, shards=shards, workers=False
        )
    decisions_sharded = []
    for chunk in _chunks(lines, sizes):
        decisions_sharded.extend(sharded.request_lines(chunk))
    digests_sharded = sharded.digests()
    snap_sharded = sharded.health_snapshot(include_vehicles=True)
    latencies = sharded.take_latencies()
    sharded.close()

    assert decisions_sharded == decisions_single
    assert digests_sharded == digests_single
    assert snap_sharded["fleet_cost"] == snap_single["fleet_cost"]
    for counter in ("received", "malformed", "duplicates", "rejected"):
        assert snap_sharded["ingest"][counter] == snap_single["ingest"][counter]
    assert snap_sharded["states"] == snap_single["states"]
    # The in-process transport runs the real worker loop: every routed
    # event was acked, and each ack left a latency sample.
    assert (
        sum(row["events_acked"] for row in snap_sharded["shards"])
        == snap_sharded["routing"]["dispatched_events"]
    )
    assert bool(latencies) == bool(lines)
    # close() stops each worker; a requested stop is never a handoff.
    assert sharded.restarts == [0] * shards
    assert not [r for r in ledger.events if r["event"] == "shard-restart"]


# -- shard state-dir locks ------------------------------------------------


def test_shard_lock_blocks_live_owner_and_sweeps_dead(tmp_path):
    from repro.engine.faults import owner_record

    lock = acquire_shard_lock(tmp_path / "shard-00")
    assert lock.read_text() == owner_record()
    assert lock.read_text().split()[0] == str(os.getpid())
    with pytest.raises(ShardLockError):
        acquire_shard_lock(tmp_path / "shard-00")
    release_shard_lock(lock)
    release_shard_lock(lock)  # idempotent

    # A lock held by a dead pid is stale: silently swept on acquire.
    dead = tmp_path / "shard-01"
    dead.mkdir()
    (dead / SHARD_LOCK_NAME).write_text("999999999")
    lock = acquire_shard_lock(dead)
    assert lock.read_text() == owner_record()
    release_shard_lock(lock)

    # A torn lock (no readable pid) is also stale.
    torn = tmp_path / "shard-02"
    torn.mkdir()
    (torn / SHARD_LOCK_NAME).write_text("")
    release_shard_lock(acquire_shard_lock(torn))


def test_shard_lock_detects_pid_reuse(tmp_path):
    from repro.engine.faults import process_token

    if process_token(os.getpid()) is None:
        pytest.skip("no /proc start-time tokens on this platform")
    # Simulate pid reuse: the lock names a live pid (ours) but a
    # start-time token from a previous boot/process incarnation.  A
    # bare dead-pid check would treat it as live forever; the token
    # mismatch marks it stale.
    reused = tmp_path / "shard-00"
    reused.mkdir()
    (reused / SHARD_LOCK_NAME).write_text(f"{os.getpid()} 1")
    lock = acquire_shard_lock(reused)  # swept and re-acquired
    assert lock.read_text().split()[1] == process_token(os.getpid())
    release_shard_lock(lock)

    # sweep_stale_shard_locks applies the same discipline...
    (reused / SHARD_LOCK_NAME).write_text(f"{os.getpid()} 1")
    assert sweep_stale_shard_locks(tmp_path) == [str(reused / SHARD_LOCK_NAME)]
    # ...while a matching token (the genuine owner) still blocks.
    lock = acquire_shard_lock(reused)
    with pytest.raises(ShardLockError):
        acquire_shard_lock(reused)
    assert sweep_stale_shard_locks(tmp_path) == []
    release_shard_lock(lock)


def test_sweep_stale_shard_locks_recursive(tmp_path):
    live = tmp_path / "fleet" / "shard-00"
    stale = tmp_path / "fleet" / "shard-01"
    torn = tmp_path / "other" / "nested" / "shard-00"
    for directory in (live, stale, torn):
        directory.mkdir(parents=True)
    (live / SHARD_LOCK_NAME).write_text(str(os.getpid()))
    (stale / SHARD_LOCK_NAME).write_text("999999999")
    (torn / SHARD_LOCK_NAME).write_text("not-a-pid")
    removed = sweep_stale_shard_locks(tmp_path)
    assert sorted(removed) == sorted(
        [str(stale / SHARD_LOCK_NAME), str(torn / SHARD_LOCK_NAME)]
    )
    assert (live / SHARD_LOCK_NAME).exists()  # live owner kept
    assert sweep_stale_shard_locks(tmp_path / "missing") == []


def test_cache_doctor_sweeps_shard_locks(tmp_path, capsys):
    from repro.cli import main

    stale = tmp_path / "state" / "shard-00"
    stale.mkdir(parents=True)
    (stale / SHARD_LOCK_NAME).write_text("999999999")
    assert main(["cache", "doctor", "--fault-claims", str(tmp_path / "state")]) in (
        None,
        0,
    )
    out = capsys.readouterr().out
    assert "shard locks:     swept 1 stale lock(s)" in out
    assert not (stale / SHARD_LOCK_NAME).exists()


# -- backpressure warnings (satellite: rate-limited ledger event) ---------


def test_offer_shed_emits_rate_limited_ledger_warning(tmp_path):
    ledger = RunLedger()
    service = AdvisorService(tmp_path / "svc", CONFIG, max_queue=1)
    with use_ledger(ledger):
        service.offer({"id": "e-0", "vehicle": "v", "t": 0.0, "stop": 1.0})
        for index in range(2001):
            service.offer({"id": f"e-{index + 1}", "vehicle": "v", "t": 0.0, "stop": 1.0})
    warnings = [r for r in ledger.events if r["event"] == "advisor-backpressure"]
    # shed 2001 times: warned at shed==1, 1000 and 2000 — not 2001 times.
    assert [w["shed"] for w in warnings] == [1, 1000, 2000]
    assert all(w["tier"] == "service" for w in warnings)
    assert service.shed == 2001
    service.drain()
    service.close()


def test_sharded_offer_lines_sheds_and_warns(tmp_path):
    ledger = RunLedger()
    with use_ledger(ledger):
        service = ShardedAdvisorService(
            tmp_path / "fleet", CONFIG, shards=2, workers=True, queue_depth=1
        )
        try:
            # Saturate: a 1-deep queue with slow consumers must shed
            # some of a burst of single-line offers.
            lines = [
                json.dumps(
                    {"id": f"e-{i:04d}", "vehicle": f"v-{i % 7}", "t": float(i), "stop": 5.0}
                )
                for i in range(400)
            ]
            for line in lines:
                service.offer_lines([line])
            deadline = time.monotonic() + 60.0
            while service.shed == 0 and time.monotonic() < deadline:
                for line in lines:
                    service.offer_lines([line])
            service.drain(timeout=120.0)
        finally:
            service.close()
    assert service.shed > 0
    warnings = [r for r in ledger.events if r["event"] == "advisor-backpressure"]
    assert warnings and warnings[0]["tier"] == "shard"
    # Every warning reports the triggering shard's own count, and the
    # aggregate can never drift from the per-shard decomposition.
    assert all(w["shed"] <= w["shed_total"] for w in warnings)
    assert service.shed == sum(service.shed_by_shard)


def test_tier_shed_counts_per_shard_with_offer_warn_cadence(tmp_path):
    ledger = RunLedger()
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=3, workers=False
    )
    with use_ledger(ledger):
        service._note_shed(0, 1)    # first shed on shard 0 -> warn
        service._note_shed(0, 998)  # 999 total: quiet
        service._note_shed(0, 4)    # 999 -> 1003 crosses the 1000 mark -> warn
        service._note_shed(1, 2)    # first shed on shard 1 -> warn
        service._note_shed(1, 500)  # 502 total: quiet
    warnings = [r for r in ledger.events if r["event"] == "advisor-backpressure"]
    # Cadence matches AdvisorService.offer per shard (first shed, then
    # every 1000th), stated as a boundary crossing so the multi-event
    # jump over 1000 still warns; shard 1's first shed warns even
    # though the *aggregate* was already past 1000.
    assert [(w["shard"], w["shed"], w["shed_total"]) for w in warnings] == [
        (0, 1, 1),
        (0, 1003, 1003),
        (1, 2, 1005),
    ]
    assert all(w["tier"] == "shard" for w in warnings)
    assert service.shed_by_shard == [1003, 502, 0]
    assert service.shed == 1505
    snapshot = service.health_snapshot()
    assert snapshot["routing"]["shed_events"] == 1505
    assert snapshot["routing"]["shed_by_shard"] == [1003, 502, 0]
    assert sum(row["tier_shed"] for row in snapshot["shards"]) == 1505
    service.close()


# -- process-mode fleet: smoke, warm recovery, chaos ----------------------


def _single_reference(tmp, lines):
    service = AdvisorService(tmp / "reference", CONFIG, fsync=False)
    decisions = service.ingest_lines(lines)
    digests = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(service.sessions.items())
    }
    cost = service.fleet_cost
    service.close()
    return decisions, digests, cost


def test_process_mode_matches_single_and_recovers_warm(tmp_path):
    """Real workers: decisions/digests == single process; a cold restart
    with no traffic warm-recovers every session from its base snapshot."""
    events = build_fleet_events(vehicles=5, stops_per_vehicle=12, seed=21)
    lines = [json.dumps(event) for event in events]
    decisions_single, digests_single, cost_single = _single_reference(
        tmp_path, lines
    )

    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, fsync=True)
    try:
        decisions = service.request_lines(lines, timeout=120.0)
        digests = service.digests(timeout=120.0)
        snapshot = service.health_snapshot(include_vehicles=True, timeout=120.0)
    finally:
        service.close()
    assert decisions == decisions_single
    assert digests == digests_single
    assert snapshot["fleet_cost"] == cost_single
    assert snapshot["routing"]["shards"] == 2
    assert [row["restarts"] for row in snapshot["shards"]] == [0, 0]
    # Locks are released by the graceful close.
    assert not list((tmp_path / "fleet").rglob(SHARD_LOCK_NAME))

    # Cold restart, zero traffic: each shard must open every session
    # directory it holds so digests come back bit-identical.
    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=2, fsync=True)
    try:
        assert service.digests(timeout=120.0) == digests_single
    finally:
        service.close()

    # Both transports leave the same per-shard files, and no registry.
    threads = ShardedAdvisorService(
        tmp_path / "threads", CONFIG, shards=2, fsync=True, workers=False
    )
    try:
        threads.request_lines(lines)
    finally:
        threads.close()
    assert _layout(tmp_path / "threads") == _layout(tmp_path / "fleet")
    assert not list((tmp_path / "fleet").rglob("vehicles.idx"))


def _layout(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def test_in_process_tier_recovers_warm(tmp_path):
    """A reopened in-process tier warm-recovers every session from the
    base snapshots in its shards, with no traffic redelivered."""
    events = build_fleet_events(vehicles=3, stops_per_vehicle=8, seed=23)
    lines = [json.dumps(event) for event in events]
    _, digests_single, _cost = _single_reference(tmp_path, lines)

    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=3, workers=False)
    try:
        service.submit_lines(lines)
        service.drain()
        before = service.digests()
    finally:
        service.close()
    assert before == digests_single
    assert len(before) == 3
    assert not list((tmp_path / "fleet").rglob("vehicles.idx"))

    service = ShardedAdvisorService(tmp_path / "fleet", CONFIG, shards=3, workers=False)
    try:
        assert service.digests() == before
        assert service.health_snapshot()["routing"]["dispatched_events"] == 0
    finally:
        service.close()


@pytest.mark.slow
def test_worker_sigkill_chaos_recovers_bit_identically(tmp_path):
    """SIGKILL a live worker mid-stream: the fleet keeps serving, the
    killed shard recovers from WAL+snapshots, digests stay exact."""
    events = build_fleet_events(vehicles=4, stops_per_vehicle=30, seed=29)
    lines = [json.dumps(event) for event in events]
    _, digests_single, cost_single = _single_reference(tmp_path, lines)

    result = run_cell(CELLS["worker-kill"], events, tmp_path / "fleet", CONFIG)
    assert result["restarts"] == [1, 1]  # round-robin: each shard died once
    assert result["digests"] == digests_single
    assert result["fleet_cost"] == cost_single
    assert result["snapshot"]["routing"]["restarts"] == 2


def test_chaos_cell_refuses_a_stream_too_short_for_its_faults(tmp_path):
    """A cell places its faults before it builds anything: a stream
    with fewer fault slots than the cell's count is refused up front,
    never served with fewer faults than configured."""
    from repro.errors import InvalidParameterError
    from repro.service.soak import main

    # 2 vehicles x 6 stops = 12 events = 2 chunks: one slot, two kills.
    events = build_fleet_events(vehicles=2, stops_per_vehicle=6, seed=29)
    with pytest.raises(InvalidParameterError, match="room for 1 .*needs 2"):
        run_cell(CELLS["worker-kill"], events, tmp_path / "fleet", CONFIG)
    assert not (tmp_path / "fleet" / "state").exists()  # no worker spawned
    with pytest.raises(InvalidParameterError, match="room for 2 kill points"):
        run_cell(CELLS["process-kill"], events[:3], tmp_path / "proc", CONFIG)
    assert not (tmp_path / "proc" / "state").exists()
    argv = ["--scenario", "worker-kill", "--vehicles", "2", "--stops", "6"]
    assert main([*argv, "--out", str(tmp_path / "cli")]) == 1


# -- the JSONL front end --------------------------------------------------


def test_parse_listen_specs():
    from repro.errors import InvalidParameterError

    assert parse_listen("unix:/run/advisor.sock") == ("unix", "/run/advisor.sock")
    assert parse_listen("./advisor.sock") == ("unix", "./advisor.sock")
    assert parse_listen("tcp:0.0.0.0:9000") == ("tcp", "0.0.0.0", 9000)
    assert parse_listen("localhost:9000") == ("tcp", "localhost", 9000)
    assert parse_listen(":9000") == ("tcp", "127.0.0.1", 9000)
    for bad in ("", "unix:", "9000", "host:port"):
        with pytest.raises(InvalidParameterError):
            parse_listen(bad)


def test_frontend_socket_decisions_and_health(tmp_path):
    """JSONL in, one JSON decision per line out, /health over the same
    socket — against an in-process sharded service (worker threads)."""
    events = build_fleet_events(vehicles=3, stops_per_vehicle=6, seed=33)
    lines = [json.dumps(event) for event in events]
    decisions_single, digests_single, _cost = _single_reference(tmp_path, lines)

    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=3, workers=False
    )
    frontend = JsonlFrontend(service)
    sock_path = str(tmp_path / "advisor.sock")

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            frontend.serve(f"unix:{sock_path}", ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)

        def stream_client():
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(sock_path)
                handle = sock.makefile("rw")
                for line in lines:
                    handle.write(line + "\n")
                handle.flush()
                sock.shutdown(socket.SHUT_WR)
                return [json.loads(reply) for reply in handle]

        replies = await asyncio.to_thread(stream_client)

        def health_client():
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(sock_path)
                sock.sendall(b"GET /health HTTP/1.0\r\n\r\n")
                payload = b""
                while chunk := sock.recv(65536):
                    payload += chunk
            return payload

        raw = await asyncio.to_thread(health_client)
        frontend.request_stop()
        await asyncio.wait_for(server, timeout=30)
        return replies, raw

    replies, raw = asyncio.run(scenario())
    service_digests = service.digests()
    service.close()

    assert replies == decisions_single
    assert service_digests == digests_single
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    snapshot = json.loads(body)
    assert snapshot["routing"]["shards"] == 3
    assert snapshot["ingest"]["received"] == len(lines)


class _EchoService:
    """Minimal service shape (`request_lines`/`health_snapshot`/`close`)
    for frontend protocol tests — no advisor state involved."""

    def request_lines(self, lines):
        return [{"echo": line} for line in lines]

    def health_snapshot(self):
        return {"ok": True}

    def close(self):
        pass


def test_frontend_http_hardening(tmp_path, monkeypatch):
    """Malformed, partial and non-GET HTTP on the health socket get clean
    error responses and a closed connection — never a hung handler task,
    never a traceback, and the server keeps serving afterwards."""
    import contextlib

    from repro.service import frontend as frontend_mod

    monkeypatch.setattr(frontend_mod, "_HTTP_HEADER_TIMEOUT_S", 0.2)
    monkeypatch.setattr(frontend_mod, "_LINE_LIMIT", 1024)
    frontend = JsonlFrontend(_EchoService())
    sock_path = str(tmp_path / "advisor.sock")

    async def exchange(payload: bytes) -> bytes:
        reader, writer = await asyncio.open_unix_connection(sock_path)
        writer.write(payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        return raw

    async def scenario():
        ready = asyncio.Event()
        server = asyncio.create_task(
            frontend.serve(f"unix:{sock_path}", ready=ready, install_signals=False)
        )
        await asyncio.wait_for(ready.wait(), timeout=30)
        results = {}
        results["post"] = await exchange(b"POST /health HTTP/1.0\r\n\r\n")
        results["bare"] = await exchange(b"GET\r\n")
        results["junk"] = await exchange(b"GET /health HTTP/1.0 junk\r\n\r\n")
        # Stalls mid-headers: the write side stays open, so only the
        # bounded header read can unblock the handler.
        results["stall"] = await exchange(b"GET /health HTTP/1.0\r\nx-partial: ")
        results["head"] = await exchange(b"HEAD /health HTTP/1.0\r\n\r\n")
        # One line over the stream limit: unframed from here, close.
        results["overrun"] = await exchange(b"x" * 4096)
        # The server survived all of it: a well-formed request still works.
        results["ok"] = await exchange(b"GET /health HTTP/1.0\r\n\r\n")
        frontend.request_stop()
        await asyncio.wait_for(server, timeout=30)
        return results

    results = asyncio.run(scenario())
    assert results["post"].startswith(b"HTTP/1.0 405")
    assert results["bare"].startswith(b"HTTP/1.0 400")
    assert results["junk"].startswith(b"HTTP/1.0 400")
    assert results["stall"].startswith(b"HTTP/1.0 408")
    head, _, body = results["head"].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200")
    assert body == b""  # HEAD: headers only
    assert results["overrun"] == b""  # closed cleanly, no response
    head, _, body = results["ok"].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200")
    payload = json.loads(body)
    assert payload["ok"] is True
    # The frontend annotates health with its own connection telemetry.
    assert payload["frontend"]["slow_client_disconnects"] == 0


def test_frontend_stdin_pump(tmp_path):
    events = build_fleet_events(vehicles=2, stops_per_vehicle=5, seed=41)
    lines = [json.dumps(event) for event in events]
    _, digests_single, _cost = _single_reference(tmp_path, lines)
    service = ShardedAdvisorService(
        tmp_path / "fleet", CONFIG, shards=2, workers=False
    )
    frontend = JsonlFrontend(service, batch=4)
    routed = asyncio.run(frontend.pump_stdin(iter(line + "\n" for line in lines)))
    digests = service.digests()
    service.close()
    assert routed == len(lines)
    assert digests == digests_single


# -- CLI ------------------------------------------------------------------


def test_serve_cli_sharded(tmp_path, capsys):
    from repro.cli import main

    events = build_fleet_events(vehicles=3, stops_per_vehicle=8, seed=17)
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("".join(json.dumps(e) + "\n" for e in events))
    health_path = tmp_path / "health.json"
    code = main(
        [
            "serve",
            str(events_path),
            "--state-dir",
            str(tmp_path / "state"),
            "--shards",
            "2",
            "--break-even",
            str(B),
            "--health",
            str(health_path),
        ]
    )
    assert code in (None, 0)
    out = capsys.readouterr().out
    assert "sharded:     2 shard(s)" in out
    snapshot = json.loads(health_path.read_text())
    assert snapshot["routing"]["shards"] == 2
    assert snapshot["ingest"]["received"] == len(events)
    assert len(snapshot["shards"]) == 2


def test_serve_cli_sharded_usage_errors(tmp_path, capsys):
    from repro.cli import main

    events_path = tmp_path / "events.jsonl"
    events_path.write_text("")
    base = ["serve", str(events_path), "--state-dir", str(tmp_path / "state")]
    assert main(base + ["--shards", "0"]) == 2
    assert main(base + ["--listen", ":0"]) == 2
    capsys.readouterr()

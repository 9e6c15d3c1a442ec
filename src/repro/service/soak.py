"""Deterministic chaos grid for the advisor service.

The paper's guarantees (DET <= 2, N-Rand e/(e-1)) hold for the deployed
stack only if every decision and per-vehicle ``state_digest()`` survives
the failures the stack claims to survive.  This harness checks that on
one table of scenario cells (:data:`CELLS`), each a serving tier x a
fault kind, against one parity gate:

1. synthesize an NREL-shaped fleet event stream
   (:func:`build_fleet_events` — the same generator the experiments
   use, interleaved into one timestamped multi-vehicle feed);
2. run it **uninterrupted** through an :class:`AdvisorService` into a
   clean state directory — the one reference every cell is gated on;
3. run each requested cell (:func:`run_cell`): it places its faults on
   the stream *before* it builds anything, refusing a stream too short
   to hold them, serves the stream through its tier while they fire,
   and raises unless its own invariant held;
4. require the cell's fleet cost and per-vehicle digests to be
   **bit-identical** to the clean run's (:func:`parity_mismatches`).

==================== ======= =====================================================
cell                 tier    fault, and the invariant the cell checks
==================== ======= =====================================================
process-kill         process SIGKILL the serving child at 3 event indices; each
                             restart recovers from the state dir and redelivers
                             the whole stream.  Restarts == kills.
process-kill-batch   process the same through 16-event columnar chunks, so kills
                             tear group commits.  Restarts == kills.
disk                 process 2 ``ENOSPC`` windows over the WAL, snapshot and
                             ledger writes.  At least one suspension, then a
                             clean heal: no suspended session, no drop.
worker-kill          shards  SIGKILL a live worker (round-robin) before 2
                             chunks.  Restarts == kills.
worker-hang          shards  SIGSTOP the worker owning a chunk before 2 chunks.
                             Detected hangs == frozen workers.
poison               shards  one line that SIGKILLs any worker touching it.  The
                             quarantine sidecar holds exactly that line.
primary-kill         replica SIGKILL a locked primary mid-stream while a
                             shipping loop feeds a standby; promote it (fenced),
                             finish by redelivery, then backup -> restore ->
                             doctor -> promote.  The kill fires, frames ship
                             before it, and the restored digests equal the
                             final ones.
==================== ======= =====================================================

Run it directly (each CI ``service-chaos`` matrix entry runs one cell)::

    python -m repro.service.soak --scenario process-kill worker-hang \
        --vehicles 4 --stops 40 --out results/soak

Exit status 0 means every cell held its invariant and its parity; the
clean run and each cell's state directories, WALs, ledger and
``summary.json`` are left under ``--out`` for post-mortems.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..engine.faults import Fault, FaultInjector, FsFault, FsFaultInjector
from ..engine.ledger import RunLedger, use_ledger
from ..errors import InvalidParameterError
from ..fleet import area_config
from ..fleet.generator import FleetGenerator
from .advisor import AdvisorService
from .replica import (
    LocalReplicaTarget,
    backup,
    fleet_doctor,
    promote,
    restore,
    sync_once,
)
from .session import SessionConfig
from .shard import (
    POISON_SIDECAR_NAME,
    ShardedAdvisorService,
    acquire_shard_lock,
    release_shard_lock,
)

__all__ = [
    "CELLS",
    "Cell",
    "SoakResult",
    "build_fleet_events",
    "main",
    "parity_mismatches",
    "run_cell",
    "run_stream",
]

#: Shard-tier fleet size and the events per submitted chunk.
SHARDS = 2
SHARD_CHUNK = 8
#: Worker silence (s) the worker-hang cell's supervisor tolerates.
HANG_TIMEOUT = 2.0
#: Crashes a chunk may cause before the poison cell's supervisor
#: quarantines it.
POISON_BUDGET = 3
POISON_LINE = json.dumps(
    {"id": "poison-0", "vehicle": "poison-pill", "t": -1.0, "stop": 1.0},
    sort_keys=True,
)
#: Consecutive failing disk operations per injected ``ENOSPC`` window.
DISK_WINDOW = 3
#: Primary-kill pacing: the standby's shipping interval and the
#: primary's per-event delay, so frames stream mid-run instead of
#: racing a microsecond burst.
SYNC_INTERVAL = 0.01
PRIMARY_EVENT_DELAY = 0.005


@dataclass(frozen=True)
class Cell:
    """One scenario: a serving tier, a fault kind and its fault count."""

    tier: str  # "process", "shards" or "replica"
    fault: str  # "kill", "disk", "hang" or "poison"
    count: int  # faults the stream must hold
    batch: int = 1  # process tier: ingest chunk size


CELLS = {
    "process-kill": Cell("process", "kill", 3),
    "process-kill-batch": Cell("process", "kill", 3, batch=16),
    "disk": Cell("process", "disk", 2),
    "worker-kill": Cell("shards", "kill", 2),
    "worker-hang": Cell("shards", "hang", 2),
    "poison": Cell("shards", "poison", 1),
    "primary-kill": Cell("replica", "kill", 1),
}


def build_fleet_events(
    vehicles: int = 4,
    stops_per_vehicle: int = 80,
    seed: int = 7,
    area: str = "chicago",
) -> list[dict]:
    """An NREL-shaped multi-vehicle event stream, round-robin interleaved.

    Timestamps are the global event index, so every vehicle's clock is
    strictly monotone and the stream is reproducible byte-for-byte from
    ``(vehicles, stops_per_vehicle, seed, area)``.
    """
    config = area_config(area)
    generator = FleetGenerator(config, seed=seed)
    rng = np.random.default_rng(seed)
    fleet = [generator.generate_vehicle(index, rng) for index in range(vehicles)]
    events: list[dict] = []
    for stop_index in range(stops_per_vehicle):
        for vehicle in fleet:
            stops = vehicle.stop_lengths
            stop = float(stops[stop_index % stops.size])
            events.append(
                {
                    "id": f"{vehicle.vehicle_id}-{stop_index:05d}",
                    "vehicle": vehicle.vehicle_id,
                    "t": float(len(events)),
                    "stop": stop,
                }
            )
    return events


class SoakResult(dict):
    """``{"fleet_cost": float, "digests": {vehicle: sha}, "snapshot": ...}``."""


def _noop(item):
    """Identity task for the kill injector (module-level: picklable)."""
    return item


def run_stream(
    events: list[dict],
    state_dir: str | Path,
    config: SessionConfig,
    *,
    policy: str = "repair",
    injector: FaultInjector | None = None,
    ledger_path: str | Path | None = None,
    batch: int = 1,
    fs=None,
) -> SoakResult:
    """Serve ``events`` into ``state_dir`` (recovering any prior state).

    ``injector`` is consulted with the global event index before each
    event — a ``"kill"`` fault SIGKILLs the process right there, which
    is the whole point.  Events are served through ``process_batch`` in
    chunks of ``batch``; the injector is still consulted per event index
    (before the chunk applies), so a kill can land mid-plan and tear a
    group-commit.  ``fs`` is an optional
    :class:`repro.engine.faults.FsFaultInjector` threaded into the
    service's WAL/snapshot writers and the run ledger — the disk-fault
    chaos hook.
    """
    ledger = (
        RunLedger(ledger_path, append=True, fs=fs) if ledger_path is not None else None
    )
    service = AdvisorService(Path(state_dir), config, policy=policy, fs=fs)
    if ledger is not None:
        with use_ledger(ledger):
            _serve(service, events, injector, batch)
    else:
        _serve(service, events, injector, batch)
    service.close()
    snapshot = service.health_snapshot()
    return SoakResult(
        fleet_cost=service.fleet_cost,
        digests={
            vehicle: info["digest"] for vehicle, info in snapshot["vehicles"].items()
        },
        snapshot=snapshot,
    )


def _serve(
    service: AdvisorService, events: list[dict], injector, batch: int = 1
) -> None:
    for start in range(0, len(events), batch):
        chunk = events[start : start + batch]
        if injector is not None:
            for index in range(start, start + len(chunk)):
                injector(index)
        service.process_batch(chunk)


def _spread(count: int, room: int, what: str) -> list[int]:
    """``count`` distinct, evenly spread slots in ``1..room``.

    A stream too short to hold them is refused: a cell that quietly
    fired fewer faults than configured would still pass its checks.
    """
    if count > room:
        raise InvalidParameterError(
            f"the stream has room for {max(room, 0)} {what}, the cell needs "
            f"{count}; use a longer stream"
        )
    return [1 + ((2 * index + 1) * room) // (2 * count) for index in range(count)]


def _spawn(*args) -> multiprocessing.Process:
    child = multiprocessing.get_context("spawn").Process(target=_child, args=args)
    child.start()
    return child


def _child(
    events, state_dir, config, injector, result_path, batch, ledger_path, primary
):
    """Child-process entry: serve the stream under ``injector``, persist the result.

    The kill injector is built in the parent, so the child's pid differs
    from its creator's and a ``"kill"`` fault delivers a real SIGKILL
    (see :mod:`repro.engine.faults`).  A replica-tier ``primary`` holds
    its state dir's ``shard.lock`` like a real primary — the SIGKILL
    leaves it behind with a dead owner, which ``promote --fence`` must
    recognise as stale — and paces the stream by
    :data:`PRIMARY_EVENT_DELAY`.
    """
    hook, lock = injector, None
    if primary:
        lock = acquire_shard_lock(state_dir)

        def hook(index):
            time.sleep(PRIMARY_EVENT_DELAY)
            injector(index)

    try:
        result = run_stream(
            events,
            state_dir,
            config,
            injector=hook,
            ledger_path=ledger_path,
            batch=batch,
        )
    finally:
        if lock is not None:
            release_shard_lock(lock)
    Path(result_path).write_text(json.dumps(result, sort_keys=True))


def _kill_injector(points: list[int], out_dir: Path) -> FaultInjector:
    # Claims live under the cell's directory, so each kill fires exactly
    # once across the restarts; a dead-pid claim is the record of a kill
    # already fired and must not be swept between them.
    return FaultInjector(
        _noop, {index: Fault("kill") for index in points}, out_dir / "claims"
    )


def _process_tier(cell: Cell, events, out_dir: Path, config) -> dict:
    ledger = out_dir / "ledger.jsonl"
    if cell.fault == "disk":
        # One WAL append per event dominates the op schedule; keeping
        # every window inside its first half leaves the probe backoff
        # events to spare to heal before the stream ends.
        room = len(events) // 2 // (DISK_WINDOW + 1)
        slots = _spread(cell.count, room, "disk windows")
        ordinals = [slot * (DISK_WINDOW + 1) for slot in slots]
        fs = FsFaultInjector(
            {ordinal: FsFault(count=DISK_WINDOW) for ordinal in ordinals},
            out_dir / "claims",
        )
        result = run_stream(
            events,
            out_dir / "state",
            config,
            ledger_path=ledger,
            batch=cell.batch,
            fs=fs,
        )
        durability = result["snapshot"]["durability"]
        if durability["suspensions"] < 1:
            raise RuntimeError(
                f"no injected disk fault suspended durability ({fs.raised} raised)"
            )
        if durability["suspended_sessions"] or durability["dropped_events"]:
            raise RuntimeError(f"durability did not heal cleanly: {durability}")
        return {
            **result,
            "windows": ordinals,
            "raised": fs.raised,
            "suspensions": durability["suspensions"],
        }
    points = _spread(cell.count, len(events) - 1, "kill points")
    injector = _kill_injector(points, out_dir)
    result_path = out_dir / "result.json"
    for restarts in range(cell.count + 1):
        child = _spawn(
            events,
            out_dir / "state",
            config,
            injector,
            result_path,
            cell.batch,
            ledger,
            False,
        )
        child.join()
        if child.exitcode == 0:
            break
        if child.exitcode > 0:
            raise RuntimeError(f"serving child failed with exit code {child.exitcode}")
    else:
        raise RuntimeError(
            f"the service died {cell.count + 1} times for {cell.count} kill(s)"
        )
    if restarts != cell.count:
        raise RuntimeError(f"{restarts} of {cell.count} kill(s) at {points} fired")
    result = json.loads(result_path.read_text())
    return {**result, "kill_points": points, "restarts": restarts}


def _await(done, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not done():
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what} did not happen within {timeout:.0f} s")
        time.sleep(0.02)


def _live_pid(service, shard: int) -> int:
    pid = service.worker_pids[shard]
    if pid is None:
        raise RuntimeError(f"shard {shard} has no live worker to fault")
    return pid


def _kill_worker(service, chunk, nth: int) -> None:
    """SIGKILL a live worker, round-robin over shards, and wait for the
    respawn so consecutive kills cannot collapse into one observed death."""
    victim = nth % SHARDS
    baseline = service.restarts[victim]
    os.kill(_live_pid(service, victim), signal.SIGKILL)
    _await(lambda: service.restarts[victim] > baseline, f"shard {victim} respawn")


def _freeze_worker(service, chunk, nth: int) -> None:
    """SIGSTOP the worker owning the chunk's first vehicle, just before
    the chunk parks in-flight work on it.

    The fleet settles first: hang detection only arms once a worker has
    spoken since its last spawn, so a frozen booting worker would be
    excused forever.  The freeze must precede the submit — a worker
    frozen after acking everything is idle, and idle silence is not a
    hang.  Detection, SIGKILL, respawn and redelivery finish inside the
    next drain.
    """
    service.drain(timeout=300.0)
    os.kill(_live_pid(service, service.route(chunk[0]["vehicle"])), signal.SIGSTOP)


def _poison(service, chunk, nth: int) -> None:
    """Submit the poison line on a drained fleet — it must be the sole
    head of its shard's queue for crash attribution — and wait for its
    quarantine."""
    service.drain(timeout=300.0)
    service.submit_lines([POISON_LINE])
    _await(lambda: service.quarantined_chunks > nth, "poison quarantine", 120.0)


#: Per shard-tier fault: the hook run before a fault slot's chunk, and
#: the routing counter that must end equal to the cell's fault count.
_SHARD_FAULTS = {
    "kill": (_kill_worker, "restarts"),
    "hang": (_freeze_worker, "hangs"),
    "poison": (_poison, "quarantined_chunks"),
}


def _shard_tier(cell: Cell, events, out_dir: Path, config) -> dict:
    chunks = [
        events[start : start + SHARD_CHUNK]
        for start in range(0, len(events), SHARD_CHUNK)
    ]
    slots = _spread(cell.count, len(chunks) - 1, f"{SHARD_CHUNK}-event chunk slots")
    knobs: dict = {}
    if cell.fault == "hang":
        knobs["hang_timeout"] = HANG_TIMEOUT
    if cell.fault == "poison":
        # Every redelivery burns one claim and the quarantine decision is
        # made parent-side: the line must keep killing until quarantined.
        knobs["injector"] = FaultInjector(
            _noop,
            {POISON_LINE: Fault("kill", times=4 * POISON_BUDGET * cell.count)},
            out_dir / "claims",
        )
        knobs["poison_budget"] = POISON_BUDGET
    inject, counter = _SHARD_FAULTS[cell.fault]
    service = ShardedAdvisorService(
        out_dir / "state",
        config,
        shards=SHARDS,
        ledger_path=out_dir / "ledger.jsonl",
        **knobs,
    )
    try:
        for index, chunk in enumerate(chunks):
            if index in slots:
                inject(service, chunk, slots.index(index))
            service.submit_lines([json.dumps(record) for record in chunk])
        service.drain(timeout=300.0)
        digests = service.digests(timeout=120.0)
        snapshot = service.health_snapshot(timeout=120.0)
    finally:
        service.close()
    observed = snapshot["routing"][counter]
    if observed != cell.count:
        raise RuntimeError(
            f"{cell.count} {cell.fault} fault(s) injected at chunks {slots}, "
            f"supervisor counted {observed} {counter}"
        )
    outcome = {
        "fleet_cost": snapshot["fleet_cost"],
        "digests": digests,
        "snapshot": snapshot,
        "slots": slots,
        "restarts": list(service.restarts),
        "hangs": list(service.hangs),
    }
    if cell.fault == "poison":
        sidecar = (out_dir / "state" / POISON_SIDECAR_NAME).read_text()
        records = [json.loads(line) for line in sidecar.splitlines() if line.strip()]
        if [record["lines"] for record in records] != [[POISON_LINE]] * cell.count:
            raise RuntimeError(f"unexpected quarantine sidecar contents: {records}")
        outcome["quarantine"] = records
    return outcome


def _replica_tier(cell: Cell, events, out_dir: Path, config) -> dict:
    points = _spread(cell.count, len(events) - 1, "kill points")
    primary, standby = out_dir / "primary", out_dir / "standby"
    injector = _kill_injector(points, out_dir)
    child = _spawn(
        events, primary, config, injector, out_dir / "result.json", 1, None, True
    )
    # Ship only while the primary lives: its disk is never read after
    # the kill (the machine-loss story), so the standby holds only what
    # was shipped in time.
    target = LocalReplicaTarget(standby)
    sync_passes = frames_shipped = 0
    while child.is_alive():
        frames_shipped += sync_once(primary, target)["frames"]
        sync_passes += 1
        time.sleep(SYNC_INTERVAL)
    child.join()
    if child.exitcode == 0:
        raise RuntimeError(
            f"the primary finished the stream: kill at {points} never fired"
        )
    if frames_shipped == 0:
        raise RuntimeError("the standby caught no frame before the primary died")

    # The operator runbook: promote behind the dead primary's lock,
    # finish by full redelivery, then round-trip the cold archive.
    promote(standby, config, fence=primary)
    final = run_stream(events, standby, config)
    archive, restored = out_dir / "archive", out_dir / "restored"
    backup(standby, archive)
    restore(archive, restored)
    report = fleet_doctor(restored, archive_dir=archive, verify_restore=True)
    if not report["ok"]:
        raise RuntimeError(
            f"fleet doctor rejected the backup/restore round trip: {report['problems']}"
        )
    recovered = promote(restored, config)
    if parity_mismatches(final, recovered):
        raise RuntimeError(
            "backup -> restore -> promote landed on different digests than "
            "the live standby"
        )
    return {
        **final,
        "kill_points": points,
        "sync_passes": sync_passes,
        "frames_shipped": frames_shipped,
        "restored_digests": recovered["digests"],
    }


_TIERS = {"process": _process_tier, "shards": _shard_tier, "replica": _replica_tier}


def run_cell(
    cell: Cell, events: list[dict], out_dir: str | Path, config: SessionConfig
) -> dict:
    """Run one cell into ``out_dir`` (best empty: fault claims persist).

    Returns the final :class:`SoakResult` fields plus the cell's
    evidence — where its faults were placed and what was observed — for
    the caller to gate with :func:`parity_mismatches`.  Raises
    :class:`~repro.errors.InvalidParameterError`, before any process is
    spawned, when the stream cannot hold ``cell.count`` faults, and
    :class:`RuntimeError` when the cell's invariant breaks.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _TIERS[cell.tier](cell, events, out_dir, config)


def parity_mismatches(clean: dict, result: dict) -> list[str]:
    """What differs from the clean run: ``"fleet_cost"``, then every
    vehicle whose digest differs; empty when bit-identical."""
    vehicles = sorted(set(clean["digests"]) | set(result["digests"]))
    return (["fleet_cost"] if result["fleet_cost"] != clean["fleet_cost"] else []) + [
        vehicle
        for vehicle in vehicles
        if clean["digests"].get(vehicle) != result["digests"].get(vehicle)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.soak",
        description="Chaos grid: every scenario cell must end bit-identical "
        "to one clean run of the same stream.",
    )
    parser.add_argument(
        "--scenario",
        nargs="+",
        required=True,
        choices=list(CELLS),
        metavar="CELL",
        help="cells to run, each only itself: " + ", ".join(CELLS),
    )
    parser.add_argument("--vehicles", type=int, default=4)
    parser.add_argument("--stops", type=int, default=80, help="stops per vehicle")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--area", default="chicago")
    parser.add_argument("--break-even", type=float, default=28.0)
    parser.add_argument("--safe-strategy", choices=("nrand", "det"), default="nrand")
    parser.add_argument(
        "--out", type=Path, default=Path("results/soak"), help="artifact directory"
    )
    args = parser.parse_args(argv)

    events = build_fleet_events(args.vehicles, args.stops, args.seed, args.area)
    config = SessionConfig(
        break_even=args.break_even,
        safe_strategy=args.safe_strategy,
        # dedup must cover full-stream redelivery after each restart
        dedup_window=max(1024, args.stops + 1),
        seed=args.seed,
    )
    names = list(dict.fromkeys(args.scenario))
    print(f"{len(events)} events over {args.vehicles} vehicles; cells {names}")
    for name in ["clean", *names]:  # claims from an earlier run would mute faults
        shutil.rmtree(args.out / name, ignore_errors=True)
    clean = run_stream(events, args.out / "clean", config)
    status = 0
    for name in names:
        try:
            outcome = run_cell(CELLS[name], events, args.out / name, config)
        except (InvalidParameterError, RuntimeError) as exc:
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
            status = 1
            continue
        outcome.pop("snapshot")
        summary = {"cell": asdict(CELLS[name]), **outcome}
        (args.out / name / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True)
        )
        mismatched = parity_mismatches(clean, outcome)
        if mismatched:
            print(f"{name}: PARITY FAILED: {mismatched}", file=sys.stderr)
            status = 1
            continue
        brief = ", ".join(
            f"{key}={value}"
            for key, value in outcome.items()
            if isinstance(value, int)
            or (isinstance(value, list) and all(isinstance(i, int) for i in value))
        )
        print(f"{name}: PARITY OK ({brief})")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI/CI
    sys.exit(main())

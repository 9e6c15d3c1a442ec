"""Metric catalogue and the per-layer entry points the traced run wraps.

``END_TO_END`` and ``PER_LAYER`` list the metric names a run reports,
with units; ``BENCHMARK.json`` declares the same lists and the
self-check keeps the two in step.  Every run reports every metric of its
kind.  ``END_TO_END`` holds the end-to-end metrics steady enough to
carry a regression bound: set-up time and the resources a serving
process leaves behind (memory, bytes and files on disk).  ``TIMINGS``
are the units of the end-to-end timings; an untraced run measures and
prints by name the ones ``loadgen.WORKLOADS`` names for its workload,
without a bound: on a shared two-core host their spread from run to run
exceeds what a bound can tolerate.

A per-layer metric of a layer the workload does not reach (the shard
tier on the in-process workloads, the worker-side layers on
``socket-ladder``) is reported as 0.  On the in-process workloads
``wall_s`` is the wall time of the timed phases, each clocked from the
moment it is entered until it is left (the clock pauses only while the
benchmark fingerprints decisions for the oracle), and ``unattributed_s``
is ``wall_s`` minus the layer self times (``SELF_TIMES``).  On
``socket-ladder`` ``wall_s`` is the summed latency of the ladder's
events, split per event into generator lateness, front-end wait, shard
request and reply; the four parts add up to the latency by construction,
so ``unattributed_s`` there is float rounding and the 10% gate is not
applied.

:func:`install` wraps the public entry points of each in-process layer;
:func:`inproc_layer_metrics` turns the recorded spans and counters into
per-layer metrics.
"""

from __future__ import annotations

import os

from spans import NAME, PHASE, durations, self_times

END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "disk_bytes_per_event": "B/event",
    "files_per_vehicle": "files",
}

TIMINGS = {
    "events_per_s": "events/s",
    "scalar_events_per_s": "events/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rate_eps": "events/s",
    "health_ms": "ms",
    "close_s": "s",
    "recover_s": "s",
    "replicate_s": "s",
}

PER_LAYER = {
    "advisor.self_s": "s",
    "advisor.health_s": "s",
    "advisor.close_s": "s",
    "advisor.open_s": "s",
    "batch.plan_s": "s",
    "batch.events_per_run": "events",
    "session.creates": "count",
    "session.create_s": "s",
    "session.registry_fsyncs": "count",
    "session.registry_fsync_s": "s",
    "session.stage_s": "s",
    "session.submit_s": "s",
    "session.compacts": "count",
    "session.compact_s": "s",
    "session.recover_s": "s",
    "session.kb_per_session": "KB",
    "kernels.select_vertices_s": "s",
    "kernels.rows": "count",
    "drift.update_many_s": "s",
    "drift.rows": "count",
    "wal.appends": "count",
    "wal.frames_per_append": "frames",
    "wal.append_s": "s",
    "wal.fsyncs": "count",
    "wal.fsync_s": "s",
    "wal.bytes_per_event": "B/event",
    "wal.files_per_vehicle": "files",
    "wal.snapshot_saves": "count",
    "wal.snapshot_delta_saves": "count",
    "wal.snapshot_s": "s",
    "wal.snapshot_bytes_per_event": "B/event",
    "replica.sync_s": "s",
    "replica.dirs_walked": "count",
    "replica.frames_shipped": "count",
    "replica.bytes_shipped": "B",
    "shard.requests": "count",
    "shard.request_p50_ms": "ms",
    "shard.request_p99_ms": "ms",
    "frontend.lines_per_request": "lines",
    "frontend.wait_p50_ms": "ms",
    "frontend.reply_p50_ms": "ms",
    "ladder.r100.wait_p50_ms": "ms",
    "ladder.r100.shard_p50_ms": "ms",
    "ladder.r400.wait_p50_ms": "ms",
    "ladder.r400.shard_p50_ms": "ms",
    "ladder.r1600.wait_p50_ms": "ms",
    "ladder.r1600.shard_p50_ms": "ms",
    "client.late_ms": "ms",
    "wall_s": "s",
    "unattributed_s": "s",
    "unattributed_frac": "ratio",
    "trace.overhead": "ratio",
}


#: Phases of an in-process traced run whose wall time the spans explain;
#: set-up and clean-up calls run under other phase names.
TIMED = ("ingest", "health", "replicate", "close", "reopen", "scalar")


#: Per-layer metrics that are span self times; with ``unattributed_s``
#: they add up to ``wall_s``.
SELF_TIMES = (
    "advisor.self_s", "advisor.health_s", "advisor.close_s", "advisor.open_s",
    "batch.plan_s", "session.create_s", "session.registry_fsync_s",
    "session.stage_s", "session.submit_s", "session.compact_s",
    "session.recover_s", "kernels.select_vertices_s", "drift.update_many_s",
    "wal.append_s", "wal.fsync_s", "wal.snapshot_s", "replica.sync_s",
)


def install(tracer) -> None:
    """Wrap the in-process layers' public entry points (see module doc)."""
    from repro.service import advisor, drift, replica, session, wal

    # RegisteredAdvisorService (what fleet-2k and every shard worker run)
    # overrides construction, session creation and close; both classes
    # are wrapped, and a span nested in one of the same name only moves
    # self time between them.
    for service in (advisor.AdvisorService, advisor.RegisteredAdvisorService):
        tracer.wrap(service, "__init__", "advisor.open")
        tracer.wrap(service, "close", "advisor.close")
    service = advisor.AdvisorService
    tracer.wrap(service, "ingest_lines", "advisor.ingest_lines")
    tracer.wrap(service, "ingest_line", "advisor.ingest_line")
    tracer.wrap(service, "health_snapshot", "advisor.health")
    # Only first use of a vehicle creates (or recovers) its session;
    # lookups of a live session are not a layer crossing.
    tracer.wrap(
        service,
        "session",
        "session.create",
        when=lambda self, vehicle_id: str(vehicle_id) not in self.sessions,
    )
    # A vehicle new to the registry is appended to it and fsynced there
    # before its session is created.
    tracer.wrap(
        advisor.RegisteredAdvisorService,
        "session",
        "session.register",
        when=lambda self, vehicle_id: str(vehicle_id) not in self._registered,
    )
    tracer.wrap_os_fsync(advisor, "session.registry_fsync")
    tracer.wrap(advisor, "plan_chunk", "batch.plan", after=_count_plan)
    advisor_session = session.AdvisorSession
    tracer.wrap(advisor_session, "submit_batch", "session.stage")
    tracer.wrap(advisor_session, "submit", "session.submit")
    tracer.wrap(advisor_session, "compact", "session.compact")
    tracer.wrap(
        session, "select_vertices", "kernels.select_vertices",
        after=_rows("kernels.rows", 0),
    )
    tracer.wrap(
        drift.DriftDetector, "update_many", "drift.update_many",
        after=_rows("drift.rows", 1),
    )

    def serving(*_args, **_kwargs) -> bool:
        # the standby's appends during replication belong to replica.sync
        return tracer.phase != "replicate"

    log = wal.WriteAheadLog
    tracer.wrap(
        log, "append", "wal.append", when=serving, before=_wal_size,
        after=_wal_bytes(False),
    )
    tracer.wrap(
        log, "append_many", "wal.append", when=serving, before=_wal_size,
        after=_wal_bytes(True),
    )
    store = wal.SnapshotStore
    tracer.wrap(store, "save", "wal.snapshot", after=_snapshot_bytes("path", "full"))
    tracer.wrap(
        store, "save_delta", "wal.snapshot", after=_snapshot_bytes("delta_path", "delta")
    )
    tracer.wrap_os_fsync(wal, "wal.fsync")
    tracer.wrap(replica, "sync_once", "replica.sync", after=_count_sync)


def _count_plan(tracer, _token, _args, plan) -> None:
    for item in plan.items:
        if hasattr(item, "event_ids"):  # a ColumnarRun, not a MalformedEvent
            tracer.counters["batch.runs"] += 1
            tracer.counters["batch.run_events"] += len(item.event_ids)


def _rows(key: str, position: int):
    """Count the rows of the array argument at ``position`` (methods
    receive their instance at position 0)."""

    def after(tracer, _token, args, _result) -> None:
        tracer.counters[key] += len(args[position])

    return after


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def _wal_size(log, *_args, **_kwargs) -> int:
    return _file_size(log.path)


def _wal_bytes(many: bool):
    def after(tracer, size_before, args, _result) -> None:
        log = args[0]
        tracer.counters["wal.frames"] += len(args[1]) if many else 1
        tracer.counters["wal.bytes"] += _file_size(log.path) - size_before

    return after


def _snapshot_bytes(attr: str, kind: str):
    def after(tracer, _token, args, _result) -> None:
        tracer.counters["wal.snapshot_" + kind] += 1
        tracer.counters["wal.snapshot_bytes"] += _file_size(getattr(args[0], attr))

    return after


def _count_sync(tracer, _token, _args, stats) -> None:
    tracer.counters["replica.dirs"] += stats["vehicles"]
    tracer.counters["replica.frames"] += stats["frames"]


def inproc_layer_metrics(tracer, *, events: int) -> dict:
    """Per-layer metrics of an in-process traced run (see module doc)."""
    spans = tracer.spans
    counters = tracer.counters
    every = self_times(spans, TIMED)
    reopen = self_times(spans, {"reopen"})
    creates = [
        span for span in spans
        if span[NAME] == "session.create" and span[PHASE] in ("ingest", "scalar")
    ]

    def total(name: str) -> float:
        return every.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "advisor.self_s": total("advisor.ingest_lines") + total("advisor.ingest_line"),
        "advisor.health_s": total("advisor.health"),
        "advisor.close_s": total("advisor.close"),
        "advisor.open_s": total("advisor.open"),
        "batch.plan_s": total("batch.plan"),
        "batch.events_per_run": ratio(counters["batch.run_events"], counters["batch.runs"]),
        "session.creates": float(len(creates)),
        "session.create_s": (
            total("session.create") - reopen.get("session.create", 0.0)
            + total("session.register")
        ),
        "session.registry_fsyncs": float(
            len(durations(spans, "session.registry_fsync", TIMED))
        ),
        "session.registry_fsync_s": total("session.registry_fsync"),
        "session.stage_s": total("session.stage"),
        "session.submit_s": total("session.submit"),
        "session.compacts": float(len(durations(spans, "session.compact", TIMED))),
        "session.compact_s": total("session.compact"),
        "session.recover_s": reopen.get("session.create", 0.0),
        "kernels.select_vertices_s": total("kernels.select_vertices"),
        "kernels.rows": counters["kernels.rows"],
        "drift.update_many_s": total("drift.update_many"),
        "drift.rows": counters["drift.rows"],
        "wal.appends": counters["wal.append.calls"],
        "wal.frames_per_append": ratio(counters["wal.frames"], counters["wal.append.calls"]),
        "wal.append_s": total("wal.append"),
        "wal.fsyncs": counters["wal.fsync.calls"],
        "wal.fsync_s": total("wal.fsync"),
        "wal.bytes_per_event": ratio(counters["wal.bytes"], events),
        "wal.snapshot_saves": counters["wal.snapshot_full"],
        "wal.snapshot_delta_saves": counters["wal.snapshot_delta"],
        "wal.snapshot_s": total("wal.snapshot"),
        "wal.snapshot_bytes_per_event": ratio(counters["wal.snapshot_bytes"], events),
        "replica.sync_s": total("replica.sync"),
        "replica.dirs_walked": counters["replica.dirs"],
        "replica.frames_shipped": counters["replica.frames"],
    })
    wall_s = sum(tracer.phase_wall[phase] for phase in TIMED)
    unattributed = wall_s - sum(metrics[name] for name in SELF_TIMES)
    metrics["wall_s"] = wall_s
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_frac"] = ratio(unattributed, wall_s)
    return metrics


def breakdown(tracer) -> dict:
    """Self seconds per span name, for the printed table."""
    times = self_times(tracer.spans, TIMED)
    return dict(sorted(times.items(), key=lambda item: -item[1]))

"""The multi-vehicle advisor service: routing, backpressure, health.

:class:`AdvisorService` owns one :class:`~repro.service.session.AdvisorSession`
per vehicle, each with its own sub-directory of the service state
directory (WAL + snapshot), a shared validation report/quarantine
sidecar, and a bounded ingestion queue.  Opening a root — a flat
``serve`` dir, a shard, a promoted standby, a restored archive — opens
every session found there, each named by its own base snapshot
(:func:`repro.service.wal.identify_session`), so health, digests and
fleet cost cover the whole fleet from the first poll:

* ``offer(record)`` enqueues one raw event; when the queue is full the
  event is **shed and counted** (explicit backpressure — the caller
  sees False and the health snapshot reports the count) rather than
  growing memory without bound;
* ``drain()`` validates, routes and applies everything queued as one
  chunk;
* ``process_batch(records)`` / ``ingest_lines(lines)`` are the one
  ingest path (``serve --batch N``): a chunk is planned into
  per-vehicle runs (:mod:`repro.service.batch`) and each run applied
  through one group-commit; ``process(record)`` and
  ``ingest_line(line)`` are chunks of one.  The equivalence harness in
  ``tests/test_service_batch.py`` pins every chunking to an
  independent per-event admission model.

Raw records are value-validated by
:func:`repro.validation.schemas.stop_event_findings` before they reach
a session; malformed records are policy-handled (strict raises, repair
drops, quarantine diverts to ``events.quarantine.csv`` in the state
directory) and fed to the owning session's failure-streak health signal
when the vehicle is identifiable.
"""

from __future__ import annotations

import json
import os  # noqa: F401  (see _registered below)
import time
from collections import deque
from pathlib import Path

from ..engine.ledger import active_ledger
from ..validation import CsvQuarantineWriter, PolicyEnforcer, ValidationReport
from .batch import MalformedEvent, plan_chunk
from .session import AdvisorSession, SessionConfig
from .wal import VEHICLES_DIR, _vehicle_dirname, identify_session, list_session_dirs

__all__ = [
    "AdvisorService",
    "RegisteredAdvisorService",
    "gate_on_replication",
    "parse_event_line",
]

#: Backpressure ledger warnings fire on the first shed event and at
#: every multiple of this — loud enough to see overload in the run
#: ledger, quiet enough not to amplify it.
_SHED_WARN_EVERY = 1000

def gate_on_replication(replication, reasons: list) -> dict:
    """Fold replication lag into a readiness verdict.

    Shared by the single-process and sharded tiers so ``/ready`` speaks
    one schema: the verdict carries the monitor's full lag snapshot
    under ``"replication"`` (machine-readable), and flips not-ready when
    lag exceeds the monitor's bound or the standby's watermark file is
    unreadable (its state is then unknown — the conservative verdict).
    """
    verdict = {"ready": True, "reasons": reasons}
    if replication is not None:
        lag = replication.snapshot()
        verdict["replication"] = lag
        if not lag["within_bound"]:
            if lag["watermarks_corrupt"]:
                reasons.append(
                    "replication watermarks corrupt: standby state unknown"
                )
            else:
                reasons.append(
                    f"replication lag {lag['max_lag_events']} events exceeds "
                    f"bound {lag['max_lag_bound']} "
                    f"({lag['vehicles_lagging']} session(s) lagging)"
                )
    verdict["ready"] = not reasons
    return verdict


def parse_event_line(line: str):
    """Parse one JSONL event line; returns ``(record, error)``.

    ``record`` is the decoded JSON value (*not* yet schema-validated);
    ``error`` is a message when the line is not JSON at all.
    """
    try:
        return json.loads(line), None
    except json.JSONDecodeError as exc:
        return None, f"not valid JSON: {exc}"


class AdvisorService:
    """Long-running advisor for a fleet (see module docstring).

    Parameters
    ----------
    state_dir:
        Root of the durable state; one sub-directory per vehicle.  Every
        session directory already there is opened (and recovered) now;
        one that does not name its own vehicle raises
        :class:`~repro.service.wal.WalCorruptionError`.
    config:
        Shared :class:`SessionConfig` for every session.
    policy:
        Validation policy for ingestion (default ``repair`` — a
        deployed service must not die on one bad record; pass
        ``strict`` to make it do exactly that in tests).
    max_queue:
        Bound on the in-memory ingestion queue; beyond it events are
        shed and counted.
    fsync:
        Forwarded to every session's WAL/snapshot writes.
    fs:
        Optional fault-injection shim shared by every session's WAL and
        snapshot store (:class:`repro.engine.faults.FsFaultInjector`);
        the ordinal schedule then covers the whole service's disk
        traffic, which is how the disk-fault soak is driven.
    replication:
        Optional :class:`repro.service.replica.ReplicationMonitor`.
        When set, :meth:`health_snapshot` carries a ``replication``
        section (per-session lag against the standby's watermarks) and
        :meth:`readiness` refuses traffic with a machine-readable
        reason while any session lags past the monitor's bound.
    """

    def __init__(
        self,
        state_dir: str | Path,
        config: SessionConfig,
        *,
        policy: str = "repair",
        report: ValidationReport | None = None,
        max_queue: int = 4096,
        fsync: bool = False,
        source: str = "events",
        fs=None,
        replication=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.policy = policy
        self.fsync = bool(fsync)
        self.fs = fs
        self.replication = replication
        if max_queue < 1:
            max_queue = 1
        self.max_queue = int(max_queue)
        self.report = report if report is not None else ValidationReport(str(policy))
        self._enforcer = PolicyEnforcer(policy, self.report, source)
        self._enforcer.attach_quarantine_writer(
            CsvQuarantineWriter(self.state_dir / source, self.report)
        )
        self.sessions: dict[str, AdvisorSession] = {}
        self._queue: deque = deque()
        self.shed = 0
        self.received = 0
        self.malformed = 0
        # Batched-ingest throughput counters (health_snapshot -> ingest.batch).
        self.batch_chunks = 0
        self.batch_events = 0
        self.batch_seconds = 0.0
        # Snapshots read to identify each directory, handed to the
        # session that recovers from them so none is read twice.
        self._found: dict[str, tuple[int, dict]] = {}
        for directory in list_session_dirs(self.state_dir):
            found = identify_session(directory)
            if found is not None:
                vehicle_id, pair = found
                self._found[vehicle_id] = pair.merged()
                self.session(vehicle_id)

    # -- sessions ---------------------------------------------------------

    # RegisteredAdvisorService (below) names this class, and
    # ``_registered`` the open sessions, for the benchmark harness in
    # perfbench/, which traces through both names and patches this
    # module's ``os``; those names stay while that harness does.
    @property
    def _registered(self) -> dict[str, AdvisorSession]:
        return self.sessions

    def session(self, vehicle_id: str) -> AdvisorSession:
        """The vehicle's session, creating (and recovering) it on first use."""
        vehicle_id = str(vehicle_id)
        existing = self.sessions.get(vehicle_id)
        if existing is not None:
            return existing
        session = self.config.build_session(
            vehicle_id,
            self.state_dir / VEHICLES_DIR / _vehicle_dirname(vehicle_id),
            enforcer=self._enforcer,
            fsync=self.fsync,
            fs=self.fs,
            snapshot=self._found.pop(vehicle_id, None),
        )
        self.sessions[vehicle_id] = session
        return session

    # -- ingestion --------------------------------------------------------

    def offer(self, record) -> bool:
        """Enqueue one raw event; False when it was shed (queue full).

        Shedding is counted (health snapshot) *and* surfaced as a
        rate-limited ``advisor-backpressure`` run-ledger warning — on
        the first shed event and every `_SHED_WARN_EVERY`th thereafter —
        so fleet operators see overload in the ledger, not just in a
        counter they would have to poll.
        """
        self.received += 1
        if len(self._queue) >= self.max_queue:
            self.shed += 1
            if self.shed == 1 or self.shed % _SHED_WARN_EVERY == 0:
                ledger = active_ledger()
                if ledger is not None:
                    ledger.emit(
                        "advisor-backpressure",
                        tier="service",
                        shed=self.shed,
                        received=self.received,
                        max_queue=self.max_queue,
                    )
            return False
        self._queue.append(record)
        return True

    def drain(self) -> list[dict]:
        """Process everything queued as one chunk; returns the decisions
        made."""
        if not self._queue:
            return []
        records = list(self._queue)
        self._queue.clear()
        return [
            decision for decision in self._apply_chunk(records) if decision is not None
        ]

    def process(self, record) -> dict | None:
        """Apply one event: a chunk of one through :meth:`process_batch`."""
        return self.process_batch([record])[0]

    def ingest_line(self, line: str) -> dict | None:
        """Parse one JSONL event line and apply it: a chunk of one
        through :meth:`ingest_lines`."""
        return self.ingest_lines([line])[0]

    def process_batch(self, records) -> list:
        """Apply a chunk of parsed records (the one ingest path).

        The chunk is planned into per-vehicle runs
        (:func:`repro.service.batch.plan_chunk`); each run is applied
        with one
        :meth:`~repro.service.session.AdvisorSession.submit_batch` —
        one WAL group-commit, one fsync — and malformed markers are
        policy-handled at their in-chunk position, so per-vehicle
        health signals land between the events they arrived between.

        Returns decisions aligned with ``records`` (None where the
        record was malformed or dropped).  Any previously queued events
        are drained first so ordering across ``offer``/batch mixes is
        preserved.
        """
        self.drain()
        records = list(records)
        self.received += len(records)
        return self._apply_chunk(records)

    def ingest_lines(self, lines) -> list:
        """Parse a chunk of JSONL lines and apply it as one batch.

        The whole chunk is decoded with a single ``json.loads`` (each
        line is one JSON value, so joining them into an array is one
        C-level parse instead of one call per line).  If *any* line is
        undecodable the chunk falls back to per-line parsing: bad lines
        are policy-handled as ``malformed-event`` — the raw line goes to
        the quarantine sidecar under the ``quarantine`` policy — and
        never reach a session, while the decoded remainder still goes
        through :meth:`process_batch`.  Returns decisions aligned with
        ``lines``.
        """
        lines = list(lines)
        try:
            records = json.loads("[" + ",".join(lines) + "]")
        except json.JSONDecodeError:
            records = None
        # Length mismatch = some line held several comma-separated JSON
        # values (invalid alone, but legal inside the joined array) —
        # only the per-line parse flags it.
        if records is not None and len(records) == len(lines):
            return self.process_batch(records)
        results: list = [None] * len(lines)
        decodable = []
        positions = []
        for position, line in enumerate(lines):
            record, error = parse_event_line(line)
            if error is not None:
                self.received += 1
                self.malformed += 1
                self._enforcer.flag("malformed-event", error, record=[line])
                continue
            decodable.append(record)
            positions.append(position)
        for position, decision in zip(positions, self.process_batch(decodable)):
            results[position] = decision
        return results

    def _apply_chunk(self, records: list) -> list:
        """Plan and apply one chunk of parsed records; decisions aligned
        with ``records``.  Shared by :meth:`process_batch` and
        :meth:`drain` (their callers count ``received``)."""
        results: list = [None] * len(records)
        if not records:
            return results
        start = time.perf_counter()
        for item in plan_chunk(records).items:
            if isinstance(item, MalformedEvent):
                self._flag_malformed(item)
                continue
            decisions = self.session(item.vehicle).submit_batch(
                item.event_ids, item.timestamps, item.stop_lengths
            )
            for position, decision in zip(item.indices, decisions):
                results[position] = decision
        self.batch_chunks += 1
        self.batch_events += len(records)
        self.batch_seconds += time.perf_counter() - start
        return results

    def _flag_malformed(self, item: MalformedEvent) -> None:
        """Policy-handle one value-invalid record."""
        self.malformed += 1
        vehicle = item.vehicle
        for check, message in item.findings:
            self._enforcer.flag(
                check,
                message if vehicle is None else f"vehicle {vehicle}: {message}",
                record=[json.dumps(item.record, default=repr)],
            )
        # A malformed record still carries a health signal for the
        # vehicle it claims to be from — but only for vehicles we
        # already serve: garbage must not create sessions.
        if vehicle is not None and vehicle in self.sessions:
            self.sessions[vehicle].note_invalid_event(item.findings[0][0])

    # -- lifecycle / observability ---------------------------------------

    @property
    def fleet_cost(self) -> float:
        """Total realized cost (idle-seconds units) across all sessions.

        Summed in sorted-vehicle order: float addition is not
        associative, and a canonical order makes the total
        bit-reproducible no matter how sessions were created — the
        sharded tier's aggregated snapshot sums the same sequence.
        """
        return sum(
            self.sessions[vehicle].total_cost for vehicle in sorted(self.sessions)
        )

    def health_snapshot(self, include_vehicles: bool = True) -> dict:
        """Operator-facing service view: fleet totals + per-vehicle state.

        ``include_vehicles=False`` keeps the same schema but leaves the
        ``vehicles`` map empty — the sharded tier aggregates snapshots
        across workers, where a 100k-vehicle per-session map would make
        every ``/health`` poll cost megabytes of pickled payload.
        """
        vehicles = (
            {
                vehicle_id: session.health_snapshot()
                for vehicle_id, session in sorted(self.sessions.items())
            }
            if include_vehicles
            else {}
        )
        snapshot = {
            "fleet_cost": self.fleet_cost,
            "vehicles": vehicles,
            "ingest": {
                "received": self.received,
                "queued": len(self._queue),
                "max_queue": self.max_queue,
                "shed": self.shed,
                "malformed": self.malformed,
                "duplicates": sum(s.duplicates for s in self.sessions.values()),
                "rejected": sum(s.rejected for s in self.sessions.values()),
                "batch": {
                    "chunks": self.batch_chunks,
                    "events": self.batch_events,
                    "wall_s": self.batch_seconds,
                    "events_per_s": (
                        self.batch_events / self.batch_seconds
                        if self.batch_seconds > 0.0
                        else 0.0
                    ),
                },
            },
            "states": {
                state: sum(
                    1 for s in self.sessions.values() if s.health.value == state
                )
                for state in ("healthy", "degraded", "safe")
            },
            "durability": self.durability_summary(),
        }
        if self.replication is not None:
            snapshot["replication"] = self.replication.snapshot()
        return snapshot

    def durability_summary(self) -> dict:
        """Aggregated DURABILITY_SUSPENDED overlay across sessions."""
        sessions = self.sessions.values()
        return {
            "suspended_sessions": sum(
                1 for s in sessions if s.durability_suspended
            ),
            "buffered_events": sum(len(s._suspend_buffer) for s in sessions),
            "dropped_events": sum(s.suspend_dropped for s in sessions),
            "suspensions": sum(s.suspensions for s in sessions),
            "resumes": sum(s.resumes for s in sessions),
        }

    def readiness(self) -> dict:
        """What a load balancer should gate on: ``{"ready", "reasons"}``.

        Distinct from :meth:`health_snapshot` — health reports, readiness
        *decides*.  A service with any durability-suspended session is
        serving SAFE decisions (still correct under the distribution-free
        guarantee) but cannot persist state, so new traffic should go
        elsewhere while it heals.
        """
        suspended = sorted(
            vehicle
            for vehicle, session in self.sessions.items()
            if session.durability_suspended
        )
        reasons = []
        if suspended:
            reasons.append(
                f"durability suspended for {len(suspended)} session(s): "
                f"{suspended[:5]}"
            )
        return gate_on_replication(self.replication, reasons)

    def close(self) -> None:
        """Flush durable state: final compaction for every session.

        A durability-suspended session gets one forced probe first — the
        last chance to land its buffered tail before the process exits
        (a tail still unlandable stays lost, by design: it was never
        durable and the snapshot says so).
        """
        self.drain()
        for session in self.sessions.values():
            if session.durability_suspended:
                session.probe_durability()
            session.compact()
        self._enforcer.close()


RegisteredAdvisorService = AdvisorService

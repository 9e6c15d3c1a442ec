"""Replicated durability: WAL shipping, standby promotion, PITR.

The serving tier's durability story (CRC-framed WAL + atomic snapshots,
PR 5) lives on one state directory — losing the machine loses every
session, trust weight, and RNG stream bit-for-bit irrecoverably.  This
module adds the missing layer:

* **Shipping** — :func:`sync_once` streams every session's WAL frames
  (via :meth:`WriteAheadLog.follow`) plus snapshot/delta sidecars to a
  :class:`LocalReplicaTarget` or, over the wire, a
  :class:`RemoteReplicaTarget` talking JSONL to a :class:`ReplicaServer`.
  A watermark file on the standby records
  ``(session, applied_seq)`` so catch-up after a standby restart resumes
  from the watermark instead of re-shipping history, and so replication
  lag is observable (:class:`ReplicationMonitor`, surfaced in
  ``/health`` and ``/ready``).

* **Promotion** — :func:`promote` fences the old primary via the
  ``shard.lock`` owner-token machinery (a *live* owner refuses the
  promotion: split-brain), then brings the standby up through the
  ordinary compact-then-replay recovery path so its ``state_digest()``
  is bit-identical to a clean continuation of the primary.  Each
  session directory names its vehicle in the base snapshot it
  published at seq 0, which is shipped before any of its frames, so a
  standby identifies its sessions from what it holds.

* **Point-in-time recovery** — :func:`backup` copies a state dir into a
  cold archive under a CRC-framed manifest of content hashes;
  :func:`restore` verifies every hash before writing a byte and can
  truncate to ``--upto-seq`` when the WAL still holds that history.

* **Verification** — :func:`fleet_doctor` cross-checks WAL/snapshot
  integrity, seq contiguity, replica watermarks and logical digests,
  and archive manifests end to end; :func:`sweep_state_dir` reclaims
  the orphaned ``.tmp*`` files and stale delta sidecars a SIGKILL mid-
  compaction leaves behind.

Correctness hinges on two orderings.  The shipper reads each session's
**WAL before its snapshot**: a compaction racing the pass then always
ships the covering snapshot in the same pass, so the standby never holds
frames whose prefix is missing.  The target applies **snapshots before
frames**: a standby crash mid-pass leaves a consistent prefix state.
Frame application is idempotent (the target drops frames at or below its
local WAL tip), so re-shipping after a dropped connection is safe.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import time
import zlib
from pathlib import Path

from ..engine.faults import owner_alive, pid_alive
from ..errors import ReproError
from .advisor import AdvisorService
from .frontend import parse_listen
from .shard import SHARD_LOCK_NAME, ShardLockError, acquire_shard_lock, release_shard_lock
from .wal import (
    DELTA_NAME,
    SNAPSHOT_NAME,
    VEHICLES_DIR,
    WAL_NAME,
    SnapshotStore,
    WalCorruptionError,
    WriteAheadLog,
    _unframe,
    identify_session,
    list_session_dirs,
    read_snapshot_pair,
)

__all__ = [
    "MANIFEST_NAME",
    "WATERMARKS_NAME",
    "LocalReplicaTarget",
    "RemoteReplicaTarget",
    "ReplicaServer",
    "ReplicationError",
    "ReplicationMonitor",
    "backup",
    "durable_summary",
    "fleet_doctor",
    "promote",
    "read_manifest",
    "replicate",
    "restore",
    "service_roots",
    "session_dirs",
    "sweep_state_dir",
    "sync_once",
]

#: Watermark sidecar at the standby root: one CRC-framed JSON line
#: mapping session keys to ``{"applied": seq, "snapshot": seq | null,
#: "delta": seq}``.
WATERMARKS_NAME = "replica.watermarks.json"

#: CRC-framed backup manifest, written *last* so a torn backup is a
#: missing manifest, never a silently short archive.
MANIFEST_NAME = "backup.manifest.json"

#: JSONL line limit on the replication channel — a ``frames`` op or a
#: shipped snapshot can far exceed the frontend's 1 MiB event limit.
_REPLICA_LINE_LIMIT = 1 << 26

#: Frames per ``frames`` op when shipping remotely (bounds line length).
_FRAMES_PER_OP = 512


class ReplicationError(ReproError, RuntimeError):
    """Replication/backup invariant violated (gap, divergence, corrupt
    archive) — never silently continued past."""


# ---------------------------------------------------------------------------
# State-dir layout helpers


def session_dirs(state_dir: str | Path) -> list[tuple[str, Path]]:
    """Every session directory under ``state_dir`` as ``(key, path)``.

    Keys are POSIX relpaths — ``vehicles/<dirname>`` for a flat service
    dir, ``shard-NN/vehicles/<dirname>`` under a sharded one — and are
    the unit of replication: watermark entries, shipped-frame batches,
    and doctor reports are all addressed by these keys.
    """
    state_dir = Path(state_dir)
    roots: list[tuple[Path, str]] = [(state_dir, "")]
    for shard in sorted(state_dir.glob("shard-*")):
        if shard.is_dir():
            roots.append((shard, shard.name + "/"))
    return [
        (f"{prefix}{VEHICLES_DIR}/{vdir.name}", vdir)
        for root, prefix in roots
        for vdir in list_session_dirs(root)
    ]


def service_roots(state_dir: str | Path) -> list[Path]:
    """The advisor-service roots under ``state_dir``: its ``shard-*``
    subdirectories when sharded, else the directory itself."""
    state_dir = Path(state_dir)
    shards = sorted(path for path in state_dir.glob("shard-*") if path.is_dir())
    return shards or [state_dir]


def _publish_text(path: Path, text: str, *, fs=None, op: str = "replica-publish") -> None:
    """Atomically publish ``text`` at ``path`` (tmp + rename), with an
    injection point for fault schedules."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if fs is not None:
        fs.check(op, path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
    os.replace(tmp, path)


def _load_marks(path: Path) -> dict:
    """Watermarks from ``path`` (empty when absent; corrupt raises)."""
    if not path.exists():
        return {}
    payload = _unframe(path.read_text().strip())
    if payload is None or not isinstance(payload.get("marks"), dict):
        raise WalCorruptionError(f"{path}: watermark file failed its CRC check")
    return payload["marks"]


def durable_summary(session_dir: str | Path) -> dict:
    """One session directory's durable state in one pass:
    ``{"tip", "snapshot_seq", "digest"}``.

    ``tip`` is the highest durably-applied seq (merged snapshot or WAL
    tail, whichever is further); ``digest`` hashes the merged snapshot
    state plus the WAL records beyond it, so two directories with the
    same tip *and the same snapshot seq* must agree bit-for-bit.  (Two
    dirs at the same tip but different compaction points legitimately
    differ — the doctor only compares digests when snapshot seqs match.)
    """
    session_dir = Path(session_dir)
    loaded = SnapshotStore(session_dir / SNAPSHOT_NAME).load()
    seq, state = loaded if loaded is not None else (0, None)
    wal = WriteAheadLog(session_dir / WAL_NAME)
    tail = [record for _seq, _line, record in wal.follow(seq)]
    tip = tail[-1]["seq"] if tail else seq
    body = json.dumps(
        {"seq": seq, "state": state, "tail": tail}, sort_keys=True, default=str
    )
    return {
        "tip": tip,
        "snapshot_seq": seq,
        "digest": hashlib.sha256(body.encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# Replica targets


class LocalReplicaTarget:
    """Applies shipped state to a standby directory on this machine.

    Also the server-side engine behind :class:`ReplicaServer` — the
    remote protocol is just these five methods as JSONL ops.  Frame
    application filters to ``seq`` above the standby WAL's local tip,
    making re-ships idempotent; watermarks are published atomically on
    :meth:`commit` (one pass = one commit), never mid-pass.
    """

    def __init__(self, state_dir: str | Path, *, fs=None) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.fs = fs
        self._marks = _load_marks(self.state_dir / WATERMARKS_NAME)
        self._tips: dict[str, int] = {}

    def watermarks(self) -> dict:
        return {key: dict(mark) for key, mark in self._marks.items()}

    def put_text(self, rel: str, text: str) -> None:
        _publish_text(self.state_dir / rel, text, fs=self.fs, op="replica-put")

    def remove(self, rel: str) -> None:
        try:
            os.unlink(self.state_dir / rel)
        except FileNotFoundError:
            pass

    def append_frames(self, key: str, lines: list[str]) -> int:
        """Append shipped WAL frames for session ``key``; returns how
        many were new.  Every line is CRC-verified again here (end-to-end
        integrity), unframed, filtered to ``seq`` beyond the local tip,
        and re-appended — framing is deterministic, so the standby's WAL
        bytes equal the primary's.
        """
        wal = WriteAheadLog(self.state_dir / key / WAL_NAME, fs=self.fs)
        tip = self._tips.get(key)
        if tip is None:
            tip = wal.last_seq()
        records = []
        for line in lines:
            record = _unframe(line)
            if record is None:
                raise ReplicationError(
                    f"{key}: shipped frame failed its CRC check in transit"
                )
            seq = record.get("seq")
            if type(seq) is not int:
                raise ReplicationError(f"{key}: shipped frame carries no seq")
            if seq <= tip:
                continue
            if records and seq <= records[-1]["seq"]:
                raise ReplicationError(
                    f"{key}: shipped frames out of order ({records[-1]['seq']} "
                    f"then {seq})"
                )
            records.append(record)
        if records:
            wal.append_many(records)
            tip = records[-1]["seq"]
        self._tips[key] = tip
        return len(records)

    def set_mark(self, key: str, mark: dict) -> None:
        self._marks[key] = dict(mark)

    def commit(self) -> None:
        body = json.dumps(
            {"version": 1, "marks": self._marks}, sort_keys=True, allow_nan=False
        )
        _publish_text(
            self.state_dir / WATERMARKS_NAME,
            f"{zlib.crc32(body.encode()):08x} {body}",
            fs=self.fs,
            op="replica-commit",
        )

    def close(self) -> None:
        self.commit()


class RemoteReplicaTarget:
    """Same interface as :class:`LocalReplicaTarget`, over the wire.

    Mutating ops buffer locally and flush as one JSONL exchange on
    :meth:`commit` — the server applies them in order and publishes its
    watermarks only when the trailing ``commit`` op lands, so a dropped
    connection leaves data-without-watermark (re-shipped harmlessly next
    pass), never watermark-without-data.  ``net`` is an optional
    :class:`~repro.engine.faults.FsFaultInjector` hooked at ``connect``
    and before every ``send``; its ``ECONNRESET`` windows drop the
    connection.
    """

    def __init__(self, address: str, *, net=None, timeout: float = 30.0) -> None:
        self.address = parse_listen(address)
        self.net = net
        self.timeout = float(timeout)
        self._ops: list[dict] = []

    def watermarks(self) -> dict:
        replies = self._exchange([{"op": "watermarks"}])
        return replies[0]["marks"]

    def put_text(self, rel: str, text: str) -> None:
        self._ops.append({"op": "put", "rel": rel, "text": text})

    def remove(self, rel: str) -> None:
        self._ops.append({"op": "rm", "rel": rel})

    def append_frames(self, key: str, lines: list[str]) -> int:
        for start in range(0, len(lines), _FRAMES_PER_OP):
            self._ops.append(
                {"op": "frames", "key": key, "lines": lines[start : start + _FRAMES_PER_OP]}
            )
        return len(lines)

    def set_mark(self, key: str, mark: dict) -> None:
        self._ops.append({"op": "mark", "key": key, "mark": dict(mark)})

    def commit(self) -> None:
        ops = self._ops + [{"op": "commit"}]
        self._ops = []
        self._exchange(ops)

    def close(self) -> None:
        if self._ops:
            self.commit()

    def _exchange(self, ops: list[dict]) -> list[dict]:
        if self.net is not None:
            self.net.check("connect")
        return asyncio.run(self._roundtrip(ops))

    async def _roundtrip(self, ops: list[dict]) -> list[dict]:
        if self.address[0] == "unix":
            opener = asyncio.open_unix_connection(
                self.address[1], limit=_REPLICA_LINE_LIMIT
            )
        else:
            opener = asyncio.open_connection(
                self.address[1], self.address[2], limit=_REPLICA_LINE_LIMIT
            )
        reader, writer = await asyncio.wait_for(opener, self.timeout)
        try:
            replies = []
            for op in ops:
                if self.net is not None:
                    self.net.check("send")
                writer.write((json.dumps(op, sort_keys=True) + "\n").encode())
                await asyncio.wait_for(writer.drain(), self.timeout)
                line = await asyncio.wait_for(reader.readline(), self.timeout)
                if not line:
                    raise ConnectionResetError(
                        "replica server closed the connection mid-exchange"
                    )
                reply = json.loads(line)
                if not reply.get("ok"):
                    raise ReplicationError(
                        f"replica server rejected {op.get('op')!r}: {reply.get('error')}"
                    )
                replies.append(reply)
            return replies
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass


class ReplicaServer:
    """Standby-side network front end: JSONL ops over a unix or TCP
    socket (the repo's established framing), applied through a
    :class:`LocalReplicaTarget`.  Run via ``repro-idling replicate
    --listen`` on the standby machine.
    """

    def __init__(self, state_dir: str | Path, *, fs=None) -> None:
        self.target = LocalReplicaTarget(state_dir, fs=fs)
        self.requests = 0
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    def _apply(self, op: dict) -> dict:
        kind = op.get("op")
        if kind == "watermarks":
            return {"ok": True, "marks": self.target.watermarks()}
        if kind == "put":
            self.target.put_text(op["rel"], op["text"])
            return {"ok": True}
        if kind == "rm":
            self.target.remove(op["rel"])
            return {"ok": True}
        if kind == "frames":
            appended = self.target.append_frames(op["key"], op["lines"])
            return {"ok": True, "appended": appended}
        if kind == "mark":
            self.target.set_mark(op["key"], op["mark"])
            return {"ok": True}
        if kind == "commit":
            self.target.commit()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {kind!r}"}

    async def _serve_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    op = json.loads(line)
                except ValueError:
                    reply = {"ok": False, "error": "malformed JSON op"}
                else:
                    if not isinstance(op, dict):
                        reply = {"ok": False, "error": "op must be a JSON object"}
                    else:
                        self.requests += 1
                        try:
                            reply = await asyncio.to_thread(self._apply, op)
                        except (ReplicationError, WalCorruptionError, OSError, KeyError, TypeError) as exc:
                            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                writer.write((json.dumps(reply, sort_keys=True) + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionResetError):
                pass

    async def serve(self, listen: str, *, ready=None, install_signals: bool = False) -> None:
        import signal

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
        parsed = parse_listen(listen)
        if parsed[0] == "unix":
            server = await asyncio.start_unix_server(
                self._serve_client, path=parsed[1], limit=_REPLICA_LINE_LIMIT
            )
        else:
            server = await asyncio.start_server(
                self._serve_client, host=parsed[1], port=parsed[2], limit=_REPLICA_LINE_LIMIT
            )
        async with server:
            if ready is not None:
                ready.set()
            await self._stop.wait()
        self.target.commit()

    def request_stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)


# ---------------------------------------------------------------------------
# The shipper


def sync_once(primary_dir: str | Path, target, *, fs=None) -> dict:
    """One replication pass: ship everything the target hasn't seen.

    Read order per session is WAL **then** snapshot — if a compaction
    lands between the two reads, the snapshot we then read covers every
    frame the reset just dropped, so this same pass ships it and the
    standby never sees a history gap.  (The converse order could read a
    pre-compaction snapshot and a post-compaction WAL whose first frame
    is far beyond it.)  A gap that does appear — the primary compacted
    *and* its snapshot is older than the WAL start, i.e. history the
    standby never received is gone — raises :class:`ReplicationError`
    rather than shipping a stream recovery would silently mis-apply.
    """
    primary = Path(primary_dir)
    marks = target.watermarks()
    stats = {"vehicles": 0, "frames": 0, "snapshots": 0, "deltas": 0}

    for key, vdir in session_dirs(primary):
        stats["vehicles"] += 1
        mark = marks.get(key) or {}
        applied = int(mark.get("applied", 0))
        # A missing mark is not mark 0: a fresh session's base snapshot
        # sits at seq 0, and every delta the standby receives needs it.
        snap_mark = mark.get("snapshot")  # None: no snapshot shipped yet
        delta_mark = int(mark.get("delta", 0))

        wal = WriteAheadLog(vdir / WAL_NAME, fs=fs)
        frames = list(wal.follow(applied))

        pair = read_snapshot_pair(vdir / SNAPSHOT_NAME)
        merged_seq = pair.merged_seq
        # a stale delta extends a base that moved on: never shipped
        delta_seq = merged_seq if pair.delta_live else 0

        if frames and frames[0][0] > applied + 1 and merged_seq < frames[0][0] - 1:
            raise ReplicationError(
                f"{key}: primary WAL starts at seq {frames[0][0]} but the standby "
                f"applied only {applied} and no snapshot covers the gap — "
                f"history needed for catch-up is gone"
            )

        if pair.snapshot_text is not None and (
            snap_mark is None or pair.seq > snap_mark
        ):
            target.put_text(key + "/" + SNAPSHOT_NAME, pair.snapshot_text)
            stats["snapshots"] += 1
            snap_mark = pair.seq
        if pair.delta_live:
            if delta_seq > delta_mark:
                target.put_text(key + "/" + DELTA_NAME, pair.delta_text)
                stats["deltas"] += 1
        elif delta_mark:
            target.remove(key + "/" + DELTA_NAME)

        if frames:
            stats["frames"] += target.append_frames(
                key, [line for _seq, line, _record in frames]
            )

        tip = max(applied, merged_seq, frames[-1][0] if frames else 0)
        target.set_mark(
            key,
            {
                "applied": tip,
                "snapshot": snap_mark,
                "delta": delta_seq,
            },
        )

    target.commit()
    return stats


def replicate(
    primary_dir: str | Path,
    target,
    *,
    interval: float = 0.2,
    passes: int | None = None,
    stop=None,
    max_errors: int | None = None,
    fs=None,
) -> dict:
    """Run :func:`sync_once` in a loop — the standby's steady state.

    Channel drops (``ConnectionError``) are counted and retried: every
    op is idempotent, so a half-applied pass just re-ships.  ``stop`` is
    an optional :class:`threading.Event`-alike; ``passes`` bounds the
    loop for tests and one-shot catch-ups; ``max_errors`` turns a
    persistently dead channel into a :class:`ReplicationError`.
    """
    totals = {
        "passes": 0,
        "frames": 0,
        "snapshots": 0,
        "deltas": 0,
        "channel_errors": 0,
    }
    while True:
        if stop is not None and stop.is_set():
            break
        try:
            stats = sync_once(primary_dir, target, fs=fs)
        except ConnectionError as exc:
            totals["channel_errors"] += 1
            if max_errors is not None and totals["channel_errors"] > max_errors:
                raise ReplicationError(
                    f"replication channel failed {totals['channel_errors']} "
                    f"times; last error: {exc}"
                ) from exc
        else:
            totals["passes"] += 1
            for field in ("frames", "snapshots", "deltas"):
                totals[field] += stats[field]
            if passes is not None and totals["passes"] >= passes:
                break
        if stop is not None:
            if stop.wait(interval):
                break
        elif interval:
            time.sleep(interval)
    return totals


# ---------------------------------------------------------------------------
# Promotion


def promote(
    state_dir: str | Path,
    config,
    *,
    fence: str | Path | None = None,
    policy: str = "repair",
    fsync: bool = False,
    fs=None,
) -> dict:
    """Promote a standby (or restored) state dir to primary.

    ``fence`` names the *old* primary's state dir: any ``shard.lock``
    there with a live owner (pid + start-time token, pid-reuse-proof)
    refuses the promotion — that is a split-brain attempt, not a
    failover.  Dead owners are stale locks and promotion proceeds.

    The promotion itself is the ordinary recovery path: acquire each
    service root's lock, open its :class:`AdvisorService` — which
    rebuilds every session its directories name — and close, the
    compact-then-replay step.  Because recovery is bit-identical, the
    returned per-vehicle ``state_digest()`` values equal what a clean
    continuation of the primary would have had — under ``config``
    equal to the primary's.  A session directory that does not name its
    own vehicle raises :class:`~repro.service.wal.WalCorruptionError`
    rather than silently dropping a vehicle's history; a plain
    ``config`` over learning-augmented state raises
    :class:`~repro.errors.InvalidParameterError` before that session is
    touched.
    """
    state_dir = Path(state_dir)
    if fence is not None:
        fence = Path(fence)
        for lock in sorted(fence.rglob(SHARD_LOCK_NAME)):
            try:
                record = lock.read_text()
            except OSError:
                continue
            if owner_alive(record):
                raise ShardLockError(
                    f"refusing to promote {state_dir}: primary {fence} is still "
                    f"owned by a live process ({record.strip()!r}) — split-brain "
                    f"attempt fenced"
                )

    digests: dict[str, str] = {}
    costs: dict[str, float] = {}
    roots: list[str] = []
    for root in service_roots(state_dir):
        roots.append(str(root))
        lock = acquire_shard_lock(root)
        try:
            service = AdvisorService(root, config, policy=policy, fsync=fsync, fs=fs)
            try:
                snapshot = service.health_snapshot()
                for vid, info in snapshot["vehicles"].items():
                    digests[vid] = info["digest"]
                    costs[vid] = info["total_cost"]
            finally:
                service.close()
        finally:
            release_shard_lock(lock)

    # This dir is a primary now; a leftover standby watermark file would
    # only mislead a future doctor run.
    try:
        os.unlink(state_dir / WATERMARKS_NAME)
    except FileNotFoundError:
        pass

    ordered = sorted(digests)
    return {
        "fleet_cost": sum(costs[vid] for vid in ordered),
        "digests": {vid: digests[vid] for vid in ordered},
        "vehicles": ordered,
        "roots": roots,
    }


# ---------------------------------------------------------------------------
# Cold backup / point-in-time restore


def backup(state_dir: str | Path, archive_dir: str | Path, *, fs=None) -> dict:
    """Copy a state dir into a cold archive under a content manifest.

    Files are copied first; per-vehicle tips/digests are then computed
    **from the archive copies** (a live primary may have moved on — the
    manifest must describe the archive, not the source); the CRC-framed
    manifest is published last, so a backup interrupted at any point is
    a missing/unreadable manifest — detected, never trusted.
    """
    state_dir = Path(state_dir)
    archive = Path(archive_dir)
    manifest_path = archive / MANIFEST_NAME
    if manifest_path.exists():
        raise ReplicationError(
            f"{archive}: already holds a backup manifest — refusing to overwrite"
        )
    archive.mkdir(parents=True, exist_ok=True)

    rels = []
    if (state_dir / WATERMARKS_NAME).exists():
        rels.append(WATERMARKS_NAME)
    for key, vdir in session_dirs(state_dir):
        for name in (WAL_NAME, SNAPSHOT_NAME, DELTA_NAME):
            if (vdir / name).exists():
                rels.append(key + "/" + name)

    files = {}
    for rel in rels:
        data = (state_dir / rel).read_bytes()
        dest = archive / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        if fs is not None:
            fs.check("backup-write", dest)
        tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, dest)
        files[rel] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    vehicles = {}
    for key, vdir in session_dirs(archive):
        found = identify_session(vdir)
        if found is None:
            continue  # holds no state
        summary = durable_summary(vdir)
        vehicles[key] = {
            "tip": summary["tip"],
            "digest": summary["digest"],
            "vehicle": found[0],
        }

    manifest = {"version": 1, "files": files, "vehicles": vehicles}
    body = json.dumps(manifest, sort_keys=True, allow_nan=False)
    if fs is not None:
        fs.check("backup-write", manifest_path)
    _publish_text(
        manifest_path, f"{zlib.crc32(body.encode()):08x} {body}", fs=None
    )
    return manifest


def read_manifest(archive_dir: str | Path) -> dict:
    """The archive's manifest; missing or CRC-bad raises
    :class:`ReplicationError` (a torn backup looks exactly like this)."""
    path = Path(archive_dir) / MANIFEST_NAME
    if not path.exists():
        raise ReplicationError(
            f"corrupt backup: {path} is missing (backup incomplete or torn)"
        )
    payload = _unframe(path.read_text().strip())
    if payload is None or not isinstance(payload.get("files"), dict):
        raise ReplicationError(f"corrupt backup: {path} failed its CRC check")
    return payload


def restore(
    archive_dir: str | Path,
    state_dir: str | Path,
    *,
    upto_seq: int | None = None,
    fs=None,
) -> dict:
    """Restore a cold archive into an empty state dir.

    Every archived file's hash is verified against the manifest *before
    anything is written* — a corrupt backup aborts with the target
    untouched.  With ``upto_seq``, history past that point is left
    behind: a delta beyond it is not restored and the WAL keeps only
    frames at or below it.  That rebuilds the requested state only when
    the WAL holds every frame from the remaining snapshot up to
    ``upto_seq`` (or to the session's end, when it stops short); when
    compaction already consumed those frames the restore is refused,
    also before anything is written.
    """
    archive = Path(archive_dir)
    state_dir = Path(state_dir)
    manifest = read_manifest(archive)
    state_dir.mkdir(parents=True, exist_ok=True)
    if session_dirs(state_dir):
        raise ReplicationError(
            f"{state_dir}: target already holds session state — refusing to "
            f"restore over it"
        )

    for rel, meta in sorted(manifest["files"].items()):
        src = archive / rel
        if not src.exists():
            raise ReplicationError(
                f"corrupt backup: {rel} is named in the manifest but missing"
            )
        data = src.read_bytes()
        if len(data) != meta["bytes"] or hashlib.sha256(data).hexdigest() != meta["sha256"]:
            raise ReplicationError(
                f"corrupt backup: {rel} does not match its manifest hash"
            )

    cuts = {}
    if upto_seq is not None:
        for key, vdir in session_dirs(archive):
            cuts[key] = _point_in_time_cut(key, vdir, upto_seq)

    report = {"files": 0, "truncated": {}, "upto_seq": upto_seq}
    for rel in sorted(manifest["files"]):
        if rel == WATERMARKS_NAME:
            continue  # the restored dir is a primary, not a standby
        data = (archive / rel).read_bytes()
        key, _, name = rel.rpartition("/")
        if key in cuts:
            drop_delta, kept, dropped = cuts[key]
            if name == DELTA_NAME and drop_delta:
                continue
            if name == WAL_NAME and dropped:
                data = "".join(line + "\n" for line in kept).encode()
                report["truncated"][key] = dropped
        dest = state_dir / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        if fs is not None:
            fs.check("restore-write", dest)
        tmp = dest.with_name(dest.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, dest)
        report["files"] += 1
    return report


def _point_in_time_cut(key: str, vdir: Path, upto_seq: int) -> tuple[bool, list, int]:
    """How one archived session rewinds to ``upto_seq``:
    ``(drop_delta, kept_wal_lines, dropped_frame_count)``.

    Raises :class:`ReplicationError` when the rewound files would not
    rebuild the session's first ``upto_seq`` events: the snapshot that
    remains is past ``upto_seq``, or the WAL lacks a frame between it
    and ``upto_seq`` (a delta compaction resets the log, so the frames
    between its base and itself survive nowhere).
    """
    pair = read_snapshot_pair(vdir / SNAPSHOT_NAME)
    base = tip = pair.merged_seq
    drop_delta = pair.delta_live and tip > upto_seq
    if drop_delta:
        base = pair.seq
    kept, dropped = [], 0
    reached = base
    for seq, line, _record in WriteAheadLog(vdir / WAL_NAME).follow(0):
        tip = max(tip, seq)
        if seq > upto_seq:
            dropped += 1
            continue
        kept.append(line)
        if seq == reached + 1:
            reached = seq
    need = min(upto_seq, tip)
    if reached != need:
        raise ReplicationError(
            f"{key}: --upto-seq {upto_seq} needs the state at seq {need}, but "
            f"the archived snapshot is at seq {base} and the WAL continues it "
            f"only to seq {reached}; compaction already consumed the history "
            f"that restore point needs"
        )
    return drop_delta, kept, dropped


# ---------------------------------------------------------------------------
# End-to-end verification


def fleet_doctor(
    state_dir: str | Path,
    *,
    replica_dir: str | Path | None = None,
    archive_dir: str | Path | None = None,
    max_lag: int | None = None,
    verify_restore: bool = False,
) -> dict:
    """Cross-check WAL/snapshot/replica/archive consistency end to end.

    ``problems`` are states recovery would get *wrong* or refuse, or
    data that is already lost (corrupt frames, a session directory that
    does not name its own vehicle, seq gaps, a replica ahead of its
    primary, divergent digests at the same compaction point, a corrupt
    backup); ``warnings`` are benign-but-notable (torn tails, stale
    deltas).  A directory holding no state (its base snapshot never
    landed) is not a session and is not listed.  ``ok`` is
    ``problems == []``.

    With ``replica_dir``, per-session lag (primary durable tip minus
    replica durable tip) is reported, watermarks are checked against
    what is actually on the replica's disk, and — when both sides sit at
    the same tip *and* the same snapshot seq — their durable digests
    must match bit-for-bit.  With ``archive_dir``, every archived file
    is re-hashed against the manifest; ``verify_restore`` additionally
    checks ``state_dir`` byte-for-byte against the manifest (meaningful
    right after a *full* restore, before promotion compacts).
    """
    state_dir = Path(state_dir)
    problems: list[str] = []
    warnings: list[str] = []
    vehicles: dict[str, dict] = {}

    for key, vdir in session_dirs(state_dir):
        info: dict = {"tip": 0, "snapshot_seq": 0, "digest": None}
        vehicles[key] = info
        try:
            found = identify_session(vdir)
            if found is None:
                del vehicles[key]  # holds no state: not a session
                continue
            pair = found[1]
            merged_seq = pair.merged()[0]
        except WalCorruptionError as exc:
            problems.append(f"{key}: snapshot-corrupt: {exc}")
            continue

        wal = WriteAheadLog(vdir / WAL_NAME)
        try:
            frames = list(wal.follow(0))
        except WalCorruptionError as exc:
            problems.append(f"{key}: wal-corrupt: {exc}")
            continue
        if wal.tail_torn:
            warnings.append(f"{key}: wal-tail-torn (final frame dropped — in-flight append)")

        expect = merged_seq
        for seq, _line, _record in frames:
            if seq <= merged_seq:
                continue
            if seq != expect + 1:
                problems.append(
                    f"{key}: wal-gap: seq jumps {expect} -> {seq} beyond "
                    f"snapshot seq {merged_seq} — recovery would silently skip "
                    f"events"
                )
                break
            expect = seq

        if pair.delta is not None and not pair.delta_live:
            warnings.append(
                f"{key}: stale delta (base_seq {pair.delta['base_seq']} != "
                f"snapshot seq {pair.seq}) — ignored on load; "
                f"`cache doctor --state-dir` reclaims it"
            )

        info.update(durable_summary(vdir))

    replication = None
    if replica_dir is not None:
        replica_dir = Path(replica_dir)
        marks: dict = {}
        try:
            marks = _load_marks(replica_dir / WATERMARKS_NAME)
        except WalCorruptionError as exc:
            problems.append(f"replica: watermark-corrupt: {exc}")
        lag_by_key: dict[str, int] = {}
        total_lag = 0
        max_lag_seen = 0
        lagging = 0
        for key, info in vehicles.items():
            if info["digest"] is None:
                continue  # primary side already flagged corrupt
            rdir = replica_dir / key
            r_summary = None
            if rdir.is_dir():
                try:
                    r_summary = durable_summary(rdir)
                except WalCorruptionError as exc:
                    problems.append(f"replica {key}: {exc}")
                    continue
            r_tip = r_summary["tip"] if r_summary else 0
            mark = marks.get(key) or {}
            applied = int(mark.get("applied", 0)) if isinstance(mark, dict) else 0
            if applied > r_tip:
                problems.append(
                    f"replica {key}: watermark-ahead: watermark claims applied "
                    f"seq {applied} but replica state only reaches {r_tip}"
                )
            if r_tip > info["tip"]:
                problems.append(
                    f"replica {key}: replica-ahead: replica at seq {r_tip} but "
                    f"primary at {info['tip']} — wrong pairing or primary rollback"
                )
            lag = max(0, info["tip"] - r_tip)
            lag_by_key[key] = lag
            total_lag += lag
            max_lag_seen = max(max_lag_seen, lag)
            lagging += 1 if lag else 0
            if (
                r_summary is not None
                and lag == 0
                and r_tip == info["tip"]
                and r_summary["snapshot_seq"] == info["snapshot_seq"]
                and r_summary["digest"] != info["digest"]
            ):
                problems.append(
                    f"replica {key}: replica-diverged: same durable tip "
                    f"{info['tip']} and snapshot seq but different logical digest"
                )
        replication = {
            "replica": str(replica_dir),
            "max_lag_events": max_lag_seen,
            "total_lag_events": total_lag,
            "vehicles_lagging": lagging,
            "lag": lag_by_key,
        }
        if max_lag is not None and max_lag_seen > max_lag:
            problems.append(
                f"replication-lag: max lag {max_lag_seen} events exceeds the "
                f"configured bound {max_lag}"
            )

    archive = None
    if archive_dir is not None:
        archive_dir = Path(archive_dir)
        manifest = None
        try:
            manifest = read_manifest(archive_dir)
        except ReplicationError as exc:
            problems.append(f"backup-corrupt: {exc}")
        if manifest is not None:
            archive = {"files": len(manifest["files"]), "verified": 0}
            for rel, meta in sorted(manifest["files"].items()):
                src = archive_dir / rel
                if not src.exists():
                    problems.append(
                        f"backup-corrupt: {rel} is named in the manifest but missing"
                    )
                    continue
                data = src.read_bytes()
                if (
                    len(data) != meta["bytes"]
                    or hashlib.sha256(data).hexdigest() != meta["sha256"]
                ):
                    problems.append(
                        f"backup-corrupt: {rel} does not match its manifest hash"
                    )
                    continue
                archive["verified"] += 1
            if verify_restore:
                for rel, meta in sorted(manifest["files"].items()):
                    if rel == WATERMARKS_NAME:
                        continue
                    dest = state_dir / rel
                    if not dest.exists():
                        problems.append(
                            f"restore-incomplete: {rel} is missing from {state_dir}"
                        )
                        continue
                    data = dest.read_bytes()
                    if hashlib.sha256(data).hexdigest() != meta["sha256"]:
                        problems.append(
                            f"restore-diverged: {rel} differs from the backup copy"
                        )

    return {
        "ok": not problems,
        "problems": problems,
        "warnings": warnings,
        "vehicles": vehicles,
        "replication": replication,
        "archive": archive,
    }


class ReplicationMonitor:
    """Live replication-lag gauge for a primary's health/readiness.

    Wire into ``AdvisorService(..., replication=monitor)`` (or the
    sharded service): ``health_snapshot()`` then carries a
    ``replication`` section and ``/ready`` flips to 503 with a machine-
    readable reason while any session lags past ``max_lag`` events.
    Reads the primary's durable tips and the standby's watermark file —
    both crash-safe artifacts — so it is accurate across restarts of
    either side.
    """

    def __init__(
        self, primary_dir: str | Path, replica_dir: str | Path, *, max_lag: int = 0
    ) -> None:
        self.primary_dir = Path(primary_dir)
        self.replica_dir = Path(replica_dir)
        self.max_lag = int(max_lag)

    def snapshot(self) -> dict:
        marks: dict = {}
        corrupt = False
        try:
            marks = _load_marks(self.replica_dir / WATERMARKS_NAME)
        except WalCorruptionError:
            corrupt = True
        per_vehicle: dict[str, dict] = {}
        total_lag = 0
        max_lag_seen = 0
        lagging = 0
        for key, vdir in session_dirs(self.primary_dir):
            try:
                tip = durable_summary(vdir)["tip"]
            except WalCorruptionError:
                continue  # the doctor reports corruption; lag is moot here
            mark = marks.get(key) or {}
            applied = int(mark.get("applied", 0)) if isinstance(mark, dict) else 0
            lag = max(0, tip - applied)
            per_vehicle[key] = {"tip": tip, "applied": applied, "lag": lag}
            total_lag += lag
            max_lag_seen = max(max_lag_seen, lag)
            lagging += 1 if lag else 0
        return {
            "replica": str(self.replica_dir),
            "max_lag_bound": self.max_lag,
            "max_lag_events": max_lag_seen,
            "total_lag_events": total_lag,
            "vehicles_lagging": lagging,
            "vehicles": per_vehicle,
            "within_bound": (not corrupt) and max_lag_seen <= self.max_lag,
            "watermarks_corrupt": corrupt,
        }


# ---------------------------------------------------------------------------
# State-dir hygiene (`cache doctor --state-dir`)


def sweep_state_dir(state_dir: str | Path) -> list[str]:
    """Reclaim debris a SIGKILL mid-compaction leaves in a state dir.

    Two families: ``*.tmp<pid>`` staging files whose writer is dead (a
    live writer's temps are left alone — it is about to rename them),
    and delta sidecars whose base snapshot is gone or has moved past
    their ``base_seq`` (loads already ignore them; this reclaims the
    bytes).  Returns the removed paths relative to ``state_dir``.
    """
    state_dir = Path(state_dir)
    removed: list[str] = []
    for path in sorted(state_dir.rglob("*.tmp*")):
        if not path.is_file():
            continue
        suffix = path.name[path.name.rfind(".tmp") + 4 :]
        if suffix.isdigit() and pid_alive(int(suffix)):
            continue
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        removed.append(str(path.relative_to(state_dir)))
    for delta_path in sorted(state_dir.rglob(DELTA_NAME)):
        if not delta_path.is_file():
            continue
        pair = read_snapshot_pair(delta_path.with_name(SNAPSHOT_NAME), verify=False)
        # A corrupt *base* is the doctor's problem, not sweepable debris
        # — removing the delta there would destroy evidence.
        corrupt_base = pair.snapshot_text is not None and pair.snapshot is None
        if not (pair.delta_live or corrupt_base):
            try:
                delta_path.unlink()
            except FileNotFoundError:
                continue
            removed.append(str(delta_path.relative_to(state_dir)))
    return removed

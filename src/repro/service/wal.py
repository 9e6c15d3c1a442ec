"""Durable per-session state: CRC-framed write-ahead log + snapshots.

The advisor service promises that a SIGKILL at *any* instant loses no
applied work: restarting from the same state directory restores every
session bit-identically.  Two files per session make that true:

``wal.jsonl``
    An append-only log of applied stop events.  Each line is framed as
    ``<crc32-hex8> <json>`` where the CRC covers the JSON bytes, so a
    torn tail (the process died mid-write) is *detected*, not parsed as
    garbage: replay stops at the first bad frame.  Every append is
    flushed (surviving a process kill); ``fsync=True`` additionally
    syncs to disk (surviving an OS crash).
``snapshot.json``
    A periodic compaction point: the full serialized session state
    after ``seq`` applied events, written to a temp file and atomically
    published with ``os.replace`` — readers see either the old snapshot
    or the new one, never a partial write.

Recovery = load the snapshot (if any), then replay WAL records with
``seq`` greater than the snapshot's.  The ``seq`` filter is what makes
compaction crash-safe: the snapshot is published *before* the WAL is
reset, so dying between the two steps merely leaves already-compacted
records in the log, and replay skips them.

This module is the one place that knows a session directory's format.
A service root holds ``vehicles/<dirname>`` per session
(:func:`list_session_dirs`, :func:`_vehicle_dirname`); every session
publishes a base snapshot at seq 0 naming its vehicle, so a directory
identifies itself (:func:`identify_session`) although its hashed name
cannot be inverted; and :func:`read_snapshot_pair` is the one reader of
the snapshot/delta pair, with the one rule for a live delta.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError

__all__ = [
    "SnapshotPair",
    "SnapshotStore",
    "WalCorruptionError",
    "WriteAheadLog",
    "identify_session",
    "list_session_dirs",
    "read_snapshot_pair",
]

#: Canonical per-session durable file names (the replication layer and
#: state-dir doctor address sessions by these).
WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
DELTA_NAME = SNAPSHOT_NAME + ".delta"

#: Sub-directory of a service root holding one directory per session.
VEHICLES_DIR = "vehicles"

_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def _fsync_dir(path: str | Path) -> None:
    """Fsync a directory so a just-created or just-renamed entry survives
    an OS crash — ``fsync`` of the file alone durably stores its *bytes*
    but not the directory entry naming them.  Best-effort: directories
    are not fsyncable on every platform/filesystem, and losing the
    belt-and-braces sync there is not an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def _parent(path: str) -> str:
    return os.path.dirname(path) or "."


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


class WalCorruptionError(ReproError, RuntimeError):
    """Durable session state failed an integrity check: a WAL frame
    before the final record (real corruption, not a torn tail), a
    snapshot frame, or a session directory that does not identify the
    vehicle whose history it holds."""


def _vehicle_dirname(vehicle_id: str) -> str:
    """A filesystem-safe, collision-free directory name per vehicle.

    The name always ends in a hash of the exact id, so distinct ids can
    never share a directory — not even ids differing only in case on a
    case-insensitive filesystem (macOS/Windows), and not an id that
    happens to look like another id's hashed name.  A sanitized prefix
    of the id is kept for operator readability.
    """
    digest = hashlib.sha256(vehicle_id.encode()).hexdigest()[:16]
    prefix = _UNSAFE_CHARS.sub("_", vehicle_id)[:48].lstrip(".")
    return f"{prefix}-{digest}" if prefix else f"veh-{digest}"


def list_session_dirs(root: str | Path) -> list[Path]:
    """Every session directory of one service root that holds a durable
    file, in name order."""
    vehicles = Path(root) / VEHICLES_DIR
    try:
        entries = sorted(os.scandir(vehicles), key=lambda entry: entry.name)
    except FileNotFoundError:
        return []
    return [
        Path(entry.path)
        for entry in entries
        if entry.is_dir()
        and any(
            os.path.exists(os.path.join(entry.path, name))
            for name in (WAL_NAME, SNAPSHOT_NAME, DELTA_NAME)
        )
    ]


def _event_body(payload: dict) -> str | None:
    """Hand-rolled serializer for the hot stop-event frame shape.

    Byte-identical to ``json.dumps(payload, sort_keys=True)`` for a
    plain ``{"id": str, "seq": int, "t": float, "y": float}`` record
    (Python's ``repr`` of a finite float IS the json float form, and
    the string field still goes through ``json.dumps`` for escaping);
    returns None for any other shape so the general encoder handles it.
    ``test_service_wal.py`` pins the byte identity.
    """
    if len(payload) != 4:
        return None
    try:
        event_id = payload["id"]
        seq = payload["seq"]
        timestamp = payload["t"]
        stop_length = payload["y"]
    except KeyError:
        return None
    if (
        type(event_id) is not str
        or type(seq) is not int
        or type(timestamp) is not float
        or type(stop_length) is not float
        or not math.isfinite(timestamp)
        or not math.isfinite(stop_length)
    ):
        return None
    return (
        f'{{"id": {json.dumps(event_id)}, "seq": {seq}, '
        f'"t": {timestamp!r}, "y": {stop_length!r}}}'
    )


def _frame(payload: dict) -> str:
    body = _event_body(payload)
    if body is None:
        body = json.dumps(payload, sort_keys=True, allow_nan=False)
    return f"{zlib.crc32(body.encode()):08x} {body}"


def _unframe(line: str) -> dict | None:
    """Decode one WAL line; None means the frame is invalid."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_text, body = line[:8], line[9:]
    try:
        crc = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode()) != crc:
        return None
    try:
        payload = json.loads(body)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


class WriteAheadLog:
    """Append-only CRC-framed JSONL log for one advisor session.

    ``fs`` is an optional fault-injection shim (``check(op, path)``)
    consulted before each physical operation; a scheduled ``OSError``
    from it is indistinguishable from the real disk failing
    (:class:`repro.engine.faults.FsFaultInjector`).
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, fs=None) -> None:
        # Kept as a str (a Path is several times larger, and every
        # session holds one log); :attr:`path` derives the Path.
        self._path = os.fspath(path)
        self.fsync = bool(fsync)
        self.fs = fs
        #: True when the last :meth:`replay` dropped a torn final frame;
        #: recovery uses it to force a compaction so the torn bytes never
        #: survive into the next append.
        self.tail_torn = False
        # The directory entry for a brand-new log file is only durable
        # once its parent directory is synced; done lazily on the first
        # fsync'd append rather than here (creation may predate fsync).
        self._dir_synced = False
        os.makedirs(_parent(self._path), exist_ok=True)

    @property
    def path(self) -> Path:
        return Path(self._path)

    def _check(self, op: str) -> None:
        if self.fs is not None:
            self.fs.check(op, self._path)

    def probe(self) -> None:
        """One cheap disk-health probe: open-append + flush (+ fsync when
        configured), raising ``OSError`` while the disk is still sick.

        What the ``DURABILITY_SUSPENDED`` recovery path calls on its
        backoff schedule before attempting to replay the buffered tail.
        """
        self._check("wal-probe")
        with open(self._path, "ab") as handle:
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def append(self, record: dict) -> None:
        """Durably append one record: a group-commit of one."""
        self.append_many([record])

    def _sync_dir_once(self) -> None:
        """Make the log's directory entry durable, once per instance.

        Only reached under ``fsync=True``: without it nothing here
        claims OS-crash durability anyway."""
        if not self._dir_synced:
            _fsync_dir(_parent(self._path))
            self._dir_synced = True

    def append_many(self, records: list[dict]) -> None:
        """Group-commit: durably append a batch with ONE write + flush
        (+ at most one fsync), instead of one syscall round-trip per
        record.

        The frames are concatenated into a single buffer before the
        write, so a kill mid-commit tears the file at some byte offset
        of that buffer: replay then recovers exactly the complete
        leading frames — a *prefix* of the batch, never a frame from the
        middle without its predecessors.  (POSIX does not promise a
        single ``write`` is atomic, but it does append sequentially;
        the prefix property is all recovery needs, and the torn-anywhere
        Hypothesis property in ``tests/test_service_wal.py`` pins it.)

        A previous crash can leave the file without a trailing newline.
        Appending blindly would merge the new frames into that tail, so
        the tail is healed first: a complete frame that lost only its
        newline gets one (the record is preserved); a partial frame is
        truncated away (it was never durable).
        """
        if not records:
            return
        self._check("wal-append")
        with open(self._path, "a+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    data = handle.read()
                    cut = data.rfind(b"\n") + 1
                    tail = data[cut:].decode(errors="replace")
                    if _unframe(tail) is not None:
                        handle.write(b"\n")
                    else:
                        handle.truncate(cut)
            buffer = "".join(_frame(record) + "\n" for record in records)
            handle.write(buffer.encode())
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
                self._sync_dir_once()

    def replay(self) -> list[dict]:
        """All intact records, in order.

        The final frame may be torn by a kill mid-append and is then
        dropped (and :attr:`tail_torn` set, so recovery compacts the
        torn bytes away); a bad frame *followed by intact ones* means
        the file was corrupted at rest and raises
        :class:`WalCorruptionError`.
        """
        self.tail_torn = False
        if not os.path.exists(self._path):
            return []
        lines = _read_text(self._path).splitlines()
        records: list[dict] = []
        for index, line in enumerate(lines):
            if not line:
                continue
            record = _unframe(line)
            if record is None:
                if index == len(lines) - 1:
                    self.tail_torn = True
                    break
                raise WalCorruptionError(
                    f"{self._path}: bad frame at line {index + 1} "
                    f"(not the final line — corruption, not a torn tail)"
                )
            records.append(record)
        return records

    def follow(self, from_seq: int = 0):
        """Tail-follower for replication: yield ``(seq, line, record)``
        for every intact frame whose ``seq`` is greater than ``from_seq``.

        ``line`` is the raw CRC-framed text exactly as it sits in the
        log, so a shipper can append it to a standby's WAL byte-for-byte
        (re-framing would be byte-identical anyway — framing is
        deterministic — but shipping the verified original is cheaper
        and keeps the CRC end-to-end).  Torn-tail discipline is exactly
        :meth:`replay`'s: a bad *final* frame is dropped silently (and
        :attr:`tail_torn` set) because the primary may be mid-append
        right now; a bad frame followed by intact ones raises
        :class:`WalCorruptionError`.  Records without an integer ``seq``
        are never shipped (none are written by the session today).
        """
        self.tail_torn = False
        if not os.path.exists(self._path):
            return
        lines = _read_text(self._path).splitlines()
        for index, line in enumerate(lines):
            if not line:
                continue
            record = _unframe(line)
            if record is None:
                if index == len(lines) - 1:
                    self.tail_torn = True
                    return
                raise WalCorruptionError(
                    f"{self._path}: bad frame at line {index + 1} "
                    f"(not the final line — corruption, not a torn tail)"
                )
            seq = record.get("seq")
            if type(seq) is int and seq > from_seq:
                yield seq, line, record

    def last_seq(self) -> int:
        """Highest intact ``seq`` in the log (0 when empty/missing)."""
        last = 0
        for seq, _line, _record in self.follow(0):
            last = seq
        return last

    def reset(self) -> None:
        """Atomically truncate the log (the post-snapshot compaction step).

        ``os.replace`` of a fresh empty file means a crash leaves either
        the full old log or an empty one — never a half-truncated file.
        """
        self._check("wal-reset")
        tmp = f"{self._path}.tmp{os.getpid()}"
        with open(tmp, "w"):
            pass
        os.replace(tmp, self._path)
        if self.fsync:
            _fsync_dir(_parent(self._path))


class SnapshotStore:
    """Atomic snapshot of one session's full state, plus delta overlays.

    A full snapshot (``snapshot.json``) is the complete serialized
    state.  Between full snapshots a compaction may instead publish a
    **delta** sidecar (``snapshot.json.delta``): the scalar fields that
    changed plus the items *appended* to the bounded history lists since
    the full base — typically 10-50x smaller than a full snapshot whose
    bulk is the dedup window.  Both files are published atomically, and
    the delta names the full snapshot it extends (``base_seq``): a delta
    left behind by a crash whose base has since moved is stale and
    ignored, never half-applied, and a delta whose base is missing is
    corruption.  Base seqs cannot collide: a delta at
    ``seq`` proves the session durably reached ``seq``, and applied
    counts never move backwards, so no later full snapshot can reuse the
    delta's smaller ``base_seq``.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, fs=None) -> None:
        # A str, like WriteAheadLog's; :attr:`path` and :attr:`delta_path`
        # derive Paths.
        self._path = os.fspath(path)
        self.fsync = bool(fsync)
        self.fs = fs
        os.makedirs(_parent(self._path), exist_ok=True)

    @property
    def path(self) -> Path:
        return Path(self._path)

    @property
    def delta_path(self) -> Path:
        return Path(self._path + ".delta")

    def _publish(self, path: str, body: str) -> None:
        if self.fs is not None:
            self.fs.check("snapshot-publish", path)
        payload = f"{zlib.crc32(body.encode()):08x} {body}"
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The rename itself lives in the directory: without a directory
        # fsync an OS crash can revert the publish even though the new
        # snapshot's bytes are safely on disk.
        if self.fsync:
            _fsync_dir(_parent(path))

    def save(self, seq: int, state: dict) -> None:
        """Publish ``state`` as the full snapshot after ``seq`` events.

        Any delta sidecar is deleted afterwards: it extended the
        *previous* full snapshot.  A crash between the two steps leaves
        a stale delta whose ``base_seq`` no longer matches — ignored on
        load and cleaned up by the next full save.
        """
        body = json.dumps(
            {"seq": int(seq), "state": state}, sort_keys=True, allow_nan=False
        )
        self._publish(self._path, body)
        try:
            os.unlink(self._path + ".delta")
        except FileNotFoundError:
            pass

    def save_delta(
        self, seq: int, base_seq: int, changed: dict, appended: dict
    ) -> None:
        """Publish a delta: ``changed`` fields replace the base's,
        ``appended`` lists extend them (bounded histories re-trim on
        load).  Always cumulative against the *full* base, so rewriting
        the one sidecar file supersedes the previous delta."""
        body = json.dumps(
            {
                "seq": int(seq),
                "base_seq": int(base_seq),
                "set": changed,
                "append": appended,
            },
            sort_keys=True,
            allow_nan=False,
        )
        self._publish(self._path + ".delta", body)

    def load(self) -> tuple[int, dict] | None:
        """The latest snapshot as ``(seq, state)``, or None if absent
        (:meth:`SnapshotPair.merged` of :func:`read_snapshot_pair`)."""
        return read_snapshot_pair(self._path).merged()


def _read_optional(path: str) -> str | None:
    try:
        return _read_text(path)
    except FileNotFoundError:
        return None


def _decode(text: str | None, fields: tuple[str, ...]) -> dict | None:
    """A snapshot-family file's payload; None when absent or when its
    frame or fields are bad."""
    if text is None:
        return None
    payload = _unframe(text.strip())
    if payload is None or any(field not in payload for field in fields):
        return None
    return payload


@dataclass(frozen=True)
class SnapshotPair:
    """One session directory's snapshot and delta sidecar, as read.

    ``path`` is the snapshot's; ``snapshot_text``/``delta_text`` are the
    raw files (None when absent), shipped and archived byte-for-byte;
    ``snapshot``/``delta`` are their decoded frames (None when absent —
    or corrupt, for a pair read with ``verify=False``).
    """

    path: str
    snapshot_text: str | None
    delta_text: str | None
    snapshot: dict | None
    delta: dict | None

    @property
    def seq(self) -> int:
        """The full snapshot's seq (0 without one)."""
        return 0 if self.snapshot is None else int(self.snapshot["seq"])

    @property
    def delta_live(self) -> bool:
        """The one rule for a delta: it extends exactly the full
        snapshot whose seq is its ``base_seq``.  Any other delta is
        stale (its base moved on; loads ignore it, sweeps reclaim it)
        or orphaned."""
        return (
            self.snapshot is not None
            and self.delta is not None
            and int(self.delta["base_seq"]) == self.seq
        )

    @property
    def merged_seq(self) -> int:
        """The seq of the merged state: the live delta's, else the full
        snapshot's."""
        return int(self.delta["seq"]) if self.delta_live else self.seq

    def merged(self) -> tuple[int, dict] | None:
        """The pair's state as ``(seq, state)``, or None without a
        snapshot.

        A live delta is merged in (appended list items are
        concatenated; the session's bounded deques re-trim them on
        restore); a stale one is ignored.  A delta whose base is
        *missing* — no full snapshot, or one older than the delta's base
        — raises: a delta is only ever written after its base, so the
        state it extends is lost.
        """
        if self.snapshot is None:
            if self.delta_text is not None:
                raise WalCorruptionError(
                    f"{self.path}: a delta snapshot exists but its base does not"
                )
            return None
        seq, state = self.seq, self.snapshot["state"]
        if self.delta is not None and int(self.delta["base_seq"]) > seq:
            raise WalCorruptionError(
                f"{self.path}: the delta snapshot extends a base at seq "
                f"{self.delta['base_seq']}, but the full snapshot is at seq {seq}"
            )
        if self.delta_live:
            state = dict(state)
            state.update(self.delta["set"])
            for key, items in self.delta["append"].items():
                state[key] = list(state.get(key, [])) + list(items)
            seq = int(self.delta["seq"])
        return seq, state


def read_snapshot_pair(path: str | Path, *, verify: bool = True) -> SnapshotPair:
    """Read the snapshot at ``path`` and its delta sidecar (snapshot
    first, then delta).

    The CRCs guard against at-rest corruption; because publication is
    atomic, a bad frame is never a torn write, so ``verify`` (the
    default) raises :class:`WalCorruptionError` on one.  Only the sweep,
    which must tell a corrupt delta (debris) from a corrupt base
    (evidence), reads with ``verify=False``.
    """
    path = os.fspath(path)
    delta_path = path + ".delta"
    snapshot_text = _read_optional(path)
    delta_text = _read_optional(delta_path)
    pair = SnapshotPair(
        path,
        snapshot_text,
        delta_text,
        _decode(snapshot_text, ("seq", "state")),
        _decode(delta_text, ("seq", "base_seq", "set", "append")),
    )
    if verify:
        if snapshot_text is not None and pair.snapshot is None:
            raise WalCorruptionError(f"{path}: snapshot failed its CRC check")
        if delta_text is not None and pair.delta is None:
            raise WalCorruptionError(
                f"{delta_path}: snapshot delta failed its CRC check"
            )
    return pair


def identify_session(directory: str | Path) -> tuple[str, SnapshotPair] | None:
    """The vehicle a session directory belongs to, with its snapshot pair.

    The id comes from the base snapshot (``state["vehicle"]``) that every
    session publishes at seq 0, before its first WAL frame.  None means
    the directory holds no state: no snapshot, no delta and no intact
    WAL frame (a session whose base publish never landed).  Anything
    else that does not name its own vehicle raises
    :class:`WalCorruptionError` rather than dropping a vehicle's
    history or rebuilding it under another vehicle's RNG stream: frames
    or a delta without a base snapshot, or a snapshot whose vehicle
    maps to a different directory.
    """
    directory = os.fspath(directory)
    pair = read_snapshot_pair(os.path.join(directory, SNAPSHOT_NAME))
    if pair.snapshot is None:
        wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        if pair.delta_text is None and not wal.last_seq():
            return None
        raise WalCorruptionError(
            f"{directory}: durable state without a base snapshot naming its "
            f"vehicle — its RNG stream cannot be rebuilt"
        )
    vehicle = pair.snapshot["state"].get("vehicle")
    if not isinstance(vehicle, str) or (
        _vehicle_dirname(vehicle) != os.path.basename(directory)
    ):
        raise WalCorruptionError(
            f"{directory}: snapshot claims vehicle {vehicle!r}, which maps to "
            f"a different directory — misplaced session state"
        )
    return vehicle, pair

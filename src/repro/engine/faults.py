"""Deterministic fault injection for exercising ParallelMap recovery.

Testing the engine's failure paths (retry, timeout, pool-crash
recovery, serial fallback) requires faults that fire *exactly* where
and *exactly* as often as the test says — across worker processes,
across pool rebuilds, without wall-clock races.  :class:`FaultInjector`
wraps a task function and fires a :class:`Fault` the first ``times``
attempts a chosen item is executed, then steps aside forever, so a
"flaky" task deterministically fails N times and then succeeds.

The once-per-attempt bookkeeping must survive the process boundary
(the faulting attempt may run in a worker that is then SIGKILLed), so
claims are sentinel files created by :func:`claim_file` in a shared
``state_dir`` — atomic on every platform, and naturally shared between
the parent, every worker, and every rebuilt pool.  The same helper takes
the ordinal window claims of :class:`FsFaultInjector` and the shard
state-dir locks of :mod:`repro.service.shard`.

Fault kinds
-----------
``"raise"``
    Raise :class:`InjectedFault` (a plain task failure — exercises the
    retry/backoff path).
``"hang"``
    Sleep ``hang_seconds`` *before* computing the normal result
    (exercises the per-task timeout path; without a timeout the map
    merely slows down and results are unchanged).
``"kill"``
    ``SIGKILL`` the current worker process (exercises
    ``BrokenProcessPool`` recovery).  As a safety net the injector
    remembers the pid that built it and downgrades ``kill`` to
    :class:`InjectedFault` when it fires in that process, so a serial
    fallback run can never SIGKILL the test (or CLI) process itself.

The wrapper is picklable as long as the wrapped function is (the same
module-level-callable rule as ParallelMap itself).

Claim files record the pid of the process that claimed them plus its
``/proc`` start-time token (:func:`owner_record`), so a recycled pid
cannot impersonate the original owner.  A run that dies abnormally
(SIGKILL, OOM) leaves its claims behind, and a *rerun* in the same
``state_dir`` would then see every fault as already fired — silently
changing the rerun's behaviour.
:func:`sweep_stale_claims` removes claims held by dead owners; it is an
explicit doctor-style cleanup (``repro-idling cache doctor
--fault-claims DIR``, or :meth:`FaultInjector.sweep_stale`), **not**
automatic, because within one run a SIGKILLed worker's claim is the
record that its ``"kill"`` fault already fired and must survive.
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import time
from dataclasses import dataclass

from ..errors import InvalidParameterError

__all__ = [
    "Fault",
    "FaultInjector",
    "FsFault",
    "FsFaultInjector",
    "InjectedFault",
    "claim_file",
    "owner_alive",
    "owner_record",
    "pid_alive",
    "process_token",
    "sweep_dead_owners",
    "sweep_stale_claims",
]

_KINDS = ("raise", "hang", "kill")


class InjectedFault(Exception):
    """Raised by a ``"raise"``-kind (or parent-side ``"kill"``) fault."""


@dataclass(frozen=True)
class Fault:
    """One fault to inject on one item: what, and how many attempts."""

    kind: str
    times: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"fault kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.times < 1:
            raise InvalidParameterError(f"fault times must be >= 1, got {self.times}")
        if self.hang_seconds < 0:
            raise InvalidParameterError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )


def _item_digest(item) -> str:
    """Stable per-item key (items are matched by ``repr``)."""
    return hashlib.sha256(repr(item).encode()).hexdigest()[:16]


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently names a live process.

    Signal 0 performs the permission/existence check without delivering
    anything; ``EPERM`` means the process exists but belongs to someone
    else, so it still counts as alive.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


#: Public name for the dead-pid check — shared by fault-claim sweeping
#: here and shard-lock sweeping in :mod:`repro.service.shard`.
pid_alive = _pid_alive


def process_token(pid: int) -> str | None:
    """A reuse-proof identity token for ``pid``: its start time.

    Field 22 of ``/proc/<pid>/stat`` is the process start time in clock
    ticks since boot, so the (pid, start-time) pair stays unique for
    the life of the machine — a recycled pid gets a different token and
    can no longer masquerade as the original claim owner.  Returns
    ``None`` where procfs is absent (macOS, restricted containers);
    callers then fall back to the plain dead-pid check.
    """
    try:
        with open(f"/proc/{int(pid)}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
    except (OSError, ValueError):
        return None
    # comm (field 2) is parenthesized and may itself contain spaces or
    # ')' — the remaining fields start after the *last* ')'.
    _, closed, tail = stat.rpartition(")")
    if not closed:
        return None
    fields = tail.split()
    # starttime is field 22 of the full line = index 19 after comm/state.
    if len(fields) < 20:
        return None
    return fields[19]


def owner_record() -> str:
    """What a claim/lock file records: ``"<pid> <token>"``.

    Falls back to the bare pid where :func:`process_token` is
    unavailable — readers treat a token-less record exactly as the
    pre-token format.
    """
    pid = os.getpid()
    token = process_token(pid)
    return f"{pid} {token}" if token is not None else str(pid)


def owner_alive(text: str) -> bool:
    """Whether the owner recorded in a claim/lock file is still alive.

    ``text`` is ``"<pid>"`` (legacy records) or ``"<pid> <token>"``.
    Unreadable records count as dead, and so does a live pid whose
    current start-time token differs from the recorded one — that pid
    was reused by an unrelated process, and honouring it would leave a
    genuinely stale lock in place forever.
    """
    parts = text.split()
    if not parts:
        return False
    try:
        pid = int(parts[0])
    except ValueError:
        return False
    if not _pid_alive(pid):
        return False
    if len(parts) > 1:
        current = process_token(pid)
        if current is not None and current != parts[1]:
            return False
    return True


def claim_file(path) -> bool:
    """Atomically create ``path`` as a claim owned by this process.

    An exclusive create is atomic on every platform, so of any number
    of racing processes exactly one gets ``True``; the file records the
    owner (:func:`owner_record`) so a claim or lock left by an abnormal
    exit can later be recognised — even after pid reuse — and swept by
    :func:`sweep_dead_owners`.  ``False`` means the file already exists.
    """
    try:
        handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.write(handle, owner_record().encode())
    finally:
        os.close(handle)
    return True


def sweep_dead_owners(paths) -> list[str]:
    """Remove every claim/lock file in ``paths`` whose owner is dead.

    Returns the removed paths.  A record with no readable pid (written
    before pids were recorded, or torn by a crash mid-write) counts as
    dead — its owner cannot be identified — and so does a live pid whose
    start-time token no longer matches (see :func:`owner_alive`).
    Non-files and files that cannot be read are left alone.
    """
    removed: list[str] = []
    for path in map(str, paths):
        if not os.path.isfile(path):
            continue
        try:
            with open(path) as handle:
                text = handle.read().strip()
        except OSError:
            continue
        if owner_alive(text):
            continue
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue
        removed.append(path)
    return removed


def sweep_stale_claims(state_dir) -> list[str]:
    """Remove the claim files under ``state_dir`` whose claimer is dead.

    Keeping them would make reruns in the same ``state_dir``
    non-deterministic (every fault would look already fired); see
    :func:`sweep_dead_owners` for what counts as dead.
    """
    try:
        names = sorted(os.listdir(state_dir))
    except FileNotFoundError:
        return []
    return sweep_dead_owners(os.path.join(state_dir, name) for name in names)


class FaultInjector:
    """Wrap ``fn`` so chosen items fault on their first ``times`` attempts.

    Parameters
    ----------
    fn:
        The real task function (module-level callable).
    faults:
        ``{item: Fault}`` — items are matched by ``repr``, so any
        deterministic-``repr`` task item works as a key.
    state_dir:
        Directory for the cross-process claim sentinels; use a fresh
        temporary directory per test.
    """

    def __init__(self, fn, faults: dict, state_dir) -> None:
        self.fn = fn
        self.faults = {_item_digest(item): fault for item, fault in faults.items()}
        self.state_dir = str(state_dir)
        self._creator_pid = os.getpid()

    def sweep_stale(self) -> list[str]:
        """Remove claims left by dead processes (see module docstring)."""
        return sweep_stale_claims(self.state_dir)

    def _claim(self, digest: str, fault: Fault) -> bool:
        """Atomically claim one of the fault's ``times`` firings."""
        os.makedirs(self.state_dir, exist_ok=True)
        return any(
            claim_file(os.path.join(self.state_dir, f"{digest}.{attempt}"))
            for attempt in range(fault.times)
        )

    def __call__(self, item):
        digest = _item_digest(item)
        fault = self.faults.get(digest)
        if fault is not None and self._claim(digest, fault):
            if fault.kind == "raise":
                raise InjectedFault(f"injected failure on item {item!r}")
            if fault.kind == "kill":
                if os.getpid() == self._creator_pid or not hasattr(signal, "SIGKILL"):
                    raise InjectedFault(
                        f"injected kill on item {item!r} downgraded in parent process"
                    )
                os.kill(os.getpid(), signal.SIGKILL)
            # "hang": delay, then fall through to the normal result so
            # an un-timed-out hang changes nothing but wall time.
            time.sleep(fault.hang_seconds)
        return self.fn(item)


# -- ordinal window fault injection ----------------------------------------


@dataclass(frozen=True)
class FsFault:
    """One fault window: ``count`` consecutive failing operations.

    ``errno_code`` is the ``errno`` value carried by the injected
    :class:`OSError` — ``ENOSPC`` (disk full) by default; ``EIO`` and
    ``EROFS`` model media errors and a remounted-read-only filesystem,
    ``ECONNRESET`` a dropped replication connection (``OSError``
    constructs a :class:`ConnectionResetError` for it).
    """

    errno_code: int = errno.ENOSPC
    count: int = 1

    def __post_init__(self) -> None:
        if self.errno_code < 1:
            raise InvalidParameterError(
                f"errno_code must be a positive errno, got {self.errno_code}"
            )
        if self.count < 1:
            raise InvalidParameterError(f"fault count must be >= 1, got {self.count}")


class FsFaultInjector:
    """Deterministic ``OSError`` windows over a stream of operations.

    The WAL/snapshot/ledger writers consult :meth:`check` immediately
    before each physical operation (append, publish, reset, probe), and
    the remote replica target before each channel operation (``connect``,
    then one ``send`` per op in an exchange).  Every call advances a
    global 1-based operation ordinal; when the ordinal hits a key of
    ``faults``, a **down window** opens and that operation — plus the
    next ``count - 1`` checks — raises ``OSError`` with the fault's
    errno, after which the disk or channel "heals" and checks pass
    again.  Ordinals make schedules reproducible without wall clocks,
    the same way :class:`FaultInjector` keys kills to task items.

    Window activation goes through :func:`claim_file` (one claim per
    window, under ``state_dir``), so a rerun over the same state
    directory — a recovery cycle, or a retried replication exchange —
    sees each window fire exactly once.

    The ordinal counter is in-process state: share ONE injector across
    the sessions of one service (``AdvisorService(fs=...)`` does) so
    the schedule covers the interleaved stream, not one file.
    """

    def __init__(self, faults: dict[int, FsFault], state_dir) -> None:
        self.faults = {}
        for ordinal, fault in faults.items():
            ordinal = int(ordinal)
            if ordinal < 1:
                raise InvalidParameterError(
                    f"fault ordinals are 1-based, got {ordinal}"
                )
            self.faults[ordinal] = fault
        self.state_dir = str(state_dir)
        self.ops = 0
        self.raised = 0
        self._windows: list[tuple[int, int]] = []  # (first op past window, errno)

    def _claim(self, ordinal: int) -> bool:
        os.makedirs(self.state_dir, exist_ok=True)
        return claim_file(os.path.join(self.state_dir, f"fs.{ordinal}"))

    def check(self, op: str, path=None) -> None:
        """Count one operation; raise if it falls in a down window.

        ``op`` and ``path`` only label the injected error — scheduling
        is purely ordinal, so a test can place a window without knowing
        which file or exchange the Nth operation happens to touch.
        """
        self.ops += 1
        fault = self.faults.get(self.ops)
        if fault is not None and self._claim(self.ops):
            self._windows.append((self.ops + fault.count, fault.errno_code))
        for until, code in self._windows:
            if self.ops < until:
                self.raised += 1
                name = errno.errorcode.get(code, str(code))
                message = f"injected {name} during {op}"
                if path is None:
                    raise OSError(code, message)
                raise OSError(code, message, str(path))
        self._windows = [window for window in self._windows if self.ops < window[0]]

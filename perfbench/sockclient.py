"""Client side of ``socket-ladder``: the server process and one connection.

The server is a separate process tree (front end plus shard workers)
listening on a Unix socket.  :class:`Stream` is the benchmark's single
JSONL connection.  All stamps are ``time.monotonic()``, the clock the
traced server uses too, so client and server times can be subtracted.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import time
from pathlib import Path


#: Niceness of the server process tree.  Client and server share the
#: host's cores; a lower priority for the server lets the open-loop
#: client wake on time, as it would on a machine of its own.
SERVER_NICE = 10


def start_server(cmd: list[str], *, cwd: Path, env: dict, log: Path):
    """Spawn the server; returns ``(process, spawn_time)``."""
    with open(log, "wb") as handle:
        spawn_t = time.monotonic()
        process = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=handle, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.nice(SERVER_NICE),
        )
    return process, spawn_t


def http_get(sock_path: str, path: str, timeout: float = 10.0) -> tuple[int, bytes]:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(sock_path)
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = conn.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    status = int(response.split(b" ", 2)[1]) if response else 0
    return status, response.partition(b"\r\n\r\n")[2]


def wait_ready(process, sock_path: str, timeout: float = 60.0) -> float:
    """Poll ``GET /ready`` until it answers 200; returns that moment."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with code {process.returncode} before ready")
        try:
            status, _body = http_get(sock_path, "/ready", timeout=5.0)
        except OSError:
            status = 0
        if status == 200:
            return time.monotonic()
        time.sleep(0.01)
    raise RuntimeError("server not ready in time")


def stop_server(process, timeout: float = 60.0) -> float:
    """SIGTERM the server and wait for it to exit; returns the seconds taken."""
    begin = time.monotonic()
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("server did not exit after SIGTERM") from None
    if process.returncode != 0:
        raise RuntimeError(f"server exited with code {process.returncode}")
    return time.monotonic() - begin


def kill_tree(process) -> None:
    """Last-resort cleanup after a failure: kill the server and its workers."""
    if process is None or process.poll() is not None:
        return
    pids = descendants(process.pid)
    process.kill()
    process.wait()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def descendants(pid: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants."""
    total = 0
    for member in [pid, *descendants(pid)]:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total += int(line.split()[1])
    return total


class Stream:
    """One JSONL connection, driven from a single thread.

    The socket is non-blocking: :meth:`pump` moves bytes both ways
    (queued event lines out, decision lines in) until a deadline or a
    reply count, stamping each reply on arrival.  While an open-loop
    client waits for its next send time it is inside :meth:`pump`, so
    replies are stamped as they come and no second thread competes with
    the sender for the interpreter lock.
    """

    def __init__(self, sock_path: str, timeout: float = 60.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.sock.setblocking(False)
        self.timeout = timeout
        self.replies: list[bytes] = []
        self.recv_t: list[float] = []
        self.sent = 0
        self._out = bytearray()
        self._partial = b""

    def send(self, lines: list[str]) -> None:
        self._out += "".join(line + "\n" for line in lines).encode()
        self.sent += len(lines)
        self._write()

    def _write(self) -> None:
        try:
            written = self.sock.send(self._out)
        except BlockingIOError:
            return
        del self._out[:written]

    def _read(self) -> None:
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return
        if not data:
            raise ConnectionError("server closed the connection")
        stamp = time.monotonic()
        parts = (self._partial + data).split(b"\n")
        self._partial = parts.pop()
        self.replies.extend(parts)
        self.recv_t.extend([stamp] * len(parts))

    def pump(self, until: float | None = None, replies: int | None = None) -> None:
        """Exchange bytes until ``until`` passes, or until ``replies``
        decisions have arrived and every queued line is sent."""
        deadline = time.monotonic() + self.timeout
        while True:
            if replies is not None and len(self.replies) >= replies and not self._out:
                return
            now = time.monotonic()
            if until is not None and now >= until:
                return
            if now >= deadline:
                raise RuntimeError(f"{len(self.replies)} of {replies} replies arrived")
            wait = deadline - now if until is None else min(until, deadline) - now
            readable, writable, _ = select.select(
                [self.sock], [self.sock] if self._out else [], [], wait
            )
            if readable:
                self._read()
            if writable:
                self._write()

    def close(self) -> None:
        self.sock.close()


def closed_loop(stream: Stream, lines: list[str]) -> float:
    """Send ``lines`` at once and wait for every reply; returns the seconds."""
    begin = time.monotonic()
    stream.send(lines)
    stream.pump(replies=stream.sent)
    return stream.recv_t[-1] - begin


def open_loop(stream: Stream, lines: list[str], rate: float) -> dict:
    """Offer ``lines`` at ``rate`` events/s; wait for every reply.

    Each event keeps its scheduled send time, its real send time and
    its reply time, so latency counts any wait a stall imposes on later
    events and generator lateness is visible.
    """
    first = stream.sent
    due_at = time.monotonic() + 0.01
    scheduled, sent = [], []
    for index, line in enumerate(lines):
        due = due_at + index / rate
        stream.pump(until=due)
        sent.append(time.monotonic())
        stream.send([line])
        scheduled.append(due)
    stream.pump(replies=stream.sent)
    return {
        "rate": rate,
        "first": first,
        "scheduled": scheduled,
        "sent": sent,
        "received": stream.recv_t[first:stream.sent],
    }

"""Span tracing from outside the program.

:class:`Tracer` replaces a public function or method with a wrapper that
records one span per call — name, start, end, parent span, chunk id and
the benchmark phase — and optional counters computed from the call's
arguments and result.  Patching happens on the name the caller looks
up: a method on its class, a function in the module that imported it,
``os.fsync`` through a stand-in for the calling module's ``os``.
:meth:`Tracer.restore` undoes every patch.

Spans stay in memory.  :func:`self_times` turns them into per-name self
time: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, CHUNK, PHASE, SIZE = range(7)


class Tracer:
    """Spans and counters of one process; times are ``time.monotonic()``,
    which processes on one host share."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict = defaultdict(float)
        self.phase = ""
        self.phase_wall: defaultdict = defaultdict(float)
        self._phase_since = time.monotonic()
        self._chunks = 0
        self._local = threading.local()
        self._patches: list = []
        self._lock = threading.Lock()

    def set_phase(self, name: str) -> None:
        """Enter phase ``name``; the phase left is charged its wall time."""
        now = time.monotonic()
        self.phase_wall[self.phase] += now - self._phase_since
        self.phase, self._phase_since = name, now

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, size: int = 0) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                chunk = self.spans[parent][CHUNK]
            else:
                parent = -1
                self._chunks += 1
                chunk = self._chunks
            index = len(self.spans)
            self.spans.append(
                [name, time.monotonic(), 0.0, parent, chunk, self.phase, size]
            )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self, owner, attr: str, name: str, *, when=None, size=None, before=None, after=None
    ):
        """Record a ``name`` span around every call of ``owner.attr``.

        ``when(*args)`` can skip recording for a call; ``size(*args)``
        is stored with the span (lines in a request, say);
        ``before(*args)`` returns a value handed to
        ``after(tracer, token, args, result)``, which updates counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            token = before(*args, **kwargs) if before is not None else None
            index = tracer._open(
                name, size(*args, **kwargs) if size is not None else 0
            )
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counters[name + ".calls"] += 1
            if after is not None:
                after(tracer, token, args, result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)
        return wrapper

    def wrap_os_fsync(self, module, name: str) -> None:
        """Trace ``os.fsync`` as ``module`` calls it, nothing else."""
        proxy = _OsProxy()
        proxy.fsync = os.fsync
        self.wrap(proxy, "fsync", name)
        self._patches.append((module, "os", module.os, True))
        module.os = proxy

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class _OsProxy:
    """``os`` with an overridable ``fsync``; every other name delegates."""

    def __getattr__(self, attr):
        return getattr(os, attr)


def self_times(spans: list, phases=None) -> dict:
    """Seconds per span name of duration not covered by child spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: defaultdict = defaultdict(float)
    for index, span in enumerate(spans):
        if phases is not None and span[PHASE] not in phases:
            continue
        totals[span[NAME]] += span[END] - span[START] - child_time[index]
    return dict(totals)


def durations(spans: list, name: str, phases=None) -> list[float]:
    return [
        span[END] - span[START]
        for span in spans
        if span[NAME] == name and (phases is None or span[PHASE] in phases)
    ]

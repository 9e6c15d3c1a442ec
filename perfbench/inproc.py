"""Serving process of the in-process workloads (``hot-16v``, ``fleet-2k``).

``run.py`` starts it as a fresh interpreter after the inputs exist::

    python3 perfbench/inproc.py JOB.json SPAWN_MONOTONIC

``JOB.json`` names the workload spec, the input lines, the work
directory and the mode.  ``setup`` mode imports the program, builds
the service and reports the set-up time.  ``run`` mode goes through the
service's whole life on the inputs, with fsync on, running the phases
whose timings the workload names:

1. closed-loop ``ingest_lines`` over the stream in 2048-line chunks;
2. health polls (``health_snapshot(include_vehicles=False)``);
3. live ``sync_once`` passes, each to an empty ``LocalReplicaTarget``;
4. ``close()``, then a reopen that recovers every session, repeated
   (always run: the reopen is checked against the oracle);
5. closed-loop ``ingest_line`` over a prefix on a fresh state dir.

Short operations repeat a minimum number of times and then while a
budget (a share of ``--seconds``) lasts, and report their median.  The
file system is synced before each timed phase, so writeback left over
from earlier phases is not timed.  With tracing on, the spans cover
phases 1-5, and an untraced repeat of phase 1 runs last for the
tracing overhead.  Results go to ``result.json`` and ``fp_*.npy``
(decision fingerprints) in the work directory; ``run.py`` checks them
against the oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise RuntimeError("VmRSS not found in /proc/self/status")


def main(argv: list[str]) -> int:
    spawn_t = float(argv[2])
    import numpy as np

    from repro.service import replica
    from repro.service.advisor import AdvisorService, RegisteredAdvisorService

    from hostinfo import tree_size
    from loadgen import CHUNK, read_lines
    from oracle import config, fingerprint

    imported_t = time.monotonic()
    job = json.loads(Path(argv[1]).read_text())
    work = Path(job["work"])
    spec = job["spec"]
    service_class = RegisteredAdvisorService if spec["registered"] else AdvisorService
    cfg = config()
    out: dict = {}

    if job["mode"] == "setup":
        start = time.monotonic()
        service = service_class(work / "state", cfg, fsync=True)
        ready = time.monotonic()
        service.close()
        out["setup_s"] = imported_t - spawn_t + ready - start
        (work / "result.json").write_text(json.dumps(out))
        return 0

    lines = read_lines(job["lines"])
    n_lines = len(lines)
    n_scalar = min(spec["scalar_events"], n_lines)
    timings = spec["timings"]
    # np.full writes every page now, so filling the buffers during the
    # run does not count as growth of the serving process
    fp_main = np.full(n_lines, 0, dtype=np.uint64)
    fp_scalar = np.full(n_scalar, 0, dtype=np.uint64)
    tracer = None
    if job["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.set_phase(name)

    corrupt = bool(job.get("corrupt"))

    def capture(decisions, target, offset: int) -> None:
        """Fingerprint decisions for the oracle, off the phase clock."""
        nonlocal corrupt
        resume = tracer.phase if tracer is not None else ""
        phase("oracle")
        for index, decision in enumerate(decisions):
            if corrupt and decision is not None:
                # self-check hook: the oracle must catch one altered decision
                decision = dict(decision, threshold=decision["threshold"] + 1.0)
                corrupt = False
            target[offset + index] = fingerprint(decision)
        phase(resume)

    def ingest_batched(service, target) -> float:
        busy = 0.0
        for start in range(0, n_lines, CHUNK):
            chunk = lines[start:start + CHUNK]
            begin = time.monotonic()
            decisions = service.ingest_lines(chunk)
            busy += time.monotonic() - begin
            capture(decisions, target, start)
        return busy

    def more(samples: list, minimum: int, budget_end: float, maximum: int = 15) -> bool:
        """Repeat a short operation: at least ``minimum`` times, then on
        while the time budget lasts, at most ``maximum`` times."""
        return len(samples) < minimum or (
            len(samples) < maximum and time.monotonic() < budget_end
        )

    def budget(share: float) -> float:
        return time.monotonic() + share * job["seconds"]

    phase("setup")
    rss_before = rss_kb()
    load_t = time.monotonic()
    service = service_class(work / "state", cfg, fsync=True)
    out["setup_s"] = imported_t - spawn_t + time.monotonic() - load_t

    # 1. closed-loop batched ingest
    os.sync()
    phase("ingest")
    ingest_busy = ingest_batched(service, fp_main)
    phase("untimed")
    out["events_per_s"] = n_lines / ingest_busy
    rss_after = rss_kb()
    out["rss_mb"] = (rss_after - rss_before) / 1024.0
    out["sessions"] = len(service.sessions)
    out["digests_live"] = {
        vehicle: session.state_digest()
        for vehicle, session in sorted(service.sessions.items())
    }

    # 2. health polls
    if "health_ms" in timings:
        phase("health")
        polls: list[float] = []
        budget_end = budget(0.05)
        while more(polls, 15, budget_end, 2000):
            begin = time.monotonic()
            service.health_snapshot(include_vehicles=False)
            polls.append(time.monotonic() - begin)
        phase("untimed")
        out["health_ms"] = statistics.median(polls) * 1e3

    # 3. live replication, each pass to a fresh empty standby
    if "replicate_s" in timings:
        syncs: list[float] = []
        budget_end = budget(0.1)
        while more(syncs, 1, budget_end):
            standby = work / f"standby{len(syncs)}"
            target = replica.LocalReplicaTarget(standby)
            os.sync()
            phase("replicate")
            begin = time.monotonic()
            replica.sync_once(work / "state", target)
            syncs.append(time.monotonic() - begin)
            phase("untimed")
            target.close()
            if len(syncs) == 1:
                out["replica_bytes"] = tree_size(standby)[0]
            shutil.rmtree(standby)
        out["replicate_s"] = statistics.median(syncs)

    # 4. graceful close, then warm recovery of every session, in cycles
    closes: list[float] = []
    reopens: list[float] = []
    budget_end = budget(0.1)
    while more(closes, 1, budget_end):
        os.sync()
        phase("close")
        begin = time.monotonic()
        service.close()
        closes.append(time.monotonic() - begin)
        phase("untimed")
        if len(closes) == 1:
            out["disk_bytes"], out["disk_files"] = tree_size(work / "state")
        os.sync()
        phase("reopen")
        begin = time.monotonic()
        service = service_class(work / "state", cfg, fsync=True)
        for vehicle in job["vehicles"]:
            service.session(vehicle)
        reopens.append(time.monotonic() - begin)
        phase("untimed")
        if len(reopens) == 1:
            out["digests_reopened"] = {
                vehicle: session.state_digest()
                for vehicle, session in sorted(service.sessions.items())
            }
    del service  # the last reopen stays open: its close would time nothing
    out["close_s"] = statistics.median(closes)
    out["recover_s"] = statistics.median(reopens)

    # 5. closed-loop scalar ingest of a prefix on a fresh state dir
    if n_scalar:
        scalar = service_class(work / "scalar", cfg, fsync=True)
        os.sync()
        phase("scalar")
        scalar_busy = 0.0
        for position in range(n_scalar):
            begin = time.monotonic()
            decision = scalar.ingest_line(lines[position])
            scalar_busy += time.monotonic() - begin
            capture([decision], fp_scalar, position)
        phase("untimed")
        out["scalar_events_per_s"] = n_scalar / scalar_busy
        del scalar

    if tracer is not None:
        metrics = layers.inproc_layer_metrics(tracer, events=n_lines + n_scalar)
        metrics["session.kb_per_session"] = (
            (rss_after - rss_before) / max(1, out["sessions"])
        )
        metrics["wal.files_per_vehicle"] = out["disk_files"] / max(1, len(job["vehicles"]))
        metrics["replica.bytes_shipped"] = float(out.get("replica_bytes", 0))
        out["breakdown"] = layers.breakdown(tracer)
        tracer.restore()
        # untraced repeat of phase 1, for the tracing overhead
        fp_base = np.full(n_lines, 0, dtype=np.uint64)
        baseline = service_class(work / "baseline", cfg, fsync=True)
        os.sync()
        metrics["trace.overhead"] = out["events_per_s"] / (
            n_lines / ingest_batched(baseline, fp_base)
        )
        np.save(work / "fp_baseline.npy", fp_base)
        out["layers"] = metrics

    np.save(work / "fp_main.npy", fp_main)
    np.save(work / "fp_scalar.npy", fp_scalar)
    (work / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

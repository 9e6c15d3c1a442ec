"""The repo benchmark: one command, three workloads, oracle-checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hot-16v --seed 1 --seconds 10 --trace 0

Workloads (sizes in ``loadgen.WORKLOADS``):

* ``hot-16v`` - in-process ``AdvisorService``, 16 vehicles with
  thousands of events each: staging and the WAL group commit dominate.
* ``fleet-2k`` - in-process ``RegisteredAdvisorService`` (what each
  shard worker runs), 2,000 vehicles through an active set of 256, about
  4 events each: per-vehicle costs dominate.
* ``socket-ladder`` - ``repro-idling serve - --shards 2 --fsync --listen
  unix:...`` in its own process, driven over one connection at fixed
  open-loop rates of 100, 400 and 1600 events/s.

Every run generates its inputs from ``--seed`` before the program under
test starts, replays them through the in-memory oracle, runs the
workload in fresh processes with fsync on and B = 28 s, and checks
every decision and every per-vehicle state digest against the oracle.
``--seconds`` sets the length of the timed open-loop and repeated
phases; the closed-loop phases serve a fixed input.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` - the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
End-to-end numbers always come from untraced runs, which also print by
name the end-to-end timings their workload names (``loadgen.WORKLOADS``).
A run that cannot be measured (program missing, state dir on tmpfs,
generator too late to keep the schedule, spans explaining too little of
an in-process traced run) exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import loadgen
import oracle
import sockclient
from hostinfo import host_block, tree_size
from loadgen import BREAK_EVEN, LATENCY_LIMIT_MS, RUNGS
from spans import END, NAME, SIZE, START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for inputs and state dirs, removed after every run.
WORK_ROOT = Path(".perfbench-work")
#: Extra fresh processes started only to time set-up (the run's own
#: serving process gives one more sample).
SETUP_PROBES = 2
#: Seconds a serving child may take before the run is abandoned, so a
#: hung run still ends well within three minutes.
CHILD_TIMEOUT_S = 150
#: Largest share of a traced run's wall time the spans may leave unexplained.
MAX_UNATTRIBUTED = 0.10


class Unmeasurable(Exception):
    """The run cannot produce a valid measurement; no result is printed."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="small inputs, for the self-check"
    )
    parser.add_argument(
        "--corrupt-one", action="store_true",
        help="alter one captured decision; the oracle must fail the run",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        path for path in (SRC / "repro" / "service", ROOT / "benchmarks" / "bench_sharded.py")
        if not path.exists()
    ]
    if missing:
        print(f"perfbench: program sources missing: {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.workload not in loadgen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except Unmeasurable as exc:
        print(f"perfbench: run not measurable: {exc}", file=sys.stderr)
        return exc.code
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


def run(args, work: Path) -> dict:
    host = host_block(ROOT, work)
    print("host " + json.dumps(host))
    if host["state_dir_fs"] == "tmpfs":
        raise Unmeasurable("state dir is on tmpfs, where fsync measures nothing", 4)
    spec = loadgen.workload_spec(args.workload, args.seconds, args.quick)
    lines, malformed = loadgen.generate(spec, args.seed)
    loadgen.write_lines(work / "lines.json", lines)
    expected = oracle.replay(lines)
    print(
        f"workload {spec['name']} seed {args.seed}: {len(lines)} lines "
        f"({malformed} malformed), {len(expected['digests'])} vehicles"
    )
    if spec["kind"] == "inproc":
        outcome = run_inproc(spec, args, work, expected)
    else:
        outcome = run_socket(spec, args, work, lines, expected)
    checks = outcome.pop("checks")
    failed = sum(checks.values())
    attempted = outcome.pop("attempted")
    print(f"oracle: {failed} failure(s) in {attempted} events attempted "
          f"(failed_frac {failed / attempted:.6g}); {json.dumps(checks)}")
    print(f"expected nulls for malformed lines: {expected['malformed']}")
    if args.trace:
        units, values = layers.PER_LAYER, outcome["layers"]
    else:
        units, values = layers.END_TO_END, outcome["metrics"]
        print("timings (printed, not bounded):")
        for name in spec["timings"]:
            print(f"  {name:<28} {outcome['timings'][name]:>16.6g} {layers.TIMINGS[name]}")
        print("end-to-end metrics:")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    if args.trace:
        print("self time by span (s): " + json.dumps(
            {name: round(value, 6) for name, value in outcome["breakdown"].items()}
        ))
        # socket-ladder's latency split is exact by construction (layers doc)
        if spec["kind"] == "inproc" and values["unattributed_frac"] > MAX_UNATTRIBUTED:
            raise Unmeasurable(
                f"spans explain only {1 - values['unattributed_frac']:.1%} of the "
                f"traced wall time (at least {1 - MAX_UNATTRIBUTED:.0%} required)", 5
            )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


# -- ladder statistics -------------------------------------------------------


def rung_stats(latency_ms, *, rate: float, span_s: float) -> dict:
    """Percentiles, backlog trend and achieved rate of one open-loop rung.

    The backlog grows when the median latency of the rung's last quarter
    is more than twice, and more than 10 ms above, that of its first
    quarter.
    """
    latency_ms = np.asarray(latency_ms, dtype=float)
    quarter = max(1, len(latency_ms) // 4)
    first = float(np.median(latency_ms[:quarter]))
    last = float(np.median(latency_ms[-quarter:]))
    growing = last > 2.0 * first and last - first > 10.0
    p50, p99 = (float(value) for value in np.percentile(latency_ms, [50, 99]))
    return {
        "rate": rate,
        "samples": len(latency_ms),
        "p50_ms": p50,
        "p99_ms": p99,
        "first_quarter_ms": first,
        "last_quarter_ms": last,
        "growing": growing,
        "meets_limit": p99 <= LATENCY_LIMIT_MS and not growing,
        "achieved_eps": len(latency_ms) / span_s,
    }


def ladder_metrics(rungs: list[dict]) -> dict:
    """``p50_ms``/``p99_ms`` at 400 events/s and ``max_rate_eps``.

    ``max_rate_eps`` is the achieved rate of the highest rung that meets
    the p99 limit without a growing backlog (0 when none does).
    """
    for rung in rungs:
        print("rung " + json.dumps(rung))
    at_400 = next(rung for rung in rungs if rung["rate"] == 400)
    passing = [rung for rung in rungs if rung["meets_limit"]]
    print(f"p50/p99 at 400 events/s over {at_400['samples']} samples")
    return {
        "p50_ms": at_400["p50_ms"],
        "p99_ms": at_400["p99_ms"],
        "max_rate_eps": max((r["achieved_eps"] for r in passing), default=0.0),
    }


# -- in-process workloads ----------------------------------------------------


def run_child(job: dict, job_dir: Path) -> dict:
    job_dir.mkdir(parents=True, exist_ok=True)
    job = dict(job, work=str(job_dir))
    (job_dir / "job.json").write_text(json.dumps(job))
    spawn_t = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "inproc.py"), str(job_dir / "job.json"), repr(spawn_t)],
        env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"serving process failed with code {done.returncode}")
    return json.loads((job_dir / "result.json").read_text())


def run_inproc(spec: dict, args, work: Path, expected: dict) -> dict:
    job = {
        "spec": spec,
        "lines": str(work / "lines.json"),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "corrupt": args.corrupt_one,
        "vehicles": list(expected["digests"]),
    }
    os.sync()
    setup = []
    if not args.trace:
        for probe in range(SETUP_PROBES):
            setup.append(run_child(dict(job, mode="setup"), work / f"probe{probe}")["setup_s"])
    main_dir = work / "main"
    out = run_child(dict(job, mode="run"), main_dir)
    setup.append(out["setup_s"])

    fps = expected["fingerprints"]
    checks = {
        "main": oracle.mismatches(fps, np.load(main_dir / "fp_main.npy")),
        "digests_live": oracle.digest_mismatches(expected["digests"], out["digests_live"]),
        "digests_reopened": oracle.digest_mismatches(
            expected["digests"], out["digests_reopened"]
        ),
    }
    scalar = np.load(main_dir / "fp_scalar.npy")
    attempted = len(fps)
    if len(scalar):
        checks["scalar"] = oracle.mismatches(fps[: len(scalar)], scalar)
        attempted += len(scalar)
    result = {"checks": checks}
    if args.trace:
        baseline = np.load(main_dir / "fp_baseline.npy")
        checks["baseline"] = oracle.mismatches(fps, baseline)
        attempted += len(baseline)
        result["layers"] = out["layers"]
        result["breakdown"] = out["breakdown"]
    else:
        result["timings"] = {name: out[name] for name in spec["timings"]}
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "rss_mb": out["rss_mb"],
            "disk_bytes_per_event": out["disk_bytes"] / expected["accepted"],
            "files_per_vehicle": out["disk_files"] / len(expected["digests"]),
        }
    result["attempted"] = attempted
    return result


# -- socket-ladder -----------------------------------------------------------


def child_env() -> dict:
    """Environment of every process under test.

    String hashing is seeded the same in every run, so per-process hash
    randomization (set and dict layouts) is not part of the spread.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def serve_args(state: Path, sock: str, shards: int) -> list[str]:
    """The CLI arguments of the server under test."""
    return [
        "serve", "-", "--shards", str(shards), "--fsync", "--listen", f"unix:{sock}",
        "--state-dir", str(state), "--break-even", f"{BREAK_EVEN:g}",
    ]


def cli_server(state: Path, sock: str, shards: int) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *serve_args(state, sock, shards)]


def probe_setup(spec: dict, work: Path, name: str) -> float:
    """Start a server on an empty state dir, time spawn to ``/ready``, stop it."""
    folder = work / name
    folder.mkdir()
    sock = str(folder / "s.sock")
    process, spawn_t = sockclient.start_server(
        cli_server(folder / "state", sock, spec["shards"]),
        cwd=ROOT, env=child_env(), log=folder / "server.log",
    )
    try:
        ready_t = sockclient.wait_ready(process, sock)
        sockclient.stop_server(process)
    finally:
        sockclient.kill_tree(process)
    return ready_t - spawn_t


def capture_replies(replies: list[bytes], corrupt: bool) -> np.ndarray:
    decisions = [json.loads(reply) for reply in replies]
    if corrupt:
        # self-check hook: the oracle must catch one altered decision
        index = next(i for i, decision in enumerate(decisions) if decision is not None)
        decisions[index]["threshold"] += 1.0
    return np.asarray([oracle.fingerprint(d) for d in decisions], dtype=np.uint64)


def run_socket(spec: dict, args, work: Path, lines: list[str], expected: dict) -> dict:
    from repro.service.advisor import RegisteredAdvisorService

    os.sync()
    setup = []
    if not args.trace:
        setup = [probe_setup(spec, work, f"probe{probe}") for probe in range(SETUP_PROBES)]
    state = work / "state"
    sock = str(work / "s.sock")
    spans_path = work / "spans.json"
    if args.trace:
        cmd = [sys.executable, str(HERE / "sockserve.py"), str(spans_path),
               *serve_args(state, sock, spec["shards"])]
    else:
        cmd = cli_server(state, sock, spec["shards"])
    warm = spec["warmup_events"]
    burst_end = warm + spec["burst_events"]
    out: dict = {}
    process, spawn_t = sockclient.start_server(
        cmd, cwd=ROOT, env=child_env(), log=work / "server.log"
    )
    try:
        setup.append(sockclient.wait_ready(process, sock) - spawn_t)
        rss_before = sockclient.tree_rss_kb(process.pid)
        stream = sockclient.Stream(sock)
        sockclient.closed_loop(stream, lines[:warm])
        out["events_per_s"] = burst_rate(stream, lines[warm:burst_end], spec["bursts"])
        offset = burst_end
        raw_rungs = []
        for rate, count in zip(RUNGS, spec["rung_events"]):
            raw_rungs.append(sockclient.open_loop(stream, lines[offset:offset + count], rate))
            offset += count
        out["rss_mb"] = (sockclient.tree_rss_kb(process.pid) - rss_before) / 1024.0
        polls = []
        deadline = time.monotonic() + 0.05 * args.seconds
        while len(polls) < 15 or (time.monotonic() < deadline and len(polls) < 500):
            begin = time.monotonic()
            status, _body = sockclient.http_get(sock, "/health")
            polls.append(time.monotonic() - begin)
            if status != 200:
                raise RuntimeError(f"GET /health answered {status}")
        out["health_ms"] = statistics.median(polls) * 1e3
        stream.close()
        os.sync()
        out["close_s"] = sockclient.stop_server(process)
    finally:
        sockclient.kill_tree(process)

    disk_bytes, disk_files = tree_size(state)
    # one untimed warm recovery of every shard, for the digest check
    reopened = [
        RegisteredAdvisorService(shard, oracle.config(), fsync=True)
        for shard in sorted(state.glob("shard-*"))
    ]
    digests = {
        vehicle: session.state_digest()
        for service in reopened
        for vehicle, session in service.sessions.items()
    }
    del reopened  # not closed: closing would compact every session, a write

    got = capture_replies(stream.replies, args.corrupt_one)
    checks = {
        "replies": oracle.mismatches(expected["fingerprints"], got),
        "digests_reopened": oracle.digest_mismatches(expected["digests"], digests),
    }
    attempted = len(lines)

    rungs = []
    for raw in raw_rungs:
        latency = np.subtract(raw["received"], raw["scheduled"]) * 1e3
        span_s = raw["received"][-1] - raw["scheduled"][0]
        rungs.append(rung_stats(latency, rate=raw["rate"], span_s=span_s))
    late_ms = np.concatenate(
        [np.subtract(raw["sent"], raw["scheduled"]) for raw in raw_rungs]
    ) * 1e3
    late_p99 = float(np.percentile(late_ms, 99))
    print(f"generator lateness p99: {late_p99:.3f} ms")
    if late_p99 > LATENCY_LIMIT_MS:
        raise Unmeasurable(
            f"generator lateness p99 {late_p99:.1f} ms exceeds the "
            f"{LATENCY_LIMIT_MS:g} ms latency limit", 3
        )
    result = {"checks": checks}
    if args.trace:
        server_spans = json.loads(spans_path.read_text())
        metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
        metrics["wal.files_per_vehicle"] = disk_files / max(1, len(expected["digests"]))
        metrics["session.kb_per_session"] = out["rss_mb"] * 1024 / max(1, len(expected["digests"]))
        decomposed = socket_decomposition(raw_rungs, server_spans, stream.sent)
        metrics.update(decomposed["metrics"])
        metrics["client.late_ms"] = late_p99
        # tracing overhead: the same warm-up and burst on an untraced server
        aux_eps, aux_fps = untraced_burst(spec, work, lines[:burst_end])
        checks["untraced_burst"] = oracle.mismatches(
            expected["fingerprints"][:burst_end], aux_fps
        )
        attempted += burst_end
        metrics["trace.overhead"] = out["events_per_s"] / aux_eps
        result["layers"] = metrics
        result["breakdown"] = decomposed["breakdown"]
    else:
        result["timings"] = dict(ladder_metrics(rungs), health_ms=out["health_ms"],
                                 close_s=out["close_s"])
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "rss_mb": out["rss_mb"],
            "disk_bytes_per_event": disk_bytes / expected["accepted"],
            "files_per_vehicle": disk_files / len(expected["digests"]),
        }
    result["attempted"] = attempted
    return result


def burst_rate(stream, lines: list[str], bursts: int) -> float:
    """Median events/s of ``bursts`` unpaced closed-loop bursts over ``lines``."""
    edges = [len(lines) * index // bursts for index in range(bursts + 1)]
    return statistics.median(
        (end - start) / sockclient.closed_loop(stream, lines[start:end])
        for start, end in zip(edges, edges[1:])
    )


def untraced_burst(spec: dict, work: Path, lines: list[str]) -> tuple[float, np.ndarray]:
    """Warm-up plus burst on an untraced CLI server; burst events/s and replies."""
    folder = work / "untraced"
    folder.mkdir()
    sock = str(folder / "s.sock")
    process, _spawn_t = sockclient.start_server(
        cli_server(folder / "state", sock, spec["shards"]),
        cwd=ROOT, env=child_env(), log=folder / "server.log",
    )
    try:
        sockclient.wait_ready(process, sock)
        stream = sockclient.Stream(sock)
        warm = spec["warmup_events"]
        sockclient.closed_loop(stream, lines[:warm])
        eps = burst_rate(stream, lines[warm:], spec["bursts"])
        stream.close()
        sockclient.stop_server(process)
    finally:
        sockclient.kill_tree(process)
    return eps, capture_replies(stream.replies, False)


def socket_decomposition(raw_rungs: list[dict], spans: list, sent: int) -> dict:
    """Split every ladder event's latency at the server's request span.

    Requests on the one JSONL connection are served in order, so the
    k-th ``shard.request`` span covers the next ``size`` events sent.
    Per event: lateness (scheduled to sent), front-end wait (sent to
    request start: transport, linger, batch fill, queueing), shard
    request time, and reply (request end to the decision arriving).
    ``frontend.wait_p50_ms`` is the median of latency minus shard
    request time at 400 events/s.  The four parts add up to each event's
    latency by construction, so ``unattributed_s`` is float rounding.
    """
    requests = [span for span in spans if span[NAME] == "shard.request"]
    sizes = np.asarray([span[SIZE] for span in requests], dtype=np.int64)
    if int(sizes.sum()) != sent:
        raise RuntimeError(f"request spans cover {int(sizes.sum())} of {sent} events")
    owner = np.repeat(np.arange(len(requests)), sizes)
    starts = np.asarray([span[START] for span in requests])
    ends = np.asarray([span[END] for span in requests])
    metrics, breakdown = {}, {}
    used = set()
    total_latency = attributed = 0.0
    for raw in raw_rungs:
        index = owner[raw["first"]:raw["first"] + len(raw["sent"])]
        used.update(index.tolist())
        scheduled = np.asarray(raw["scheduled"])
        sent_t = np.asarray(raw["sent"])
        received = np.asarray(raw["received"])
        parts = {
            "late": sent_t - scheduled,
            "wait": starts[index] - sent_t,
            "shard": ends[index] - starts[index],
            "reply": received - ends[index],
        }
        latency = received - scheduled
        total_latency += float(latency.sum())
        attributed += sum(float(part.sum()) for part in parts.values())
        tag = f"ladder.r{int(raw['rate'])}"
        metrics[tag + ".wait_p50_ms"] = float(np.median(latency - parts["shard"])) * 1e3
        metrics[tag + ".shard_p50_ms"] = float(np.median(parts["shard"])) * 1e3
        for key, part in parts.items():
            breakdown[f"{tag}.{key}"] = float(part.sum())
        if raw["rate"] == 400:
            metrics["frontend.wait_p50_ms"] = metrics[tag + ".wait_p50_ms"]
            metrics["frontend.reply_p50_ms"] = float(np.median(parts["reply"])) * 1e3
    ladder_requests = (ends - starts)[sorted(used)] * 1e3
    metrics.update({
        "shard.requests": float(len(requests)),
        "shard.request_p50_ms": float(np.percentile(ladder_requests, 50)),
        "shard.request_p99_ms": float(np.percentile(ladder_requests, 99)),
        "frontend.lines_per_request": float(sizes.mean()),
        "wall_s": total_latency,
        "unattributed_s": total_latency - attributed,
        "unattributed_frac": (total_latency - attributed) / total_latency,
    })
    return {"metrics": metrics, "breakdown": breakdown}


if __name__ == "__main__":
    sys.exit(main())

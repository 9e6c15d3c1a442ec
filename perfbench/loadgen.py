"""Seeded inputs for every workload.

All three workloads draw their JSONL stop events from one generator,
:func:`benchmarks.bench_sharded.synthetic_traffic` (imported, not
copied): a sliding active set of vehicles, lognormal stop lengths,
strictly increasing per-vehicle timestamps and a fixed share of
malformed lines.  The same seed always yields the same lines.

``WORKLOADS`` holds each workload's size parameters and the end-to-end
timings it measures and prints; ``quick`` sizes exist only for the
benchmark's self-check.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The paper's break-even interval for vehicle class 1, in seconds.
BREAK_EVEN = 28.0
#: Lines per closed-loop ``ingest_lines`` call.
CHUNK = 2048
#: Share of generated lines that are malformed (expected ``null``s).
MALFORMED_RATE = 0.002
#: Open-loop rates of the socket ladder, events/s.
RUNGS = (100, 400, 1600)
#: p99 latency limit of the open-loop ladder, ms.
LATENCY_LIMIT_MS = 100.0

WORKLOADS = {
    "hot-16v": {
        "kind": "inproc",
        "registered": False,
        "vehicles": 16,
        "events": 32_000,
        "active": 16,
        # prefix served by the scalar closed loop
        "scalar_events": 3_000,
        "timings": ("events_per_s", "scalar_events_per_s", "close_s"),
    },
    "fleet-2k": {
        "kind": "inproc",
        "registered": True,
        "vehicles": 2_000,
        "events": 8_000,
        "active": 256,
        "scalar_events": 0,
        "timings": ("events_per_s", "health_ms", "close_s", "recover_s", "replicate_s"),
    },
    "socket-ladder": {
        "kind": "socket",
        "shards": 2,
        "vehicles": 1_000,
        "active": 256,
        # closed-loop warm-up creating the initial active set
        "warmup_events": 256,
        # unpaced streams: the rest of the fleet's first events, and
        # the throughput the traced run's overhead is measured on
        "burst_events": 4_000,
        "bursts": 8,
        # each rung's share of --seconds
        "rung_seconds": (0.2, 0.3, 0.2),
        "timings": ("p50_ms", "p99_ms", "max_rate_eps", "health_ms", "close_s"),
    },
}

QUICK = {
    "hot-16v": {"events": 4_000, "scalar_events": 400},
    "fleet-2k": {"events": 1_200, "vehicles": 300},
    "socket-ladder": {"vehicles": 300, "burst_events": 600},
}


def workload_spec(name: str, seconds: float, quick: bool = False) -> dict:
    """The workload's parameters, with rung lengths scaled to ``seconds``."""
    spec = dict(WORKLOADS[name])
    if quick:
        spec.update(QUICK[name])
    spec["name"] = name
    if spec["kind"] == "socket":
        spec["rung_events"] = [
            max(20, int(round(rate * share * seconds)))
            for rate, share in zip(RUNGS, spec["rung_seconds"])
        ]
        spec["events"] = (
            spec["warmup_events"]
            + spec["burst_events"]
            + sum(spec["rung_events"])
        )
    return spec


def generate(spec: dict, seed: int) -> tuple[list[str], int]:
    """The workload's JSONL lines and how many of them are malformed."""
    from benchmarks.bench_sharded import synthetic_traffic

    return synthetic_traffic(
        spec["vehicles"],
        spec["events"],
        seed=seed,
        active=spec["active"],
        malformed_rate=MALFORMED_RATE,
    )


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text(json.dumps(lines))


def read_lines(path: Path) -> list[str]:
    return json.loads(Path(path).read_text())

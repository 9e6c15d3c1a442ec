"""The correctness oracle: a clean in-memory replay of the inputs.

Every vehicle's events are replayed in arrival order through an
``AdvisorSession(state_dir=None)`` exactly as the scalar serving loop
would apply them: undecodable or value-invalid lines yield ``None``
(and feed the failure streak of a vehicle already being served), every
accepted event yields the session's decision.  The serving stack under
test must return the same decision for every line and end in the same
per-vehicle ``state_digest()``.

Decisions are compared through :func:`fingerprint`, a 64-bit hash of
the canonical JSON of a decision, so a serving process can report
hundreds of thousands of them as one integer array.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from loadgen import BREAK_EVEN


def config():
    from repro.service import SessionConfig

    return SessionConfig(break_even=BREAK_EVEN)


def fingerprint(decision) -> int:
    """A nonzero 64-bit hash of the decision; 0 stands for ``None``."""
    if decision is None:
        return 0
    body = json.dumps(decision, sort_keys=True).encode()
    digest = hashlib.blake2b(body, digest_size=8).digest()
    return int.from_bytes(digest, "little") or 1


def replay(lines: list[str]) -> dict:
    """Expected fingerprints per line, final digests, and line counts."""
    from repro.service.session import AdvisorSession
    from repro.validation.schemas import stop_event_findings

    cfg = config()
    sessions: dict = {}
    expected: list = []
    malformed = 0
    for line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record, event = None, None
            findings = [("malformed-event", "not valid JSON")]
        else:
            findings, event = stop_event_findings(record)
        if event is None:
            malformed += 1
            vehicle = record.get("vehicle") if isinstance(record, dict) else None
            if isinstance(vehicle, str) and vehicle in sessions:
                sessions[vehicle].note_invalid_event(findings[0][0])
            expected.append(0)
            continue
        event_id, vehicle, timestamp, stop_length = event
        session = sessions.get(vehicle)
        if session is None:
            session = sessions[vehicle] = AdvisorSession(vehicle, cfg)
        expected.append(
            fingerprint(session.submit(event_id, timestamp, stop_length))
        )
    return {
        "fingerprints": np.asarray(expected, dtype=np.uint64),
        "digests": {
            vehicle: session.state_digest()
            for vehicle, session in sorted(sessions.items())
        },
        "malformed": malformed,
        "accepted": len(lines) - malformed,
    }


def mismatches(expected, got) -> int:
    """Lines whose decision differs from the oracle (a missing reply counts)."""
    expected = np.asarray(expected, dtype=np.uint64)
    got = np.asarray(got, dtype=np.uint64)[: len(expected)]
    missing = len(expected) - len(got)
    return missing + int(np.count_nonzero(expected[: len(got)] != got))


def digest_mismatches(expected: dict, got: dict) -> int:
    """Vehicles whose digest differs, is missing, or was never expected."""
    keys = set(expected) | set(got)
    return sum(1 for key in keys if expected.get(key) != got.get(key))

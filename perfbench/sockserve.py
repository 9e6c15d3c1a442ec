"""Traced server entry for ``socket-ladder``.

Runs the CLI's own ``serve`` (``repro.cli.main``) in this process, with
``ShardedAdvisorService.request_lines`` and ``health_snapshot`` wrapped
in spans, and writes the spans as JSON once the CLI returns (after its
SIGTERM drain)::

    python3 perfbench/sockserve.py SPANS.json serve - --shards 2 --fsync --listen unix:SOCKET ...

Every argument after ``SPANS.json`` goes to the CLI unchanged; untraced
runs start ``python -m repro.cli`` with the same arguments.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    from repro import cli
    from repro.service.shard import ShardedAdvisorService

    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.wrap(
        ShardedAdvisorService, "request_lines", "shard.request",
        size=lambda _self, lines, *_args, **_kwargs: len(lines),
    )
    tracer.wrap(ShardedAdvisorService, "health_snapshot", "shard.health")
    try:
        return cli.main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv))

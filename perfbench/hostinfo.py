"""The host block printed with every run, and file-system helpers."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    target = str(Path(path).resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1].replace("\\040", " ")
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best):
            best, kind = point, fields[2]
    return kind


def tree_size(path: Path) -> tuple[int, int]:
    """Bytes and number of regular files under ``path``."""
    size = files = 0
    for folder, _dirs, names in os.walk(path):
        for name in names:
            size += os.stat(os.path.join(folder, name)).st_size
            files += 1
    return size, files


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block(root: Path, state_dir: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "state_dir_fs": filesystem_type(state_dir),
    }

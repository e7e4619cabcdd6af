"""Description of the machine and the source a result was measured on."""

from __future__ import annotations

import hashlib
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

from workloads import nproc


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    """Unified and data cache sizes of CPU 0 by level, e.g. {"L2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def platform_fingerprint() -> dict:
    """What floating-point results may depend on: records pins apply only here."""
    return {
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((src / "vqabench").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_block(root: Path, command: list[str], threads: dict) -> dict:
    caches = _cache_sizes()
    return {
        **platform_fingerprint(),
        "nproc": nproc(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "scipy": scipy.__version__,
        "threads": threads,
        "commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "command": command,
    }

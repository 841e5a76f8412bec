"""What every result file says about where and how cleanly it ran:
the machine record, the noise canary, and the filesystem and process
checks that keep one run from leaking into the next."""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

#: Canary drift above this marks a workload ``noisy``.
NOISY_DRIFT = 0.10


def machine_record(root: Path) -> dict:
    from repro.perfeval.platform import host_platform

    def output(argv: list[str]) -> str:
        try:
            done = subprocess.run(argv, cwd=root, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = done.stdout.splitlines()
        return lines[0].strip() if done.returncode == 0 and lines \
            else "unknown"

    return {
        # The driver's checkout is not a git repository.
        "git_sha": output(["git", "rev-parse", "HEAD"]),
        "platform": asdict(host_platform()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": output(["gcc", "--version"]),
        "loadavg_1min": os.getloadavg()[0],
    }


def canary(seconds: float) -> dict:
    """A fixed pure-Python loop and a fixed NumPy transform, half the
    time each: iterations per second of work that never changes, so a
    change in it is the machine's, not the program's.  (The NumPy half
    is single-threaded on purpose: a threaded BLAS product swings a
    hundredfold on two cores.)"""
    half = seconds / 2.0
    loops = 0
    started = time.perf_counter()
    while time.perf_counter() - started < half:
        total = 0
        for i in range(20000):
            total += i * i
        loops += 1
    python_rate = loops / (time.perf_counter() - started)
    x = np.random.default_rng(0).standard_normal(4096) + 0j
    transforms = 0
    started = time.perf_counter()
    while time.perf_counter() - started < half:
        for _ in range(20):
            np.fft.fft(x * x)
        transforms += 20
    numpy_rate = transforms / (time.perf_counter() - started)
    return {"python_loops_per_s": python_rate,
            "numpy_transforms_per_s": numpy_rate}


def canary_drift(before: dict, after: dict) -> float:
    return max(abs(after[k] - before[k]) / before[k] for k in before)


def snapshot(root: Path, exclude: list[Path]) -> dict[str, tuple]:
    """(mtime, size) of every file under ``root`` outside ``exclude``
    (``root`` and ``exclude`` as resolved paths)."""
    skip = {str(p) for p in exclude}
    seen: dict[str, tuple] = {}
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [d for d in subdirs
                      if os.path.join(directory, d) not in skip]
        for name in files:
            path = os.path.join(directory, name)
            if path in skip:
                continue
            try:
                info = os.stat(path)
            except FileNotFoundError:
                continue
            seen[path] = (info.st_mtime_ns, info.st_size)
    return seen


def changed_paths(before: dict, after: dict) -> list[str]:
    return sorted(path for path in before.keys() | after.keys()
                  if before.get(path) != after.get(path))


def leftover_processes(group: int) -> list[int]:
    """Pids still alive in process group ``group``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def kill_group(group: int) -> None:
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass

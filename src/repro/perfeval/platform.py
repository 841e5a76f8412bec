"""Host platform inventory — the reproduction's Table 1 row.

The paper ran on three 1990s workstations (UltraSPARC II, MIPS R10000,
Pentium II).  We cannot reproduce those machines; instead this module
reports the same inventory fields for the host this reproduction runs
on, so EXPERIMENTS.md can print a directly comparable table row.
"""

from __future__ import annotations

import os
import platform as _platform
import shutil
import subprocess
from dataclasses import dataclass
from functools import lru_cache


@dataclass
class PlatformRow:
    """One row of Table 1: CPU, caches, memory, OS, compiler."""

    cpu: str
    l1_cache: str
    l2_cache: str
    memory: str
    os_name: str
    compiler: str

    def as_table_row(self) -> dict[str, str]:
        return {
            "CPU": self.cpu,
            "L1 cache": self.l1_cache,
            "L2 cache": self.l2_cache,
            "Memory": self.memory,
            "OS": self.os_name,
            "Compiler": self.compiler,
        }


def _read_first_match(path: str, key: str) -> str | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith(key.lower()):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _cache_size(index: int) -> str:
    base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
    try:
        with open(f"{base}/size", "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def _memory_total() -> str:
    value = _read_first_match("/proc/meminfo", "MemTotal")
    if value is None:
        return "unknown"
    try:
        kib = int(value.split()[0])
        return f"{kib // 1024}MB"
    except (ValueError, IndexError):
        return value


@lru_cache(maxsize=None)
def host_compiler() -> str:
    """The host C compiler's version line, asked once per process."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if not path:
            continue
        try:
            out = subprocess.run([path, "--version"], capture_output=True,
                                 text=True, timeout=10)
            first = out.stdout.split("\n", 1)[0].strip()
            if first:
                return first
        except (OSError, subprocess.TimeoutExpired):
            continue
    return "none (Python backend only)"


@lru_cache(maxsize=None)
def host_hardware() -> tuple[str, str, str, str]:
    """(CPU, L1 cache, L2 cache, OS): the inventory read from files,
    with no process started where ``/proc/cpuinfo`` names the CPU."""
    cpu = (
        _read_first_match("/proc/cpuinfo", "model name")
        or _platform.processor()
        or _platform.machine()
    )
    l1d = _cache_size(0)
    l1i = _cache_size(1)
    l2 = _cache_size(2)
    l1 = f"{l1d}/{l1i}" if "unknown" not in (l1d, l1i) else l1d
    os_name = f"{_platform.system()} {_platform.release()}"
    return cpu, l1, l2, os_name


def host_platform() -> PlatformRow:
    """Collect the host's Table 1 inventory."""
    cpu, l1, l2, os_name = host_hardware()
    return PlatformRow(
        cpu=cpu,
        l1_cache=l1,
        l2_cache=l2,
        memory=_memory_total(),
        os_name=os_name,
        compiler=host_compiler(),
    )


def format_table(rows: list[PlatformRow]) -> str:
    """Render platform rows like the paper's Table 1."""
    fields = ["CPU", "L1 cache", "L2 cache", "Memory", "OS", "Compiler"]
    lines = ["Table 1: Experiment platforms", "-" * 34]
    for row in rows:
        data = row.as_table_row()
        for field in fields:
            lines.append(f"  {field:<10} {data[field]}")
        lines.append("-" * 34)
    return "\n".join(lines)

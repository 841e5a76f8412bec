"""Isolation policy and failure records for candidate measurement.

The search (§4) picks winners by *executing* generated C — code that a
miscompiled codelet can turn into a segfault, an endless loop, or a
NaN-producing kernel.  Run in-process via ctypes, any of those takes
down the whole search (and any serving process sharing it), so
:func:`repro.search.measure.measure_formulas` runs candidates on the
leased workers of :mod:`repro.search.queue` — the one place that
creates measurement processes.  This module holds what that path is
configured and reported with:

* :class:`SandboxPolicy` — the one policy governing isolation (lease
  timeout, address-space cap, attempt cap, backoff, heartbeats, the
  finite-output probe);
* :class:`CandidateFailure` — a structured failure, returned and never
  raised, so dp/large search and the FFTW planner can skip a bad
  candidate and keep searching;
* :class:`Quarantine` — final failures by plan key, so a known-bad
  candidate is never measured twice in a session.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any

from repro.runtime.backoff import backoff_delay

#: Ceiling on the retry backoff, whatever the attempt count.
_BACKOFF_MAX_S = 2.0


def sandbox_supported() -> bool:
    """True when forked-worker isolation is available on this host."""
    if os.name != "posix" or not hasattr(os, "fork"):
        return False
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except ImportError:  # pragma: no cover
        return False


@dataclass(frozen=True)
class SandboxPolicy:
    """Knobs governing isolated measurement.

    ``timeout`` is the per-attempt wall-clock lease in seconds; it
    starts when the candidate's shared object is ready, so it bounds
    execution only (the host compiler is bounded by ``SPL_CC_TIMEOUT``).
    ``heartbeat_timeout`` catches a frozen worker *process* sooner: its
    heartbeat thread goes silent even though the lease has time left.
    ``memory_mb`` caps every worker's address space (0 disables the
    cap).  ``max_attempts`` is the total attempts one candidate gets
    before it is quarantined, with ``backoff`` seconds (doubling, capped
    at 2 s) before each retry.  ``check_output`` rejects a candidate
    whose probe run on a random input emits NaN/Inf.
    """

    timeout: float = 30.0
    memory_mb: int = 4096
    max_attempts: int = 3
    backoff: float = 0.05
    heartbeat_interval: float = 0.1
    heartbeat_timeout: float = 5.0
    check_output: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff_s(self, attempts: int) -> float:
        """Delay before re-queueing after the ``attempts``-th failure."""
        return backoff_delay(max(1, attempts) - 1, base=self.backoff,
                             multiplier=2.0, cap=_BACKOFF_MAX_S)


@dataclass
class CandidateFailure:
    """A structured measurement failure (never raised, always returned).

    ``kind`` is one of ``"crash"`` (worker lost; ``signal`` names what
    killed it), ``"hang"`` (lease expired or heartbeats stopped),
    ``"nan"`` (non-finite output), ``"compile"`` (host compiler failed
    or timed out), ``"memory"`` (the address-space cap was hit) or
    ``"error"`` (anything else that went wrong in the worker).
    """

    kind: str
    plan_key: str
    detail: str = ""
    signal: int | None = None
    attempts: int = 1

    def describe(self) -> str:
        extra = f" (signal {self.signal})" if self.signal is not None else ""
        detail = f": {self.detail}" if self.detail else ""
        return (
            f"candidate {self.plan_key[:12]} {self.kind}{extra} "
            f"after {self.attempts} attempt(s){detail}"
        )


class Quarantine:
    """Known-bad candidates, keyed by plan key.

    Once a candidate fails for good (post-retry), its failure is
    remembered here; every later measurement of the same key returns
    the remembered failure instantly instead of re-running the
    candidate.  One instance may be shared across dp search, large
    search and the planner (they use disjoint key spaces).
    """

    def __init__(self) -> None:
        self.entries: dict[str, CandidateFailure] = {}
        self.skips = 0

    def add(self, failure: CandidateFailure) -> None:
        self.entries[failure.plan_key] = failure

    def check(self, plan_key: str) -> CandidateFailure | None:
        """The remembered failure for ``plan_key`` (counts a skip)."""
        failure = self.entries.get(plan_key)
        if failure is not None:
            self.skips += 1
        return failure

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, plan_key: str) -> bool:
        return plan_key in self.entries

    def stats(self) -> dict[str, Any]:
        kinds: dict[str, int] = {}
        for failure in self.entries.values():
            kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
        return {"entries": len(self.entries), "skips": self.skips,
                "kinds": kinds}

    def describe(self) -> str:
        s = self.stats()
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(s["kinds"].items()))
        return (
            f"quarantine: {s['entries']} candidates "
            f"({kinds or 'none'}), {s['skips']} skips"
        )


_DEFAULT_QUARANTINE = Quarantine()


def default_quarantine() -> Quarantine:
    """The process-wide quarantine used when callers pass none."""
    return _DEFAULT_QUARANTINE


def plan_key(*parts: object) -> str:
    """A stable key for quarantining one candidate plan."""
    text = "\x00".join(str(part) for part in parts)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def source_key(source: str, cflags: tuple[str, ...] = ()) -> str:
    """The plan key of a raw C candidate: its source + flag set."""
    return plan_key("source", "\x00".join(cflags), source)

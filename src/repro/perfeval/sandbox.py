"""Sandboxed candidate measurement: run untrusted generated code safely.

The search (§4) picks winners by *executing* generated C — code that a
miscompiled codelet can turn into a segfault, an endless loop, or a
NaN-producing kernel.  Run in-process via ctypes, any of those takes
down the whole search (and any serving process sharing it).  This
module executes the risky half — loading the shared object and timing
the routine — in a **separate worker process** with

* a wall-clock timeout (hung candidates are killed, not waited on),
* an address-space cap via ``resource.setrlimit`` (runaway allocations
  die in the worker, not in the search),
* crash detection (a signal-killed worker is reported with its signal),
* an output sanity check (a routine whose first run produces NaN/Inf
  is rejected before it can win a timing contest).

Failures come back as structured :class:`CandidateFailure` values —
never exceptions — so dp/large search and the FFTW planner can skip a
bad candidate and keep searching.  Transient failure kinds (compiler
trouble, worker machinery errors) are retried once with backoff;
deterministic ones (crash, hang, NaN) are not.  Every final failure is
recorded in a :class:`Quarantine` keyed by plan key, so a known-bad
candidate is never measured twice in a session.

Compilation happens in the *parent* (it is already a subprocess with
its own timeout, see :mod:`repro.perfeval.ccompile`), so the worker's
compile step is a cache hit and the measurement timeout budgets only
execution.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro.perfeval import ccompile

try:  # POSIX-only; the sandbox degrades gracefully without it
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Failure kinds that may be flukes (compiler OOM, pool machinery);
#: they get one retry with backoff.  Crashes, hangs and NaN outputs
#: are deterministic properties of the candidate and are not retried.
TRANSIENT_KINDS = frozenset({"compile", "error"})


def sandbox_supported() -> bool:
    """True when worker-process isolation is available on this host."""
    if os.name != "posix":
        return False
    try:
        import multiprocessing  # noqa: F401
    except ImportError:  # pragma: no cover
        return False
    return True


@dataclass(frozen=True)
class SandboxPolicy:
    """Knobs governing one sandboxed measurement.

    ``timeout`` is wall-clock seconds per attempt (execution only —
    compilation is budgeted separately by ``ccompile``); ``memory_mb``
    caps the worker's address space (0 disables the cap); ``retries``
    is the number of *extra* attempts granted to transient failures;
    ``enabled=False`` turns the sandbox off entirely (callers fall
    back to in-process measurement).
    """

    timeout: float = 30.0
    memory_mb: int = 4096
    retries: int = 1
    backoff: float = 0.05
    check_output: bool = True
    enabled: bool = True


@dataclass
class CandidateFailure:
    """A structured measurement failure (never raised, always returned).

    ``kind`` is one of ``"crash"`` (worker killed by a signal),
    ``"hang"`` (wall-clock timeout), ``"nan"`` (non-finite output),
    ``"compile"`` (host compiler failed or timed out) or ``"error"``
    (anything else that went wrong in the worker).
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


@dataclass
class SandboxResult:
    """A successful sandboxed timing."""

    seconds: float
    attempts: int = 1


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


# -- the worker ---------------------------------------------------------


def _limit_memory(memory_mb: int) -> None:
    if resource is None or memory_mb <= 0:
        return
    limit = memory_mb * 1024 * 1024
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (OSError, ValueError):  # pragma: no cover - exotic rlimit state
        pass


def _sandbox_worker(conn, so_path: str, name: str, in_len: int,
                    out_len: int, strided: bool, min_time: float,
                    repeats: int, memory_mb: int,
                    check_output: bool) -> None:
    """Worker-process body: load, probe, time; report through ``conn``.

    Everything catchable is reported as a tagged tuple; a segfault or
    rlimit kill simply ends the process, which the parent observes as
    EOF + exit code.
    """
    try:
        _limit_memory(memory_mb)
        import numpy as np

        from pathlib import Path

        from repro.perfeval.timing import time_callable

        fn = ccompile.load_function(Path(so_path), name, strided=strided)
        rng = np.random.default_rng(0)
        x = np.ascontiguousarray(rng.standard_normal(in_len))
        y = np.zeros(out_len)
        xp = ccompile.address(x)
        yp = ccompile.address(y)
        extra = (1, 1, 0, 0) if strided else ()

        fn(yp, xp, *extra)  # the probe call: crash/hang happens here
        if check_output and not np.isfinite(y).all():
            conn.send(("nan", "probe output contains NaN/Inf"))
            return

        def call() -> None:
            fn(yp, xp, *extra)

        seconds = time_callable(call, min_time=min_time, repeats=repeats)
        conn.send(("ok", seconds))
    except MemoryError:
        conn.send(("error", f"memory cap ({memory_mb} MB) exceeded"))
    except BaseException as exc:  # noqa: BLE001 - reported, not raised
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass


def _run_attempt(so_path: str, name: str, *, in_len: int, out_len: int,
                 strided: bool, policy: SandboxPolicy, min_time: float,
                 repeats: int) -> tuple[str, Any, int | None]:
    """One sandboxed execution: ``(status, payload, signal)``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_sandbox_worker,
        args=(child_conn, so_path, name, in_len, out_len, strided,
              min_time, repeats, policy.memory_mb, policy.check_output),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(policy.timeout):
            return "hang", f"no result within {policy.timeout:g}s", None
        try:
            message = parent_conn.recv()
        except (EOFError, OSError):
            # The worker died without reporting: a crash (signal) or
            # an abrupt exit.  Negative exitcode is the signal number.
            proc.join(5.0)
            code = proc.exitcode
            if code is not None and code < 0:
                return "crash", f"worker killed by signal {-code}", -code
            return "crash", f"worker exited with code {code}", None
        return message[0], message[1], None
    finally:
        parent_conn.close()
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - terminate refused
                proc.kill()
                proc.join(5.0)


# -- the public entry ---------------------------------------------------


def measure_candidate(source: str, name: str, *, in_len: int, out_len: int,
                      strided: bool = False,
                      cflags: tuple[str, ...] = (),
                      policy: SandboxPolicy | None = None,
                      min_time: float = 0.005, repeats: int = 2,
                      quarantine: Quarantine | None = None,
                      key: str | None = None,
                      ) -> SandboxResult | CandidateFailure:
    """Compile and time one C candidate inside the sandbox.

    Returns either a :class:`SandboxResult` or a structured
    :class:`CandidateFailure` — never raises for a misbehaving
    candidate.  ``key`` (default: hash of source + flags) names the
    candidate in the quarantine: a key already quarantined returns its
    remembered failure without running anything.
    """
    policy = policy if policy is not None else SandboxPolicy()
    # NB: ``or`` would misfire here — an *empty* Quarantine is falsy.
    quarantine = quarantine if quarantine is not None \
        else default_quarantine()
    key = key or source_key(source, cflags)
    known = quarantine.check(key)
    if known is not None:
        return known

    attempts = 0
    failure: CandidateFailure | None = None
    while attempts <= policy.retries:
        attempts += 1
        try:
            so_path = ccompile.compile_shared_object(source, cflags=cflags)
        except ccompile.CCompileError as exc:
            failure = CandidateFailure(kind="compile", plan_key=key,
                                       detail=str(exc)[:2000],
                                       attempts=attempts)
            if attempts <= policy.retries:
                time.sleep(policy.backoff * attempts)
                continue
            break
        status, payload, signum = _run_attempt(
            str(so_path), name, in_len=in_len, out_len=out_len,
            strided=strided, policy=policy, min_time=min_time,
            repeats=repeats,
        )
        if status == "ok":
            return SandboxResult(seconds=float(payload), attempts=attempts)
        failure = CandidateFailure(kind=status, plan_key=key,
                                   detail=str(payload), signal=signum,
                                   attempts=attempts)
        if status in TRANSIENT_KINDS and attempts <= policy.retries:
            time.sleep(policy.backoff * attempts)
            continue
        break
    assert failure is not None
    quarantine.add(failure)
    return failure

"""Compile-and-time formula candidates: the search's one measurement seam.

The measurement path is: SPL compiler (straight-line or looped code)
-> C backend -> host C compiler at -O3 -> ctypes -> best-of timing.
When no C compiler is available the Python backend is timed instead
(relative comparisons between candidates remain meaningful).

Fault tolerance: with a :class:`repro.perfeval.sandbox.SandboxPolicy`,
everything after SPL->C — the host compiler and executing the
generated native code — runs on the leased worker processes of
:mod:`repro.search.queue`, ``jobs`` of them: wall-clock lease, memory
cap, crash detection, finite-output probe, optional journal.  A
candidate that segfaults, hangs, over-allocates or emits NaN comes
back as a :class:`Measurement` carrying a structured
:class:`~repro.perfeval.sandbox.CandidateFailure` (``ok`` is False,
``seconds`` is inf) instead of raising, and is quarantined by plan key
so no later search re-measures it.  The search layers above simply
skip non-``ok`` measurements and keep going.  Without a policy (or
without ``fork``) candidates are built and timed in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.compiler import CompiledRoutine, SplCompiler
from repro.core.nodes import Formula
from repro.perfeval import ccompile
from repro.perfeval.runner import ExecutableRoutine, build_executable
from repro.perfeval.sandbox import (
    CandidateFailure,
    Quarantine,
    SandboxPolicy,
    source_key,
)
from repro.perfeval.timing import pseudo_mflops, time_callable
from repro.search.queue import TaskJournal, TaskQueueCoordinator
from repro.wisdom.parallel import map_indexed, resolve_jobs


@dataclass
class Measurement:
    """One timed candidate (or its structured failure).

    ``executable`` is None for isolated measurements (the executable
    lives and dies in the worker; the winner can be rebuilt from its
    formula) and for failed candidates.  ``ok`` distinguishes a real
    timing from a failure: failed candidates time as ``inf`` so a
    naive min() can never crown them, but callers should filter on
    ``ok`` and surface ``failure.describe()``.
    """

    formula: Formula
    routine: CompiledRoutine
    executable: ExecutableRoutine | None
    seconds: float
    failure: CandidateFailure | None = None
    sandboxed: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def mflops(self) -> float:
        if not self.ok:
            return 0.0
        return pseudo_mflops(self.routine.in_size, self.seconds)


def validate_fft_formula(compiler: SplCompiler, formula: Formula, n: int, *,
                         rtol: float = 1e-6, atol: float = 1e-8,
                         seed: int = 5) -> bool:
    """Check that ``formula`` really computes the ``n``-point DFT.

    Runs the compiled i-code through the reference interpreter (the
    backend every other backend must agree with) on one random complex
    vector and compares against ``numpy.fft.fft``.  Used to re-validate
    plans replayed from a wisdom store before they are trusted; any
    compile/parse/run failure counts as invalid.
    """
    import numpy as np

    from repro.core.interpreter import run_program

    try:
        routine = compiler.compile_formula(formula, f"spl_check{n}",
                                           language="c")
    except Exception:  # noqa: BLE001 - invalid wisdom must not raise
        return False
    program = routine.program
    if program.in_size != n or program.out_size != n or program.strided:
        return False
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        if program.element_width == 2:
            buf = np.zeros(2 * n)
            buf[0::2] = x.real
            buf[1::2] = x.imag
            out = run_program(program, list(buf))
            y = np.asarray(out[0::2]) + 1j * np.asarray(out[1::2])
        else:
            out = run_program(program, list(x.astype(complex)))
            y = np.asarray(out, dtype=complex)
    except Exception:  # noqa: BLE001
        return False
    return bool(np.allclose(y, np.fft.fft(x), rtol=rtol, atol=atol))


def _compile_task(task: dict) -> dict:
    """Worker side, before the lease: source -> cached shared object.

    The host compiler bounds itself (``SPL_CC_TIMEOUT``); a
    ``CCompileError`` propagates and the queue retries it.
    """
    so_path = ccompile.compile_shared_object(task["source"])
    return {**task, "so_path": str(so_path)}


def _time_task(task: dict) -> dict:
    """Worker side, under the lease: load, probe, time.

    A segfault, a rlimit kill or an endless loop simply ends (or
    wedges) the worker, which the coordinator observes; a non-finite
    probe output is a verdict, returned as data.
    """
    import numpy as np

    strided = task["strided"]
    fn = ccompile.load_function(Path(task["so_path"]), task["name"],
                                strided=strided)
    rng = np.random.default_rng(0)
    x = np.ascontiguousarray(rng.standard_normal(task["in_len"]))
    y = np.zeros(task["out_len"])
    xp = ccompile.address(x)
    yp = ccompile.address(y)
    extra = (1, 1, 0, 0) if strided else ()

    fn(yp, xp, *extra)  # the probe call: crash/hang happens here
    if task["check_output"] and not np.isfinite(y).all():
        return {"ok": False, "kind": "nan",
                "detail": "probe output contains NaN/Inf"}

    def call() -> None:
        fn(yp, xp, *extra)

    return {"ok": True,
            "seconds": time_callable(call, min_time=task["min_time"],
                                     repeats=task["repeats"])}


def _measure_routines(routines: Sequence[CompiledRoutine],
                      formulas: Sequence[Formula], *,
                      min_time: float, repeats: int, jobs: int,
                      sandbox: SandboxPolicy | None,
                      quarantine: Quarantine | None,
                      journal: TaskJournal | None) -> list[Measurement]:
    """Time compiled ``routines``: on the lease queue when isolation is
    asked for and available, else on a thread pool in this process."""
    # Imported here: ``spl serve`` loads this module, not the shell.
    from repro.runtime.workers import supported

    if (sandbox is None or not supported()
            or not ccompile.have_c_compiler()):

        def measure_one(index: int, routine: CompiledRoutine) -> Measurement:
            executable = build_executable(routine)
            seconds = time_callable(executable.timer_closure(),
                                    min_time=min_time, repeats=repeats)
            return Measurement(formula=formulas[index], routine=routine,
                               executable=executable, seconds=seconds)

        return map_indexed(routines, measure_one, jobs=jobs)

    # Content-keyed tasks on the lease queue: the key is what the
    # journal replays and the quarantine remembers a candidate by.
    cflags = ccompile.extra_cflags()
    keys = [source_key(routine.source, cflags) for routine in routines]
    tasks = {}
    for key, routine in zip(keys, routines):
        program = routine.program
        tasks[key] = {
            "source": routine.source, "name": routine.name,
            "in_len": program.in_size * program.element_width,
            "out_len": program.out_size * program.element_width,
            "strided": program.strided,
            "check_output": sandbox.check_output,
            "min_time": min_time, "repeats": repeats,
        }
    coordinator = TaskQueueCoordinator(
        _time_task, prepare=_compile_task, workers=resolve_jobs(jobs),
        policy=sandbox, journal=journal, quarantine=quarantine)
    outcome = coordinator.run(tasks)
    measurements = []
    for key, routine, formula in zip(keys, routines, formulas):
        result = outcome.results.get(key)
        failure = outcome.failures.get(key)
        if result is not None and not result["ok"]:
            failure = CandidateFailure(kind=result["kind"], plan_key=key,
                                       detail=result["detail"])
            coordinator.quarantine.add(failure)
        measurements.append(Measurement(
            formula=formula, routine=routine, executable=None,
            seconds=math.inf if failure else result["seconds"],
            failure=failure, sandboxed=True))
    return measurements


def measure_formula(compiler: SplCompiler, formula: Formula, name: str, *,
                    min_time: float = 0.005,
                    repeats: int = 2,
                    sandbox: SandboxPolicy | None = None,
                    quarantine: Quarantine | None = None) -> Measurement:
    """Compile ``formula`` with ``compiler`` and time it.

    With a ``sandbox`` policy the timing runs in an isolated worker
    process and a misbehaving candidate comes back as a failed
    measurement instead of taking the caller down.
    """
    routine = compiler.compile_formula(formula, name, language="c")
    return _measure_routines(
        [routine], [formula], min_time=min_time, repeats=repeats, jobs=1,
        sandbox=sandbox, quarantine=quarantine, journal=None)[0]


def measure_formulas(compiler: SplCompiler, formulas: Sequence[Formula], *,
                     name_prefix: str = "spl_cand",
                     min_time: float = 0.005,
                     repeats: int = 2,
                     jobs: int = 1,
                     sandbox: SandboxPolicy | None = None,
                     quarantine: Quarantine | None = None,
                     journal: TaskJournal | None = None,
                     ) -> list[Measurement]:
    """Compile and time a batch of candidates, ``jobs`` at a time.

    SPL->C happens here, in the caller (memoized by the compiler).
    With a ``sandbox`` policy the host compiler and the timing run as
    leased tasks on ``jobs`` worker processes; ``quarantine`` (default:
    the process-wide one) suppresses re-measurement of candidates that
    already failed and ``journal`` makes completed measurements survive
    a killed run.  Without one, candidates are built and timed on a
    thread pool in this process.

    Either way the returned list keeps one :class:`Measurement` per
    candidate in candidate order — failed candidates included, marked
    ``ok=False`` — so selecting the first minimum yields the same
    winner at any ``jobs`` given the same timings, and callers can
    both skip failures and report them.
    """
    formulas = list(formulas)
    routines = [
        compiler.compile_formula(formula, f"{name_prefix}{index}",
                                 language="c")
        for index, formula in enumerate(formulas)
    ]
    return _measure_routines(
        routines, formulas, min_time=min_time, repeats=repeats, jobs=jobs,
        sandbox=sandbox, quarantine=quarantine, journal=journal)

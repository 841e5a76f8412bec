"""Compiler and kernel layers, measured from outside.

Each function times calls into a layer's public functions and reads
the counts those functions already return; nothing under ``src/`` is
changed or patched.  ``compile-cold`` and ``kernel-sweep`` use the same
functions for their end-to-end figures, so a layer number and the
end-to-end number it explains come from the same calls.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.compiler import CompiledRoutine, CompilerOptions, SplCompiler
from repro.core.parser import parse_formula_text
from repro.perfeval import ccompile
from repro.perfeval.runner import ExecutableRoutine, build_executable

from bench.formulas import Case
from bench.references import TOLERANCE, random_input, reference, rel_error
from bench.stats import geomean, median

#: The passes ``SplCompiler`` records, in pipeline order.
PASSES = ("unroll", "scalarize", "intrinsics", "typetrans", "optimize",
          "fuse-copies", "fuse-loops", "post-fuse", "reuse-scratch",
          "peephole")

BATCH = 64


def fresh_build_dir(root: Path, label: str) -> Path:
    """Point ``SPL_BUILD_DIR`` at a new empty directory under ``root``,
    so no ``.so`` from an earlier build can be a cache hit."""
    path = root / label
    path.mkdir(parents=True)
    os.environ["SPL_BUILD_DIR"] = str(path)
    return path


def run_toolchain_probes(root: Path) -> float:
    """Run the once-per-process OpenMP probes now, in their own build
    directory, so the first measured build does not pay for them."""
    fresh_build_dir(root, "probes")
    started = time.perf_counter()
    ccompile.have_openmp()
    ccompile.have_openmp_simd()
    return time.perf_counter() - started


def compiler_for(case: Case) -> SplCompiler:
    """A new compiler session with the options ``spl serve`` uses
    (codelets: fully unrolled, with the peephole pass so it has one
    caller here).  A new session has an empty compile memo."""
    if case.unroll:
        return SplCompiler(CompilerOptions(codetype="real", unroll=True,
                                           peephole=True))
    return SplCompiler(CompilerOptions(codetype="real",
                                       unroll_threshold=16))


@dataclass
class Built:
    case: Case
    routine: CompiledRoutine
    executable: ExecutableRoutine | None
    parse_s: float
    compile_s: float
    build_s: float


def build_case(case: Case, *, language: str = "c",
               prefer: str | None = "c") -> Built:
    """SPL text -> parsed formula -> compiled routine -> executable,
    each step timed.  ``prefer=None`` stops after the compiler."""
    compiler = compiler_for(case)
    t0 = time.perf_counter()
    formula = parse_formula_text(case.text, compiler.defines)
    t1 = time.perf_counter()
    routine = compiler.compile_formula(formula, case.name,
                                       datatype=case.datatype,
                                       language=language)
    t2 = time.perf_counter()
    executable = None
    if prefer is not None:
        executable = build_executable(routine, prefer=prefer)
    t3 = time.perf_counter()
    return Built(case, routine, executable, t1 - t0, t2 - t1, t3 - t2)


def icode_counts(routine: CompiledRoutine) -> dict[str, int]:
    """Counts that must repeat exactly for one input on one commit."""
    passes = routine.pass_summary()
    return {
        "stmts_out": passes[-1]["icode_out"] if passes else 0,
        "scratch_bytes": routine.scratch_bytes,
        "flops": routine.flop_count,
        "source_bytes": len(routine.source.encode()),
    }


def compile_counts(cases: list[Case]) -> dict[str, dict[str, int]]:
    """Compile every case (no host compiler) and return its counts."""
    return {case.name: icode_counts(build_case(case, prefer=None).routine)
            for case in cases}


def compiler_layers(cases: list[Case], tmp: Path) -> tuple[dict, list[Built]]:
    """Per-layer metrics of compiling ``cases`` once, cold.

    Returns the metrics and the built executables (for the kernel
    layer).  Builds go to one new directory, so every first build runs
    gcc and every second one is a ``.so`` cache hit.
    """
    build_dir = fresh_build_dir(tmp, "layers-build")
    builts: list[Built] = []
    pass_ms = dict.fromkeys(PASSES, 0.0)
    counts = dict.fromkeys(("stmts_out", "scratch_bytes", "flops",
                            "source_bytes"), 0)
    warm_s = 0.0
    for case in cases:
        built = build_case(case)
        builts.append(built)
        for record in built.routine.pass_summary():
            name = record["name"]  # a pass added later still counts
            pass_ms[name] = pass_ms.get(name, 0.0) + record["micros"] / 1e3
        for key, value in icode_counts(built.routine).items():
            counts[key] += value
        started = time.perf_counter()
        build_executable(built.routine, prefer="c")
        warm_s += time.perf_counter() - started
    compile_ms = [b.compile_s * 1e3 for b in builts]
    cold_ms = sum(b.build_s for b in builts) * 1e3
    metrics = {
        "core.parser.parse_ms_sum": sum(b.parse_s for b in builts) * 1e3,
        "core.compiler.compile_ms_sum": sum(compile_ms),
        "core.compiler.compile_ms_p50": median(compile_ms),
        "core.compiler.self_ms": sum(compile_ms) - sum(pass_ms.values()),
        "core.icode.stmts_out": counts["stmts_out"],
        "core.icode.scratch_bytes": counts["scratch_bytes"],
        "core.icode.flops": counts["flops"],
        "core.backend_c.source_bytes": counts["source_bytes"],
        "perfeval.runner.build_cold_ms_sum": cold_ms,
        "perfeval.runner.build_warm_ms_sum": warm_s * 1e3,
        "perfeval.ccompile.gcc_ms_sum": cold_ms - warm_s * 1e3,
        "perfeval.ccompile.so_bytes": sum(
            p.stat().st_size for p in build_dir.glob("spl_*.so")),
    }
    for name, value in pass_ms.items():
        metrics[f"core.pass.{name}.ms"] = value
    return metrics, builts


def jit_layers(cases: list[Case]) -> dict:
    """The in-process JIT tier on the codelet subset (needs
    ``SPL_JIT_UPGRADE=0`` so no background gcc build races the clock)."""
    build_s = 0.0
    eligible = 0
    for case in cases:
        built = build_case(case, language="cjit", prefer="cjit")
        build_s += built.build_s
        eligible += built.executable.backend == "cjit"
    return {"perfeval.jit.build_ms_sum": build_s * 1e3,
            "perfeval.jit.eligible": eligible}


# -- kernels ----------------------------------------------------------------


def _calibrate(fn, slice_s: float) -> int:
    """A discarded warm-up slice; returns how many calls make about a
    millisecond, so that reading the clock is not part of a slice."""
    started = time.perf_counter()
    calls = 0
    while time.perf_counter() - started < slice_s:
        fn()
        calls += 1
    return max(1, int(calls / (slice_s * 1e3)))


def _slice(fn, inner: int, slice_s: float) -> float:
    """Seconds per call over one slice of about ``slice_s``."""
    calls = 0
    started = time.perf_counter()
    while True:
        for _ in range(inner):
            fn()
        calls += inner
        elapsed = time.perf_counter() - started
        if elapsed >= slice_s:
            return elapsed / calls


def time_interleaved(fns: dict, slice_s: float,
                     slices: int) -> dict[str, list[float]]:
    """Seconds per call of each function in ``fns``: ``slices`` timed
    slices each after a discarded warm-up slice, taken round-robin, so
    that every function samples the whole run and a slow spell of the
    machine costs each of them one slice, not one of them all.

    Callers keep each function's *fastest* slice.  These are CPU-bound
    loops on a shared machine whose speed steps down by a quarter for
    seconds at a time; nothing makes a slice faster than the code
    allows, so the fastest of many spread over the run is the code's
    figure (medians of the same slices spread twice as far between
    runs of one commit)."""
    inner = {name: _calibrate(fn, slice_s) for name, fn in fns.items()}
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(slices):
        for name, fn in fns.items():
            samples[name].append(_slice(fn, inner[name], slice_s))
    return samples


def check_outputs(executable: ExecutableRoutine, case: Case,
                  rng: np.random.Generator) -> float:
    """Largest relative L2 error of ``apply`` and ``apply_many`` on
    fresh inputs, against the independent reference."""
    expected = reference(case.kind, case.n)
    x = random_input(rng, case.n, case.is_complex)
    X = random_input(rng, case.n, case.is_complex, batch=BATCH)
    single = rel_error(executable.apply(x), expected(x))
    Y, E = executable.apply_many(X), expected(X)
    return max([single] + [rel_error(Y[i], E[i]) for i in range(BATCH)])


def sweep_functions(builts: list[Built], rng: np.random.Generator,
                    raw: bool = False) -> dict:
    """The functions a sweep times, by cell name: ``n<N>.b1`` is
    ``apply(x)``, ``n<N>.b64`` is ``apply_many(X)`` with B = 64 and,
    when asked for, ``n<N>.raw`` is the bare ctypes entry."""
    fns = {}
    for built in builts:
        case, executable = built.case, built.executable
        x = random_input(rng, case.n, case.is_complex)
        X = random_input(rng, case.n, case.is_complex, batch=BATCH)
        fns[f"n{case.n}.b1"] = partial(executable.apply, x)
        fns[f"n{case.n}.b64"] = partial(executable.apply_many, X)
        if raw:
            fns[f"n{case.n}.raw"] = executable.timer_closure()
    return fns


def kernel_layers(builts: list[Built], rng: np.random.Generator,
                  slice_s: float, slices: int
                  ) -> tuple[dict, dict, list[float]]:
    """Per-layer metrics of running ``builts``: the same
    ``perfeval.runner`` layer three ways (raw ctypes entry, ``apply``,
    ``apply_many``).  Returns (aggregates over the sizes, per-size
    cells, each size's output error)."""
    samples = time_interleaved(sweep_functions(builts, rng, raw=True),
                               slice_s, slices)
    raw_ns, overhead_us, vps1, vps64, errors = [], [], [], [], []
    bytes_computed = 0
    cells: dict = {}
    for built in builts:
        case = built.case
        tag = f"n{case.n}"
        raw = min(samples[f"{tag}.raw"])
        single = min(samples[f"{tag}.b1"])
        batch = min(samples[f"{tag}.b64"]) / BATCH
        itemsize = 16 if case.is_complex else 8
        moved = 2 * case.n * itemsize + built.routine.scratch_bytes
        raw_ns.append(raw * 1e9)
        overhead_us.append((single - raw) * 1e6)
        vps1.append(1.0 / single)
        vps64.append(1.0 / batch)
        errors.append(check_outputs(built.executable, case, rng))
        bytes_computed += moved
        cells[f"perfeval.runner.vps.{tag}.b1"] = vps1[-1]
        cells[f"perfeval.runner.vps.{tag}.b64"] = vps64[-1]
        cells[f"kernel.ns_per_vec.{tag}"] = raw_ns[-1]
        cells[f"perfeval.runner.overhead_us.{tag}.b1"] = overhead_us[-1]
        cells[f"kernel.flops.{tag}"] = built.routine.flop_count
        cells[f"kernel.bytes_computed.{tag}"] = moved
        cells[f"kernel.rel_error_max.{tag}"] = errors[-1]
    metrics = {
        "perfeval.runner.vps_b1.geomean": geomean(vps1),
        "perfeval.runner.vps_b64.geomean": geomean(vps64),
        "kernel.ns_per_vec.geomean": geomean(raw_ns),
        "perfeval.runner.overhead_us_b1.geomean": geomean(overhead_us),
        "kernel.bytes_computed.sum": bytes_computed,
        "kernel.rel_error_max": max(errors),
    }
    return metrics, cells, errors


def wrong_outputs(errors: list[float]) -> int:
    return sum(1 for e in errors if not e <= TOLERANCE)

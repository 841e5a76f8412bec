"""Workload ``kernel-sweep``: the generated code, in process.

Prebuilt C plans of the serving default factorization at five sizes,
each run two ways: ``apply(x)`` (B = 1, bound by the Python wrapper
and the ctypes crossing) and ``apply_many(X)`` with B = 64 (bound by
the kernel; at n = 4096 by memory).  No compile and no sockets inside
the measurement.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from bench import layers, serving
from bench.context import Context, Result
from bench.formulas import Case, default_fft_case, wht_case
from bench.stats import geomean, median, pseudo_mflops

SIZES = (16, 64, 256, 1024, 4096)
SMOKE_SIZES = (16, 64, 256)
#: Timed slices per cell, of about 20 ms each at the default length:
#: the machine's speed changes within a second, so many short slices
#: find the undisturbed moments that a few long ones average away (the
#: fastest of 10 slices of 0.2 s spread 10-14 % between runs of one
#: commit, the fastest of 120 of 20 ms 3-4 %).
SLICES = 120
SETUPS = 2
TIER_N = 64


def _sizes(ctx: Context) -> tuple[int, ...]:
    return SMOKE_SIZES if ctx.smoke else SIZES


def _build_plans(ctx: Context, label: str) -> list[layers.Built]:
    layers.fresh_build_dir(ctx.tmp, label)
    return [layers.build_case(default_fft_case(n)) for n in _sizes(ctx)]


def run(ctx: Context) -> Result:
    layers.run_toolchain_probes(ctx.tmp)
    if ctx.trace:
        return _traced(ctx)

    setup_s = []
    for index in range(SETUPS):
        started = time.perf_counter()
        plans = _build_plans(ctx, f"setup{index}")
        setup_s.append(time.perf_counter() - started)

    rng = np.random.default_rng(ctx.seed)
    fns = layers.sweep_functions(plans, rng)
    slice_s = ctx.seconds / (len(fns) * (SLICES + 1))
    samples = layers.time_interleaved(fns, slice_s, SLICES)
    details: dict = {"slices_s": samples}
    single_ms, batch_mflops, errors = [], [], []
    for built in plans:
        n = built.case.n
        single = min(samples[f"n{n}.b1"])
        batch = min(samples[f"n{n}.b64"]) / layers.BATCH
        error = layers.check_outputs(built.executable, built.case, rng)
        single_ms.append(single * 1e3)
        batch_mflops.append(pseudo_mflops(n, batch * 1e6))
        errors.append(error)
        details[f"pseudo_mflops.n{n}.b1"] = pseudo_mflops(n, single * 1e6)
        details[f"pseudo_mflops.n{n}.b64"] = batch_mflops[-1]
        details[f"kernel.rel_error_max.n{n}"] = error
    details["pseudo_mflops_single"] = geomean(
        details[f"pseudo_mflops.n{b.case.n}.b1"] for b in plans)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return Result(
        # One op per size: run both ways, both outputs checked.
        attempted=len(plans),
        failed=layers.wrong_outputs(errors),
        wrong=layers.wrong_outputs(errors),
        metrics={
            "setup_s": median(setup_s),
            "throughput": geomean(batch_mflops),
            "latency_p50_ms": geomean(single_ms),
            # The tail of the sweep is its largest size.
            "latency_tail_ms": max(single_ms),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        details=details,
    )


def _tier_cells(rng: np.random.Generator, slice_s: float) -> dict:
    """n = 64 on the tiers below C, and the float64 path (WHT 1024)."""
    cells: dict = {}

    def timed(case: Case, language: str, prefer: str, tag: str) -> None:
        built = layers.build_case(case, language=language, prefer=prefer)
        samples = layers.time_interleaved(
            layers.sweep_functions([built], rng), slice_s, 3)
        b1, b64 = (min(samples[f"n{case.n}.{b}"]) for b in ("b1", "b64"))
        cells[f"perfeval.runner.vps.{tag}.b1"] = 1.0 / b1
        cells[f"perfeval.runner.vps.{tag}.b64"] = layers.BATCH / b64
        cells[f"kernel.rel_error_max.{tag}"] = layers.check_outputs(
            built.executable, case, rng)

    fft = default_fft_case(TIER_N)
    unrolled = Case(f"fft{TIER_N}_unrolled", fft.text, "fft", TIER_N,
                    "complex", unroll=True)  # only codelets can be jitted
    timed(unrolled, "cjit", "cjit", f"n{TIER_N}.cjit")
    timed(fft, "numpy", "numpy", f"n{TIER_N}.numpy")
    timed(fft, "python", "python", f"n{TIER_N}.python")
    timed(wht_case(1024), "c", "c", "wht1024")
    return cells


def _traced(ctx: Context) -> Result:
    cases = [default_fft_case(n) for n in _sizes(ctx)]
    result, _ = serving.layer_walk(
        ctx, cases, serving.SIZES["serve-small"], ctx.seconds * 0.4)
    if not ctx.smoke:
        tiers = _tier_cells(np.random.default_rng(ctx.seed),
                            ctx.seconds / 400.0)
        errors = [v for k, v in tiers.items()
                  if k.startswith("kernel.rel_error")]
        result.attempted += len(errors)
        result.failed += layers.wrong_outputs(errors)
        result.wrong += layers.wrong_outputs(errors)
        result.details.update(tiers)
    return result

"""Workload ``compile-cold``: SPL text to a checked executable.

Closed loop, one formula at a time.  Every round uses new compiler
sessions and an empty build directory, so neither the compile memo nor
the ``.so`` cache can hit: each op pays the Python compiler and gcc.
"""

from __future__ import annotations

import random
import resource
import time

import numpy as np

from bench import layers, serving
from bench.context import Context, Result
from bench.formulas import Case, formula_set
from bench.references import TOLERANCE, random_input, reference, rel_error
from bench.stats import geomean, median

#: Nominal length of one round over the 22 formulas on the reference
#: machine; ``--seconds`` buys whole rounds, so every run measures the
#: same mix of programs.
ROUND_SECONDS = 10.0
SETUPS = 2
SMOKE_CASES = 6


def _cases(ctx: Context) -> list[Case]:
    cases = formula_set(ctx.seed)
    if ctx.smoke:
        cases = [c for c in cases if c.n <= 64][:SMOKE_CASES]
    return cases


def _expected_outputs(cases: list[Case], ctx: Context) -> dict:
    rng = np.random.default_rng(ctx.seed)
    expected = {}
    for case in cases:
        x = random_input(rng, case.n, case.is_complex)
        expected[case.name] = (x, reference(case.kind, case.n)(x))
    return expected


def run(ctx: Context) -> Result:
    probe_s = layers.run_toolchain_probes(ctx.tmp)
    if ctx.trace:
        return _traced(ctx)

    # Set-up: generate the set and compile it (no gcc) for its counts;
    # done twice, which is also the check that the counts repeat.
    setup_s, counts = [], []
    for _ in range(SETUPS):
        started = time.perf_counter()
        cases = _cases(ctx)
        counts.append(layers.compile_counts(cases))
        setup_s.append(time.perf_counter() - started)
    if counts[0] != counts[1]:
        raise RuntimeError("compiler counts differ between two compiles "
                           "of one formula set")
    expected = _expected_outputs(cases, ctx)

    rounds = max(1, int(ctx.seconds // ROUND_SECONDS))
    order_rng = random.Random(ctx.seed)
    op_s: dict[str, list[float]] = {case.name: [] for case in cases}
    failed = 0
    for index in range(rounds):
        layers.fresh_build_dir(ctx.tmp, f"round{index}")
        order = list(cases)
        order_rng.shuffle(order)
        for case in order:
            x, y = expected[case.name]
            started = time.perf_counter()
            built = layers.build_case(case)
            error = rel_error(built.executable.apply(x), y)
            op_s[case.name].append(time.perf_counter() - started)
            failed += not error <= TOLERANCE

    # One figure per program: its time over the rounds.
    program_ms = [median(times) * 1e3 for times in op_s.values()]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    gcc = resource.getrusage(resource.RUSAGE_CHILDREN)
    attempted = rounds * len(cases)
    return Result(
        attempted=attempted,
        failed=failed,
        wrong=failed,
        metrics={
            "setup_s": median(setup_s),
            "throughput": (1.0 - failed / attempted) * len(cases)
                          / (sum(program_ms) / 1e3),
            "latency_p50_ms": geomean(program_ms),
            "latency_tail_ms": max(program_ms),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        details={
            "rounds": rounds,
            "op_s": op_s,
            "latency_samples": attempted,
            "counts": counts[0],
            "setup.probe_s": probe_s,
            "perfeval.ccompile.gcc_peak_rss_mb": gcc.ru_maxrss / 1024.0,
        },
    )


def _traced(ctx: Context) -> Result:
    cases = _cases(ctx)
    result, builts = serving.layer_walk(
        ctx, cases, serving.SIZES["serve-small"], ctx.seconds * 0.4)
    expected = _expected_outputs(cases, ctx)
    for built in builts:
        x, y = expected[built.case.name]
        wrong = not rel_error(built.executable.apply(x), y) <= TOLERANCE
        result.attempted += 1
        result.failed += wrong
        result.wrong += wrong
    codelets = [c for c in cases if c.unroll]
    if codelets:
        result.details.update(layers.jit_layers(codelets))
    return result

"""Shared fixtures and oracles for the test suite.

The central oracle: for any formula, the generated code (interpreter,
Python backend, compiled C) must compute ``to_matrix(formula) @ x``.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.core.interpreter import run_program
from repro.core.parser import parse_formula_text
from repro.formulas import to_matrix
from repro.perfeval.ccompile import have_c_compiler

HAS_CC = have_c_compiler()

requires_cc = pytest.mark.skipif(
    not HAS_CC, reason="no C compiler on PATH"
)


def sabotage_tier(executable, explode,
                  fields=("call", "rows", "native")) -> None:
    """Swap ``executable``'s current tier for a copy whose named
    callables (those the tier has) are ``explode``: the one way tests
    make a backend fault."""
    tier = executable._tier
    executable._tier = dataclasses.replace(tier, **{
        name: explode for name in fields
        if getattr(tier, name) is not None})


def inherited_mb() -> int:
    """Address space (MiB) a forked worker starts with: this process's.

    Memory-cap tests set ``RLIMIT_AS`` a little above it.
    """
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[0])
    return pages * os.sysconf("SC_PAGE_SIZE") >> 20


@pytest.fixture
def compiler() -> SplCompiler:
    """A default compiler session (complex data, real code, Fortran)."""
    return SplCompiler()


@pytest.fixture
def unrolled_compiler() -> SplCompiler:
    return SplCompiler(CompilerOptions(unroll=True))


def random_complex(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def interleave(x: np.ndarray) -> list[float]:
    out: list[float] = []
    for value in x:
        value = complex(value)
        out.extend((value.real, value.imag))
    return out


def deinterleave(buf) -> np.ndarray:
    arr = np.asarray(buf, dtype=float)
    return arr[0::2] + 1j * arr[1::2]


def assert_routine_matches_matrix(routine, formula=None, *, seed=7,
                                  rtol=1e-9, atol=1e-9) -> None:
    """Check routine.run against the dense semantics on random input."""
    formula = formula if formula is not None else routine.formula
    if isinstance(formula, str):
        formula = parse_formula_text(formula)
    matrix = to_matrix(formula)
    x = random_complex(matrix.shape[1], seed)
    expected = matrix @ x
    got = np.asarray(routine.run(list(x)))
    np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol)


def assert_program_matches_matrix(program, formula, *, seed=7,
                                  atol=1e-9) -> None:
    """Check the i-code interpreter against the dense semantics."""
    if isinstance(formula, str):
        formula = parse_formula_text(formula)
    matrix = to_matrix(formula)
    x = random_complex(matrix.shape[1], seed)
    if program.element_width == 2:
        out = run_program(program, interleave(x))
        got = deinterleave(out)
    else:
        out = run_program(program, list(x))
        got = np.asarray(out)
    np.testing.assert_allclose(got, matrix @ x, atol=atol)

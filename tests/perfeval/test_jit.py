"""Unit and integration tests for the in-process JIT backend tier:
eligibility gating (``can_jit``), the ``cjit`` preference chain in
``build_executable`` (an explicit tier that stays where it was built:
no background gcc build), and the cold-start gate."""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval import jit
from repro.perfeval.ccompile import have_c_compiler
from repro.perfeval.runner import build_executable

needs_jit = pytest.mark.skipif(
    not jit.jit_supported(),
    reason="in-process JIT unsupported on this host",
)
needs_cc = pytest.mark.skipif(
    not have_c_compiler(), reason="no C compiler on PATH",
)


def _codelet_routine(formula="(F 4)", language="cjit"):
    compiler = SplCompiler(CompilerOptions(codetype="real", unroll=True))
    return compiler.compile_formula(formula, "tj", language=language)


def _looped_routine(language="cjit"):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    return compiler.compile_formula("(tensor (I 8) (F 4))", "tjl",
                                    language=language)


class TestEligibility:
    def test_codelet_is_jittable(self):
        assert jit.can_jit(_codelet_routine().program)

    def test_looped_program_rejected(self):
        assert not jit.can_jit(_looped_routine().program)

    def test_strided_program_rejected(self):
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll=True))
        routine = compiler.compile_formula("(F 4)", "tjs", language="c",
                                           strided=True)
        assert not jit.can_jit(routine.program)

    def test_statement_cap_rejects(self, monkeypatch):
        monkeypatch.setattr(jit, "MAX_JIT_STATEMENTS", 3)
        assert not jit.can_jit(_codelet_routine().program)

    def test_compile_jit_raises_on_ineligible(self):
        with pytest.raises(jit.JitError):
            jit.compile_jit(_looped_routine().program)


@needs_jit
class TestBuildExecutable:
    def test_cjit_backend_selected(self):
        executable = build_executable(_codelet_routine(), prefer="cjit")
        assert executable.backend == "cjit"
        x = np.random.default_rng(1).standard_normal(4) \
            + 1j * np.random.default_rng(2).standard_normal(4)
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-10)

    def test_degradation_chain_skips_c(self):
        # A native fault in the JIT tier must not degrade onto another
        # native build: the chain below cjit is numpy/python only.
        executable = build_executable(_codelet_routine(), prefer="cjit")
        assert "c" not in executable.fallback_chain
        assert "cjit" not in executable.fallback_chain

    def test_looped_program_falls_through(self):
        executable = build_executable(_looped_routine(), prefer="cjit")
        assert executable.backend != "cjit"

    def test_cjit_starts_no_thread_and_stays_put(self):
        # Nothing builds behind the caller: the tier asked for is the
        # tier that answers, on the first call and on every later one.
        before = set(threading.enumerate())
        executable = build_executable(_codelet_routine(), prefer="cjit")
        x = np.arange(4) * (2 + 1j)
        for _ in range(2):
            np.testing.assert_allclose(executable.apply(x),
                                       np.fft.fft(x), atol=1e-10)
        assert set(threading.enumerate()) == before
        assert executable.backend == "cjit"
        assert "promotions" not in executable.stats()


@needs_jit
@needs_jit
@needs_cc
class TestColdStart:
    """Why the tier exists: a fresh codelet plan answers its first
    call long before a cold gcc build of the same plan could."""

    @pytest.mark.parametrize("factors", [[8], [4, 4, 4]],
                             ids=["n8", "n64"])
    def test_first_execution_5x_sooner_than_cold_gcc(
            self, factors, tmp_path, monkeypatch):
        import time

        from repro.formulas.factorization import ct_multi

        def first_execution_s(prefer):
            start = time.perf_counter()
            executable = build_executable(routine, prefer=prefer)
            assert executable.backend == prefer
            executable.apply(x)
            return time.perf_counter() - start

        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll=True))
        routine = compiler.compile_formula(ct_multi(factors), "cold",
                                           language="cjit")
        assert jit.can_jit(routine.program)
        n = routine.program.in_size
        x = np.arange(n) + 1j
        # Fresh build dir: the shared-object cache cannot answer, so
        # the C figure includes the compiler.  One run is enough for
        # the slow side (noise only lengthens it); the fast side takes
        # the best of three.
        monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path / "cold"))
        gcc_s = first_execution_s("c")
        monkeypatch.delenv("SPL_BUILD_DIR")
        jit_s = min(first_execution_s("cjit") for _ in range(3))
        assert gcc_s >= 5.0 * jit_s, (
            f"n={n}: gcc {gcc_s * 1e3:.1f} ms vs jit {jit_s * 1e3:.3f} ms")


class TestJitRoutineLifetime:
    def test_fn_outlives_routine_object(self):
        # The ctypes entries keep the RWX mapping alive via _keepalive;
        # calling fn after the JitRoutine reference is dropped must not
        # fault.
        import ctypes
        import gc

        jitted = jit.compile_jit(_codelet_routine().program)
        fn = jitted.fn
        del jitted
        gc.collect()
        dp = ctypes.POINTER(ctypes.c_double)
        x = np.arange(8.0)
        y = np.zeros(8)
        fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp))
        ref = np.fft.fft(x[0::2] + 1j * x[1::2])
        np.testing.assert_allclose(y[0::2] + 1j * y[1::2], ref,
                                   atol=1e-10)

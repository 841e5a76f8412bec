"""Tests for the performance-evaluation substrate."""

import math

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.formulas.factorization import ct_multi
from repro.perfeval.accuracy import relative_error
from repro.perfeval.ccompile import (
    CCompileError,
    compile_shared_object,
    have_c_compiler,
)
from repro.perfeval.memory import routine_memory
from repro.perfeval.platform import format_table, host_platform
from repro.perfeval.runner import build_executable
from repro.perfeval.timing import pseudo_mflops, time_callable
from tests.conftest import requires_cc, sabotage_tier


def _never_called(*args):
    raise AssertionError("the per-vector call ran")


class TestTiming:
    def test_time_callable_positive(self):
        t = time_callable(lambda: None, min_time=0.001, repeats=2)
        assert t >= 0

    def test_time_scales_with_work(self):
        def light():
            sum(range(10))

        def heavy():
            sum(range(10000))

        t_light = time_callable(light, min_time=0.005)
        t_heavy = time_callable(heavy, min_time=0.005)
        assert t_heavy > t_light * 5

    def test_calibration_run_is_discarded(self):
        # The cold calibration batch (first-call warmup: allocator,
        # icache, ctypes fixups) must not be reused as a timed repeat.
        import time as _time

        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] == 1:
                _time.sleep(0.05)

        t = time_callable(fn, min_time=0.001, repeats=1)
        assert t < 0.025  # reusing the calibration batch would give ~50ms

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_pseudo_mflops_formula(self):
        # 5 N log2 N / t(us): N=1024, t=1ms -> 51.2 pMFlops.
        assert pseudo_mflops(1024, 1e-3) == pytest.approx(51.2)

    def test_pseudo_mflops_zero_time(self):
        assert pseudo_mflops(8, 0.0) == float("inf")


class TestPlatform:
    def test_host_row_fields(self):
        row = host_platform()
        data = row.as_table_row()
        assert set(data) == {"CPU", "L1 cache", "L2 cache", "Memory",
                             "OS", "Compiler"}
        assert data["CPU"]

    def test_format_table(self):
        text = format_table([host_platform()])
        assert "Table 1" in text
        assert "CPU" in text


@requires_cc
class TestCCompile:
    def test_compile_and_cache(self, tmp_path):
        source = "void five(double *restrict y, const double *restrict x)" \
                 "{ y[0] = x[0] + 5.0; }\n"
        path1 = compile_shared_object(source, build_dir=tmp_path)
        path2 = compile_shared_object(source, build_dir=tmp_path)
        assert path1 == path2
        assert path1.exists()

    def test_compile_error_reported(self, tmp_path):
        with pytest.raises(CCompileError) as err:
            compile_shared_object("this is not C;", build_dir=tmp_path)
        assert "compilation failed" in str(err.value)

    def test_load_and_call(self, tmp_path):
        from repro.perfeval.ccompile import load_function
        import ctypes

        source = ("void addone(double *restrict y, "
                  "const double *restrict x) { y[0] = x[0] + 1.0; }\n")
        path = compile_shared_object(source, build_dir=tmp_path)
        fn = load_function(path, "addone")
        x = np.array([41.0])
        y = np.zeros(1)
        dp = ctypes.POINTER(ctypes.c_double)
        fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp))
        assert y[0] == 42.0

    def test_extra_cflags_parsed_from_env(self, monkeypatch):
        from repro.perfeval.ccompile import extra_cflags

        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        assert extra_cflags() == ()
        monkeypatch.setenv("SPL_CFLAGS", "-DSPL_A=1 '-DSPL_B=two words'")
        assert extra_cflags() == ("-DSPL_A=1", "-DSPL_B=two words")

    def test_extra_cflags_change_cache_key(self, tmp_path, monkeypatch):
        # The same source under a different flag set must produce a
        # different cached artifact (no cross-flag-set leakage).
        source = "void noop(double *restrict y, " \
                 "const double *restrict x) { }\n"
        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        plain = compile_shared_object(source, build_dir=tmp_path)
        monkeypatch.setenv("SPL_CFLAGS", "-DSPL_MARKER=1")
        flagged = compile_shared_object(source, build_dir=tmp_path)
        assert plain != flagged
        # ... and the flag set is reproducible: same flags, same path.
        assert compile_shared_object(source, build_dir=tmp_path) == flagged

    def test_cflags_enter_platform_fingerprint(self, monkeypatch):
        from repro.wisdom.keys import (
            platform_description,
            platform_fingerprint,
        )

        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        base = platform_fingerprint()
        monkeypatch.setenv("SPL_CFLAGS", "-march=native")
        assert platform_fingerprint() != base
        assert "-march=native" in platform_description()

    def test_toolchain_probes_stay_out_of_platform_fingerprint(
            self, monkeypatch):
        # Nothing compiles with OpenMP, so whether the toolchain could
        # is no part of a timing's context.
        from repro.perfeval import ccompile
        from repro.wisdom.keys import (
            platform_description,
            platform_fingerprint,
        )

        def refuse():
            raise AssertionError("the fingerprint ran a toolchain probe")

        monkeypatch.delenv("SPL_CFLAGS", raising=False)
        monkeypatch.setattr(ccompile, "have_openmp", refuse)
        monkeypatch.setattr(ccompile, "have_openmp_simd", refuse)
        assert platform_fingerprint()
        assert "openmp" not in platform_description()


class TestArtifactKeys:
    """What a wisdom pack's bundled ``.so`` files are found under.

    A pack names each artifact by :func:`shared_object_cache_key` of
    :func:`c_build_spec`'s ``(source, cflags)``, and a replica serves
    it as a cache hit only if it derives the same key.  The pins below
    are the digests packs built so far carry (they are host-independent
    with ``SPL_CFLAGS`` unset): changing the driver text or the key
    recipe turns every bundled artifact into a compiler run.
    """

    NOOP = "void noop(double *restrict y, const double *restrict x) { }\n"

    @pytest.fixture(autouse=True)
    def _no_extra_cflags(self, monkeypatch):
        monkeypatch.delenv("SPL_CFLAGS", raising=False)

    @pytest.mark.parametrize("cflags, digest", [
        ((), "35876795520d81fa7f002d5c"),
        (("-O0",), "ad22283c07347334ef8f27a2"),
    ])
    def test_cache_key_is_pinned(self, cflags, digest):
        from repro.perfeval.ccompile import shared_object_cache_key

        assert shared_object_cache_key(self.NOOP, cflags=cflags) == digest

    @pytest.mark.parametrize("name, in_len, out_len, sha256", [
        ("f", 8, 8, "b101b5602deb7ea1ea227e479ac2197492e7cced0e456075abf9120617d9409f"),
        ("fft16", 32, 32, "b75cf36d8f6e348b6d86fbe3f8acf07219dd2b4771445d8c80d3236e94ba7373"),
        ("wht4", 4, 4, "c9adaa069587119c7273e175ae5507394debdf68839c475284adc110ef3c8c8a"),
        ("r", 6, 3, "d15c45cf360939cf5dc31105df679a4827294e81b2dca8eb90529a1a371f4123"),
    ])
    def test_batch_driver_text_is_pinned(self, name, in_len, out_len,
                                         sha256):
        import hashlib

        from repro.perfeval.ccompile import batch_driver_source

        text = batch_driver_source(name, in_len=in_len, out_len=out_len)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    @requires_cc
    def test_the_runner_builds_what_a_pack_names(self, tmp_path,
                                                 monkeypatch):
        from repro.perfeval.ccompile import shared_object_cache_key
        from repro.perfeval.runner import c_build_spec

        monkeypatch.setenv("SPL_BUILD_DIR", str(tmp_path))
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 8)", "keyed8", language="c")
        source, cflags = c_build_spec(routine)
        digest = shared_object_cache_key(source, cflags=cflags)
        assert build_executable(routine, prefer="c").backend == "c"
        assert [p.name for p in tmp_path.glob("spl_*.so")] \
            == [f"spl_{digest}.so"]


class TestRunner:
    def test_python_fallback(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "t", language="python")
        executable = build_executable(routine, prefer="python")
        assert executable.backend == "python"
        x = np.array([1 + 2j, 3 - 1j])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)

    @requires_cc
    def test_c_and_python_agree(self):
        compiler = SplCompiler(CompilerOptions(unroll=True,
                                               codetype="real"))
        routine = compiler.compile_formula("(F 8)", "agree8", language="c")
        c_exec = build_executable(routine, prefer="c")
        py_exec = build_executable(routine, prefer="python")
        x = np.random.default_rng(0).standard_normal(8) * (1 + 1j)
        np.testing.assert_allclose(c_exec.apply(x), py_exec.apply(x),
                                   atol=1e-12)

    def test_timer_closure_runs(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "t2", language="python")
        executable = build_executable(routine, prefer="python")
        closure = executable.timer_closure()
        closure()  # must not raise

    def test_numpy_backend_selected(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 4)", "t4", language="numpy")
        executable = build_executable(routine, prefer="numpy")
        assert executable.backend == "numpy"
        x = np.array([1 + 2j, 3 - 1j, 0.5j, -2.0])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)
        # A batch is one NumPy batch call, not a loop over ``call``.
        sabotage_tier(executable, _never_called, fields=("call",))
        X = np.tile(x, (3, 1))
        np.testing.assert_allclose(executable.apply_many(X),
                                   np.fft.fft(X, axis=1), atol=1e-12)
        assert not executable.degraded

    def test_complex_native_falls_back_from_c(self):
        # codetype complex keeps complex arithmetic the C backend
        # cannot express; prefer="c" must fall through to numpy.
        compiler = SplCompiler(CompilerOptions(codetype="complex"))
        routine = compiler.compile_formula("(F 4)", "cn4",
                                           language="numpy")
        executable = build_executable(routine, prefer="c")
        assert executable.backend in ("numpy", "python")
        x = np.array([1 + 2j, 3 - 1j, 0.5j, -2.0])
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-12)

    @pytest.mark.parametrize("prefer", ["c", "cjit", "numpy", "python"])
    @pytest.mark.parametrize("shape", [(1,), (63,), (65,), (1, 64),
                                       (2, 32), (64, 1)])
    def test_apply_rejects_wrong_shape(self, prefer, shape):
        # The kernel reads in_size elements from wherever x points: a
        # short x must be refused, not broadcast (the old wrapper turned
        # a length-1 x into the transform of a constant vector) and
        # never read past.
        from repro.core.errors import SplSemanticError

        if prefer in ("c", "cjit") and not have_c_compiler():
            pytest.skip("no C compiler on PATH")
        compiler = SplCompiler(CompilerOptions(unroll=True,
                                               codetype="real"))
        language = "c" if prefer in ("c", "cjit") else prefer
        routine = compiler.compile_formula(ct_multi((8, 8)).to_spl(),
                                           "shape64", language=language)
        executable = build_executable(routine, prefer=prefer)
        assert executable.backend == prefer
        with pytest.raises(SplSemanticError, match=r"\(64,\) vector"):
            executable.apply(np.ones(shape, dtype=complex))
        assert not executable.degraded  # refused, not a backend fault
        x = np.arange(64) * (1 - 2j)
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-9)

    @pytest.mark.parametrize("prefer", ["numpy", "python"])
    def test_kernel_bits_come_back_unchanged(self, prefer):
        # Re-assembling re + 1j*im turned an infinite imaginary part
        # into a NaN real part (0*inf) and dropped the sign of zeros;
        # the result now *is* the memory the kernel wrote.
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(I 3)", "id3", language=prefer)
        executable = build_executable(routine, prefer=prefer)
        x = np.array([complex(1.0, np.inf), complex(-0.0, -0.0),
                      complex(-np.inf, 2.0)])
        assert executable.apply(x).tobytes() == x.tobytes()
        X = np.stack([x, x[::-1]])
        assert executable.apply_many(X).tobytes() == X.tobytes()

    def test_bad_prefer_rejected(self):
        from repro.core.errors import SplSemanticError

        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 2)", "bp", language="python")
        with pytest.raises(SplSemanticError):
            build_executable(routine, prefer="fortran")


class TestBatchExecution:
    def _routine(self, size=8, language="python"):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        return compiler.compile_formula(
            f"(F {size})", f"b{size}{language[0]}", language=language)

    def _batch(self, size, rows, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((rows, size))
                + 1j * rng.standard_normal((rows, size)))

    @pytest.mark.parametrize("prefer", ["python", "numpy"])
    def test_apply_many_matches_apply(self, prefer):
        executable = build_executable(self._routine(), prefer=prefer)
        X = self._batch(8, 5)
        Y = executable.apply_many(X)
        assert Y.shape == (5, 8)
        for b in range(5):
            np.testing.assert_allclose(Y[b], executable.apply(X[b]),
                                       atol=1e-12)

    @requires_cc
    def test_apply_many_c_driver(self):
        executable = build_executable(self._routine(language="c"),
                                      prefer="c")
        assert executable.backend == "c"
        # spl_batch_* loaded: a batch never loops over ``call``.
        sabotage_tier(executable, _never_called, fields=("call",))
        X = self._batch(8, 7)
        np.testing.assert_allclose(
            executable.apply_many(X), np.fft.fft(X, axis=1), atol=1e-12)
        assert not executable.degraded

    def test_apply_many_reuses_scratch(self):
        # What the reused workspaces must never have shown through:
        # each call's result is its own memory — apart from the input,
        # from every other call's result and from any later call's.
        executable = build_executable(self._routine(), prefer="python")
        X = self._batch(8, 4)
        kept = X.copy()
        first = executable.apply_many(X)
        expected = first.copy()
        second = executable.apply_many(X + 1)
        third = executable.apply_many(self._batch(8, 6))
        results = [first, second, third]
        for i, a in enumerate(results):
            assert not np.shares_memory(a, X)
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(first, expected)  # not overwritten
        first[:] = 0.0  # the caller owns what it was given
        np.testing.assert_array_equal(executable.apply_many(X), expected)
        np.testing.assert_array_equal(X, kept)  # the input is only read

    def test_apply_many_rejects_wrong_shape(self):
        from repro.core.errors import SplSemanticError

        executable = build_executable(self._routine(), prefer="python")
        with pytest.raises(SplSemanticError):
            executable.apply_many(np.zeros((3, 5)))
        with pytest.raises(SplSemanticError):
            executable.apply_many(np.zeros(8))

    def test_apply_many_batch_of_one(self):
        executable = build_executable(self._routine(), prefer="numpy")
        X = self._batch(8, 1)
        np.testing.assert_allclose(executable.apply_many(X)[0],
                                   executable.apply(X[0]), atol=1e-12)

    @requires_cc
    def test_batch_driver_source_and_load(self, tmp_path):
        import ctypes

        from repro.perfeval.ccompile import (
            batch_driver_source,
            load_batch_function,
        )

        source = ("void twice(double *restrict y, "
                  "const double *restrict x) { y[0] = 2.0 * x[0]; }\n")
        source += batch_driver_source("twice", in_len=1, out_len=1)
        path = compile_shared_object(source, build_dir=tmp_path)
        batch_fn = load_batch_function(path, "twice")
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.ones((3, 1))  # driver must zero each row before running
        dp = ctypes.POINTER(ctypes.c_double)
        batch_fn(y.ctypes.data_as(dp), x.ctypes.data_as(dp), 3)
        np.testing.assert_allclose(y, [[2.0], [4.0], [6.0]])

    def test_there_is_one_plain_batch_driver(self):
        # No aligned, ``omp simd`` or OpenMP variant: a straight-line routine
        # and a looped one get the same driver text (names and lengths
        # aside) and the same flags.
        import re

        from repro.perfeval.ccompile import batch_driver_source
        from repro.perfeval.runner import c_build_spec

        text = batch_driver_source("f", in_len=8, out_len=8)
        assert "omp" not in text
        assert "SPL_ASSUME_ALIGNED" not in text
        drivers, flags = [], []
        for unroll, formula in ((True, "(F 8)"),
                                (False, "(tensor (I 4) (F 4))")):
            compiler = SplCompiler(CompilerOptions(codetype="real",
                                                   unroll=unroll))
            routine = compiler.compile_formula(formula, f"drv{unroll:d}",
                                               language="c")
            assert routine.program.is_straight_line() == unroll
            source, cflags = c_build_spec(routine)
            assert source.startswith(routine.source)
            driver = source[len(routine.source):]
            drivers.append(re.sub(r"\d+", "N", driver.replace(
                routine.name, "NAME")))
            flags.append(cflags)
        assert drivers[0] == drivers[1] and "spl_batch_NAME" in drivers[0]
        assert flags[0] == flags[1] == ()


class TestMemory:
    def test_accounting(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(T 16 4)", "m", language="c")
        report = routine_memory(routine)
        assert report.table_bytes == 32 * 8  # 16 complex -> 32 reals
        assert report.io_bytes == (16 + 16) * 2 * 8
        assert report.total_bytes == sum(
            (report.code_bytes, report.table_bytes, report.temp_bytes,
             report.io_bytes)
        )

    def test_as_dict(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(I 4)", "m2", language="c")
        data = routine_memory(routine).as_dict()
        assert set(data) == {"code", "tables", "temps", "io", "total"}


class TestAccuracy:
    def test_exact_fft_has_tiny_error(self):
        err = relative_error(np.fft.fft, 64)
        assert err < 1e-14

    def test_wrong_fft_detected(self):
        err = relative_error(lambda x: np.fft.fft(x) * 1.001, 64)
        assert err > 1e-4

    def test_error_grows_slowly_with_size(self):
        e_small = relative_error(np.fft.fft, 8)
        e_large = relative_error(np.fft.fft, 4096)
        assert e_large < 100 * max(e_small, 1e-17)

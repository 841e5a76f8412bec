"""Parallel execution: thread-safety, sharding, OpenMP, determinism.

The contract under test: one :class:`ExecutableRoutine` may be used
from any number of threads concurrently (scratch is per-thread), and
``apply_many(X, threads=N)`` is bit-identical to ``threads=1`` for
every backend, batch size and thread count — parallelism never changes
results, only wall-time.
"""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.ccompile import have_openmp
from repro.perfeval.runner import build_executable
from tests.conftest import requires_cc

requires_openmp = pytest.mark.skipif(
    not have_openmp(), reason="toolchain lacks OpenMP"
)


def _fft_executable(n=8, prefer="python", name=None):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(
        f"(F {n})", name or f"par{n}{prefer[0]}", language=prefer)
    return build_executable(routine, prefer=prefer)


def _real_executable(prefer="python"):
    """An element-width-1 (datatype real) routine: F2 x F2 x F2."""
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(
        "(tensor (F 2) (tensor (F 2) (F 2)))", f"parw{prefer[0]}",
        language=prefer, datatype="real")
    return build_executable(routine, prefer=prefer)


def _complex_batch(rows, n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, n))
            + 1j * rng.standard_normal((rows, n)))


_BACKENDS = ["python", "numpy",
              pytest.param("c", marks=requires_cc)]


class TestConcurrentCallers:
    """The stress tests that corrupted results before scratch became
    per-thread (one shared buffer, many writers)."""

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_concurrent_apply_is_uncorrupted(self, prefer):
        executable = _fft_executable(prefer=prefer)
        X = _complex_batch(8, 8, seed=1)
        expected = [executable.apply(x) for x in X]
        errors = []
        start = threading.Barrier(8)

        def hammer(i):
            try:
                start.wait()
                for _ in range(200):
                    got = executable.apply(X[i])
                    if not np.array_equal(got, expected[i]):
                        raise AssertionError(
                            f"thread {i}: corrupted result")
            except Exception as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_concurrent_apply_many_is_uncorrupted(self, prefer):
        executable = _fft_executable(prefer=prefer)
        batches = [_complex_batch(5, 8, seed=i) for i in range(4)]
        expected = [executable.apply_many(B) for B in batches]
        errors = []
        start = threading.Barrier(4)

        def hammer(i):
            try:
                start.wait()
                for _ in range(50):
                    got = executable.apply_many(batches[i])
                    if not np.array_equal(got, expected[i]):
                        raise AssertionError(
                            f"thread {i}: corrupted batch")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

    def test_scratch_is_per_thread(self):
        # What per-thread scratch existed for: two threads' calls share
        # memory neither with each other, nor with the input, nor with
        # any later call.
        executable = _fft_executable()
        x = np.arange(8, dtype=complex)
        mine = executable.apply(x)
        other = {}

        def grab():
            other["y"] = executable.apply(x)

        t = threading.Thread(target=grab)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        later = executable.apply(x)
        results = [mine, other["y"], later]
        for i, a in enumerate(results):
            assert not np.shares_memory(a, x)
            for b in results[i + 1:]:
                assert not np.shares_memory(a, b)
        expected = later.copy()
        mine[:] = -1.0  # the caller owns what it was given
        np.testing.assert_array_equal(other["y"], expected)
        np.testing.assert_array_equal(executable.apply(x), expected)
        np.testing.assert_array_equal(x, np.arange(8, dtype=complex))


class TestParallelDeterminism:
    """threads=N must be bit-identical to threads=1, not just close."""

    @pytest.mark.parametrize("prefer", _BACKENDS)
    @pytest.mark.parametrize("threads", [2, 4])
    def test_complex_fft_bit_identical(self, prefer, threads):
        executable = _fft_executable(n=16, prefer=prefer)
        X = _complex_batch(256, 16, seed=2)
        serial = executable.apply_many(X, threads=1)
        parallel = executable.apply_many(X, threads=threads)
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("prefer", _BACKENDS)
    @pytest.mark.parametrize("threads", [2, 4])
    def test_real_transform_bit_identical(self, prefer, threads):
        executable = _real_executable(prefer=prefer)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((512, 8))
        serial = executable.apply_many(X, threads=1)
        parallel = executable.apply_many(X, threads=threads)
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_threads_zero_means_per_cpu(self, prefer):
        executable = _fft_executable(n=16, prefer=prefer)
        X = _complex_batch(64, 16, seed=5)
        np.testing.assert_array_equal(
            executable.apply_many(X, threads=1),
            executable.apply_many(X, threads=0))

    def test_instance_default_threads(self):
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 16)", "pdef16",
                                           language="numpy")
        executable = build_executable(routine, prefer="numpy", threads=2)
        assert executable.threads == 2
        X = _complex_batch(256, 16, seed=6)
        np.testing.assert_array_equal(
            executable.apply_many(X),  # uses the instance default (2)
            executable.apply_many(X, threads=1))

    def test_small_batches_skip_parallel_dispatch(self):
        executable = _fft_executable()
        # 3 rows x 16 doubles is far below the element floor.
        assert executable._effective_threads(8, batch=3) == 1

    @requires_cc
    def test_fftw_parallel_bit_identical(self, tmp_path):
        from repro.fftw import FftwLibrary, Planner

        library = FftwLibrary()
        planner = Planner(library, min_time=0.001)
        transform = library.transform(planner.plan_estimate(64))
        X = _complex_batch(64, 64, seed=7)
        serial = transform.apply_many(X, threads=1)
        parallel = transform.apply_many(X, threads=4)
        np.testing.assert_array_equal(serial, parallel)
        np.testing.assert_allclose(serial, np.fft.fft(X, axis=1),
                                   atol=1e-8)


@requires_cc
class TestOpenMPDriver:
    @requires_openmp
    def test_omp_driver_loaded_and_used(self):
        executable = _fft_executable(n=16, prefer="c", name="omp16")
        assert executable.backend == "c"
        assert executable._tier.rows_omp is not None
        X = _complex_batch(256, 16, seed=8)
        np.testing.assert_array_equal(
            executable.apply_many(X, threads=1),
            executable.apply_many(X, threads=2))

    @requires_openmp
    def test_omp_driver_matches_reference(self):
        executable = _fft_executable(n=8, prefer="c", name="omp8")
        X = _complex_batch(512, 8, seed=9)
        np.testing.assert_allclose(
            executable.apply_many(X, threads=2),
            np.fft.fft(X, axis=1), atol=1e-12)

    def test_no_openmp_falls_back_to_sharding(self, monkeypatch):
        # Force the no-OpenMP path: the batch driver loses its omp
        # variant and threads>1 goes through the shared thread pool.
        from repro.perfeval import ccompile, runner

        monkeypatch.setattr(ccompile, "have_openmp", lambda: False)
        compiler = SplCompiler(CompilerOptions(codetype="real"))
        routine = compiler.compile_formula("(F 16)", "noomp16",
                                           language="c")
        executable = runner.build_executable(routine, prefer="c")
        assert executable.backend == "c"
        assert executable._tier.rows_omp is None
        X = _complex_batch(256, 16, seed=10)
        np.testing.assert_array_equal(
            executable.apply_many(X, threads=1),
            executable.apply_many(X, threads=2))

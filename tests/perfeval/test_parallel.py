"""Concurrent callers and batch-split determinism.

Two contracts are under test.  One :class:`ExecutableRoutine` may be
used from any number of threads concurrently (a call shares no mutable
state with any other), which the batch dispatcher's worker thread and
direct library users both rely on.  And a row's result does not depend
on the batch it rides in: the dispatcher coalesces whatever requests
are queued into one ``apply_many`` call, and a fleet spreads requests
over worker processes, so ``apply_many`` on any split of a batch must
be bit-identical to ``apply_many`` on the whole, and to ``apply`` on
each row — not just close.
"""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from tests.conftest import requires_cc


def _fft_executable(n=8, prefer="python"):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(F {n})", f"par{n}{prefer[0]}",
                                       language=prefer)
    return build_executable(routine, prefer=prefer)


def _real_executable(prefer="python"):
    """An element-width-1 (datatype real) routine: F2 x F2 x F2."""
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(
        "(tensor (F 2) (tensor (F 2) (F 2)))", f"parw{prefer[0]}",
        language=prefer, datatype="real")
    return build_executable(routine, prefer=prefer)


def _split_apply_many(executable, X, parts):
    """``apply_many`` over ``parts`` nearly equal slices of ``X``, in
    order, concatenated."""
    return np.concatenate([executable.apply_many(part)
                           for part in np.array_split(X, parts)])


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


class TestBatchSplitDeterminism:
    """A batch split into ``parts`` calls gives the whole batch's bits."""

    @pytest.mark.parametrize("prefer", _BACKENDS)
    @pytest.mark.parametrize("parts", [2, 4])
    def test_complex_fft_bit_identical(self, prefer, parts):
        executable = _fft_executable(n=16, prefer=prefer)
        X = _complex_batch(256, 16, seed=2)
        whole = executable.apply_many(X)
        np.testing.assert_array_equal(
            whole, _split_apply_many(executable, X, parts))
        np.testing.assert_allclose(whole, np.fft.fft(X, axis=1),
                                   atol=1e-9)

    @pytest.mark.parametrize("prefer", _BACKENDS)
    @pytest.mark.parametrize("parts", [2, 4])
    def test_real_transform_bit_identical(self, prefer, parts):
        executable = _real_executable(prefer=prefer)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((512, 8))
        np.testing.assert_array_equal(
            executable.apply_many(X),
            _split_apply_many(executable, X, parts))

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_rows_match_single_vector_apply(self, prefer):
        executable = _fft_executable(n=16, prefer=prefer)
        X = _complex_batch(64, 16, seed=5)
        np.testing.assert_array_equal(
            executable.apply_many(X),
            np.stack([executable.apply(x) for x in X]))

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_rows_are_written_over_whatever_the_output_held(self, prefer):
        # apply_many hands the tier an uninitialized output: every
        # backend's batch path zeroes each row before it accumulates.
        executable = _fft_executable(n=16, prefer=prefer)
        X = _complex_batch(32, 16, seed=6)
        expected = executable.apply_many(X)
        Y = np.full_like(expected, np.nan)
        executable._tier.rows(executable._physical(Y),
                              executable._physical(X))
        np.testing.assert_array_equal(Y, expected)

    @pytest.mark.parametrize("prefer", _BACKENDS)
    def test_empty_batch(self, prefer):
        executable = _fft_executable(n=16, prefer=prefer)
        Y = executable.apply_many(np.empty((0, 16), dtype=complex))
        assert Y.shape == (0, 16) and Y.dtype == np.complex128

    @requires_cc
    @pytest.mark.parametrize("n", [16, 64])
    def test_fftw_split_bit_identical(self, n):
        from repro.fftw import FftwLibrary, Planner

        library = FftwLibrary()
        planner = Planner(library, min_time=0.001)
        transform = library.transform(planner.plan_estimate(n))
        X = _complex_batch(64, n, seed=7)
        whole = transform.apply_many(X)
        np.testing.assert_array_equal(
            whole, np.concatenate([transform.apply_many(part)
                                   for part in np.array_split(X, 4)]))
        np.testing.assert_array_equal(
            whole, np.stack([transform.apply(x) for x in X]))
        np.testing.assert_allclose(whole, np.fft.fft(X, axis=1),
                                   atol=1e-8)

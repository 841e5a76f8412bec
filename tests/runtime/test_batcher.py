"""Tests for the threadless batch core (``Batcher``) the server runs on
its event loop: no thread, no lock, and the same batch rule as the
threaded ``BatchDispatcher`` built on it."""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from repro.runtime import Batcher, DispatcherClosed


def _executable(n=16, prefer="numpy", datatype=None):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(
        f"(F {n})", f"batcher{n}{prefer[0]}{(datatype or 'c')[0]}",
        language=prefer, datatype=datatype)
    return build_executable(routine, prefer=prefer)


def _vectors(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, n))
            + 1j * rng.standard_normal((count, n)))


class _Poisonable:
    """Refuses any batch holding a NaN; counts the rows of each call."""

    def __init__(self, executable):
        self._inner = executable
        self.n = executable.n
        self.dtype = executable.dtype
        self.calls = []

    def apply_many(self, X):
        self.calls.append(len(X))
        if np.isnan(X.real).any():
            raise ValueError("poisoned vector")
        return self._inner.apply_many(X)


class TestBatchRule:
    @pytest.mark.parametrize("prefer", ["numpy", "c"])
    def test_64_rows_resolve_bit_identically_to_64_applies(self, prefer):
        executable = _executable(prefer=prefer)
        X = _vectors(16, 64, seed=1)
        batcher = Batcher(executable, max_batch=64)
        requests = [batcher.submit(x) for x in X]
        assert not any(request.resolved for request in requests)
        batcher.run()
        for x, request in zip(X, requests):
            assert request.error is None
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))
        # Each row is a view of the one batch result, not a copy.
        assert len({id(request.result.base) for request in requests}) == 1
        stats = batcher.stats
        assert (stats.batches, stats.size_flushes) == (1, 1)
        assert stats.coalesced_requests == 64

    def test_run_takes_at_most_max_batch_rows_per_call(self):
        target = _Poisonable(_executable())
        batcher = Batcher(target, max_batch=64)
        for x in _vectors(16, 130, seed=2):
            batcher.submit(x)
        batcher.run()
        assert target.calls == [64, 64, 2]
        stats = batcher.stats
        assert (stats.requests, stats.batches, stats.max_batch) == \
            (130, 3, 64)
        assert (stats.size_flushes, stats.deadline_flushes) == (2, 1)
        batcher.run()  # nothing pending: no call
        assert target.calls == [64, 64, 2]

    def test_a_request_runs_on_the_callers_thread_and_hooks_once(self):
        batcher = Batcher(_executable(), max_batch=4)
        seen = []
        request = batcher.submit(
            _vectors(16, 1, seed=3)[0],
            lambda r: seen.append((r, threading.current_thread())))
        batcher.run()
        assert seen == [(request, threading.current_thread())]
        assert request.on_done is None


class TestIsolation:
    def test_a_failed_batch_is_split_per_request(self):
        executable = _executable()
        target = _Poisonable(executable)
        X = _vectors(16, 5, seed=4)
        X[2, 1] = np.nan
        batcher = Batcher(target, max_batch=8)
        requests = [batcher.submit(x) for x in X]
        batcher.run()
        assert target.calls == [5, 1, 1, 1, 1, 1]
        assert isinstance(requests[2].error, ValueError)
        assert requests[2].result is None
        for i in (0, 1, 3, 4):
            np.testing.assert_array_equal(requests[i].result,
                                          executable.apply(X[i]))
        stats = batcher.stats
        assert stats.isolation_splits == 1
        assert stats.retried_requests == 5
        assert stats.failed_requests == 1
        # Nobody was served by the shared call that failed.
        assert stats.coalesced_requests == 0

    def test_a_lone_failure_is_not_a_split(self):
        target = _Poisonable(_executable())
        batcher = Batcher(target)
        request = batcher.submit(np.full(16, np.nan, dtype=complex))
        batcher.run()
        assert isinstance(request.error, ValueError)
        stats = batcher.stats
        assert (stats.isolation_splits, stats.retried_requests,
                stats.failed_requests) == (0, 0, 1)


class TestStatsSemantics:
    def test_flush_counters_sum_to_batches(self):
        target = _Poisonable(_executable())
        batcher = Batcher(target, max_batch=4)
        X = _vectors(16, 11, seed=5)
        X[9, 0] = np.nan  # poisons the third batch of 3
        for x in X:
            batcher.submit(x)
        batcher.run()
        stats = batcher.stats
        assert stats.batches == 3
        assert stats.batches == (stats.size_flushes
                                 + stats.deadline_flushes
                                 + stats.close_flushes)
        assert stats.close_flushes == 0
        assert stats.coalesced_requests == 8  # the two clean batches
        # Calls reaching the target: one per batch plus each retry.
        assert len(target.calls) == stats.batches + stats.retried_requests

    def test_stats_is_a_copy(self):
        batcher = Batcher(_executable())
        before = batcher.stats
        batcher.submit(_vectors(16, 1)[0])
        assert before.requests == 0 and batcher.stats.requests == 1


class TestDtypeValidation:
    def test_unsafe_dtype_rejected_at_submit(self):
        executable = _executable(datatype="real")
        batcher = Batcher(executable)
        with pytest.raises(ValueError, match="cannot safely cast"):
            batcher.submit(np.zeros(executable.n, dtype=np.complex128))
        with pytest.raises(ValueError, match="expected a"):
            batcher.submit(np.zeros(executable.n + 1))
        assert batcher.stats.requests == 0  # rejected before enqueue

    def test_a_mixed_batch_is_upcast_per_request(self):
        executable = _executable()
        x = _vectors(16, 1, seed=6)[0]
        real = np.arange(16, dtype=np.float64)
        batcher = Batcher(executable)
        requests = [batcher.submit(x), batcher.submit(real)]
        batcher.run()
        np.testing.assert_array_equal(requests[0].result,
                                      executable.apply(x))
        np.testing.assert_array_equal(
            requests[1].result, executable.apply(real.astype(complex)))


class TestCancel:
    def test_cancel_resolves_pending_with_dispatcher_closed(self):
        batcher = Batcher(_executable())
        requests = [batcher.submit(x) for x in _vectors(16, 3, seed=7)]
        assert batcher.cancel() == 3
        for request in requests:
            assert isinstance(request.error, DispatcherClosed)
        batcher.run()  # nothing left to run
        stats = batcher.stats
        assert (stats.cancelled_requests, stats.batches) == (3, 0)

"""Tests for the dynamic request batcher (BatchDispatcher)."""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from repro.runtime import BatchDispatcher


def _executable(n=8, prefer="numpy"):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(F {n})", f"disp{n}{prefer[0]}",
                                       language=prefer)
    return build_executable(routine, prefer=prefer)


def _vectors(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((count, n))
            + 1j * rng.standard_normal((count, n)))


class _CountingTarget:
    """Wraps an executable, counting apply_many calls and batch sizes."""

    def __init__(self, executable):
        self._inner = executable
        self.n = executable.n
        self.calls = []

    def apply_many(self, X):
        self.calls.append(X.shape[0])
        return self._inner.apply_many(X)


class TestCoalescing:
    def test_concurrent_requests_share_one_batch(self):
        executable = _executable()
        target = _CountingTarget(executable)
        X = _vectors(8, 6)
        barrier = threading.Barrier(6)
        results = [None] * 6
        # A generous delay so all 6 requests land within one window.
        with BatchDispatcher(target, max_batch=6, max_delay=0.25) as d:

            def client(i):
                barrier.wait()
                results[i] = d.apply(X[i])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = d.stats
        # All six went through strictly fewer apply_many calls, and at
        # least one call served >= 2 requests (the acceptance check).
        assert stats.requests == 6
        assert stats.batches < 6
        assert stats.max_batch >= 2
        assert stats.coalesced_requests >= 2
        assert max(target.calls) >= 2
        for i in range(6):
            np.testing.assert_array_equal(results[i], executable.apply(X[i]))

    def test_bit_identical_to_serial_apply(self):
        for prefer in ("python", "numpy"):
            executable = _executable(prefer=prefer)
            X = _vectors(8, 16, seed=3)
            with BatchDispatcher(executable, max_batch=4,
                                 max_delay=0.01) as d:
                outs = [None] * 16

                def client(i):
                    outs[i] = d.apply(X[i])

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            for i in range(16):
                np.testing.assert_array_equal(
                    outs[i], executable.apply(X[i]))

    def test_size_flush_at_max_batch(self):
        executable = _executable()
        X = _vectors(8, 4)
        with BatchDispatcher(executable, max_batch=2, max_delay=10.0) as d:
            outs = [None] * 4

            def client(i):
                outs[i] = d.apply(X[i])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = d.stats
        # A 10s deadline can't have fired; only size flushes drained it.
        assert stats.size_flushes >= 1
        assert stats.deadline_flushes == 0
        assert stats.max_batch <= 2
        for i in range(4):
            np.testing.assert_array_equal(outs[i], executable.apply(X[i]))

    def test_lone_request_flushes_by_deadline(self):
        executable = _executable()
        x = _vectors(8, 1)[0]
        with BatchDispatcher(executable, max_batch=64,
                             max_delay=0.005) as d:
            start = time.monotonic()
            y = d.apply(x)
            elapsed = time.monotonic() - start
            stats = d.stats
        assert elapsed < 2.0  # did not wait for a full batch
        assert stats.deadline_flushes == 1
        np.testing.assert_array_equal(y, executable.apply(x))


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_requests(self):
        executable = _executable()
        d = BatchDispatcher(executable)
        d.close()
        d.close()
        with pytest.raises(RuntimeError):
            d.apply(_vectors(8, 1)[0])

    def test_wrong_shape_rejected_without_enqueue(self):
        executable = _executable()
        with BatchDispatcher(executable) as d:
            with pytest.raises(ValueError):
                d.apply(np.zeros(5))
            assert d.stats.requests == 0

    def test_execution_error_propagates_to_caller(self):
        class Exploding:
            n = 8

            def apply_many(self, X):
                raise RuntimeError("backend exploded")

        with BatchDispatcher(Exploding(), max_delay=0.001) as d:
            with pytest.raises(RuntimeError, match="backend exploded"):
                d.apply(np.zeros(8))
        # The worker survives an erroring batch until close().

    def test_invalid_parameters_rejected(self):
        executable = _executable()
        with pytest.raises(ValueError):
            BatchDispatcher(executable, max_batch=0)
        with pytest.raises(ValueError):
            BatchDispatcher(executable, max_delay=-1.0)


class TestShutdownSemantics:
    def test_submit_after_close_raises_dispatcher_closed(self):
        from repro.runtime import DispatcherClosed

        executable = _executable()
        d = BatchDispatcher(executable)
        d.close()
        with pytest.raises(DispatcherClosed):
            d.apply(_vectors(8, 1)[0])

    def test_close_drains_pending_requests(self):
        executable = _executable()
        X = _vectors(8, 3)
        # A huge deadline: nothing flushes until close() drains it.
        d = BatchDispatcher(executable, max_batch=64, max_delay=30.0)
        outs = [None] * 3
        threads = [threading.Thread(target=lambda i=i: outs.__setitem__(
            i, d.apply(X[i]))) for i in range(3)]
        for t in threads:
            t.start()
        while d.stats.requests < 3:
            time.sleep(0.001)
        start = time.monotonic()
        d.close()  # drain=True: pending requests execute as final batches
        assert time.monotonic() - start < 5.0
        for t in threads:
            t.join()
        assert d.stats.close_flushes >= 1
        for i in range(3):
            np.testing.assert_array_equal(outs[i], executable.apply(X[i]))

    def test_close_without_drain_cancels_with_dispatcher_closed(self):
        from repro.runtime import DispatcherClosed

        executable = _executable()

        class Gated:
            """Blocks the worker inside the first batch until released."""

            n = executable.n

            def __init__(self):
                self.started = threading.Event()
                self.release = threading.Event()

            def apply_many(self, X):
                self.started.set()
                assert self.release.wait(30)
                return executable.apply_many(X)

        target = Gated()
        d = BatchDispatcher(target, max_batch=1, max_delay=0.0)
        X = _vectors(8, 3)
        outcomes = [None] * 3

        def client(i):
            try:
                outcomes[i] = ("ok", d.apply(X[i]))
            except DispatcherClosed as exc:
                outcomes[i] = ("closed", exc)

        first = threading.Thread(target=client, args=(0,))
        first.start()
        assert target.started.wait(10)  # worker now stuck in batch 0
        rest = [threading.Thread(target=client, args=(i,))
                for i in (1, 2)]
        for t in rest:
            t.start()
        while d.stats.requests < 3:
            time.sleep(0.001)
        closer = threading.Thread(target=d.close, args=(False,))
        closer.start()
        # The pending (never-executed) requests resolve immediately
        # with DispatcherClosed even while the worker is still blocked.
        for t in rest:
            t.join(10)
            assert not t.is_alive()
        assert outcomes[1][0] == "closed"
        assert outcomes[2][0] == "closed"
        target.release.set()  # let the in-flight batch finish
        first.join(10)
        closer.join(10)
        assert not first.is_alive() and not closer.is_alive()
        assert outcomes[0][0] == "ok"
        np.testing.assert_array_equal(outcomes[0][1], executable.apply(X[0]))
        assert d.stats.cancelled_requests == 2

    def test_no_request_outlives_a_dead_worker(self):
        from repro.runtime import DispatcherClosed
        from repro.runtime.dispatcher import _Request

        executable = _executable()
        d = BatchDispatcher(executable, max_batch=64, max_delay=30.0)
        # Simulate requests stranded when the worker exits: inject them
        # behind the worker's back, then close with drain=False.
        hooked = threading.Event()
        stranded = _Request(np.zeros(8, dtype=complex),
                            on_done=lambda _request: hooked.set())
        with d._lock:
            d._pending.append(stranded)
        d.close(drain=False)
        assert hooked.is_set() and stranded.resolved
        assert isinstance(stranded.error, DispatcherClosed)


class TestFaultIsolation:
    class Poisonable:
        """Raises on any vector whose first element is NaN."""

        def __init__(self, executable):
            self._inner = executable
            self.n = executable.n

        def apply_many(self, X):
            if np.isnan(X[:, 0].real).any():
                raise ValueError("poisoned vector")
            return self._inner.apply_many(X)

    def test_poisoned_request_fails_alone(self):
        executable = _executable()
        target = self.Poisonable(executable)
        X = _vectors(8, 4)
        poison = X[2].copy()
        poison[0] = np.nan
        vectors = [X[0], X[1], poison, X[3]]
        outcomes = [None] * 4
        barrier = threading.Barrier(4)
        with BatchDispatcher(target, max_batch=4, max_delay=0.25) as d:

            def client(i):
                barrier.wait()
                try:
                    outcomes[i] = ("ok", d.apply(vectors[i]))
                except ValueError as exc:
                    outcomes[i] = ("error", exc)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = d.stats
        # Exactly the poisoned caller saw the error...
        assert outcomes[2][0] == "error"
        assert "poisoned" in str(outcomes[2][1])
        # ... everyone else got their correct row.
        for i in (0, 1, 3):
            assert outcomes[i][0] == "ok"
            np.testing.assert_array_equal(outcomes[i][1],
                                          executable.apply(vectors[i]))
        assert stats.failed_requests == 1
        if stats.max_batch >= 2:
            # When coalescing actually happened, the failed batch was
            # split and retried per-request.
            assert stats.isolation_splits >= 1

    def test_single_request_error_not_counted_as_split(self):
        executable = _executable()
        target = self.Poisonable(executable)
        poison = np.zeros(8, dtype=complex)
        poison[0] = np.nan
        with BatchDispatcher(target, max_batch=1, max_delay=0.0) as d:
            with pytest.raises(ValueError, match="poisoned"):
                d.apply(poison)
            good = _vectors(8, 1)[0]
            np.testing.assert_array_equal(d.apply(good),
                                          executable.apply(good))
            stats = d.stats
        assert stats.isolation_splits == 0
        assert stats.failed_requests == 1


class _GateTarget:
    """Wraps an executable; holds every batch until released.

    ``entered`` fires when the first batch reaches ``apply_many``;
    ``batches`` lists the sizes that did, in order."""

    def __init__(self, executable):
        self._inner = executable
        self.n = executable.n
        self.release = threading.Event()
        self.entered = threading.Event()
        self.batches = []

    def apply_many(self, X):
        self.batches.append(X.shape[0])
        self.entered.set()
        assert self.release.wait(60), "gate never released"
        return self._inner.apply_many(X)


class TestWorkConservation:
    """Default construction: what is pending when the worker is idle
    is the batch.  No timer is involved, so none of these sleeps."""

    def test_lone_request_on_an_idle_dispatcher_runs_at_once(self):
        executable = _executable()
        gate = _GateTarget(executable)
        x = _vectors(8, 1, seed=11)[0]
        with BatchDispatcher(gate) as d:
            assert d.max_delay == 0.0
            done = threading.Event()
            request = d.submit(x, lambda _request: done.set())
            # No second submit, no linger: the kernel is reached.
            assert gate.entered.wait(30.0)
            assert gate.batches == [1]
            gate.release.set()
            assert done.wait(30.0)
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))
            stats = d.stats
        assert stats.batches == stats.deadline_flushes == 1

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_the_queue_behind_a_busy_kernel_is_the_next_batch(self, k):
        max_batch = 4
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 1 + k, seed=12)
        with BatchDispatcher(gate, max_batch=max_batch) as d:
            requests = [d.submit(X[0])]
            assert gate.entered.wait(30.0)  # batch 1 holds the worker
            requests += [d.submit(x) for x in X[1:]]
            gate.release.set()
            assert d.wait_idle(timeout=30.0) is True
            stats = d.stats
        first = min(k, max_batch)
        rest = [k - first] if k > first else []
        assert gate.batches == [1, first] + rest
        assert stats.batches == 2 + len(rest)
        assert stats.max_batch == first
        assert stats.coalesced_requests == sum(
            b for b in gate.batches if b >= 2)
        assert stats.size_flushes == (1 if k >= max_batch else 0)
        assert stats.batches == (stats.size_flushes
                                 + stats.deadline_flushes
                                 + stats.close_flushes)
        for x, request in zip(X, requests):
            np.testing.assert_array_equal(request.result,
                                          executable.apply(x))


class TestDrainHooks:
    """wait_idle / unresolved_count — the server drain's foundation."""

    def test_idle_dispatcher_is_immediately_idle(self):
        with BatchDispatcher(_executable(), max_batch=4,
                             max_delay=0.01) as d:
            assert d.unresolved_count == 0
            assert d.wait_idle(timeout=0.1) is True

    def test_wait_idle_blocks_until_inflight_resolves(self):
        executable = _executable()
        gate = _GateTarget(executable)
        X = _vectors(8, 3, seed=5)
        with BatchDispatcher(gate, max_batch=4, max_delay=0.01) as d:
            requests = [d.submit(x) for x in X]
            assert d.unresolved_count == 3
            assert d.wait_idle(timeout=0.15) is False  # gate held
            gate.release.set()
            assert d.wait_idle(timeout=30.0) is True
            assert d.unresolved_count == 0
            for x, request in zip(X, requests):
                assert request.error is None
                np.testing.assert_array_equal(request.result,
                                              executable.apply(x))

    def test_failed_requests_also_resolve_idleness(self):
        class Exploding:
            def __init__(self, executable):
                self.n = executable.n

            def apply_many(self, X):
                raise RuntimeError("boom")

        with BatchDispatcher(Exploding(_executable()), max_batch=4,
                             max_delay=0.01) as d:
            request = d.submit(_vectors(8, 1, seed=6)[0])
            assert d.wait_idle(timeout=30.0) is True
            assert isinstance(request.error, RuntimeError)

    @pytest.mark.parametrize(
        "path", ["batch-ok", "single-fail", "split-ok", "split-fail"])
    def test_wait_idle_waits_for_the_result_and_its_hook(self, path):
        """Publish first, count idle second — on every resolve path.
        An ``on_done`` hook that is still running means the request is
        not answered yet, so ``wait_idle`` must not return."""
        executable = _executable()
        gate = _GateTarget(TestFaultIsolation.Poisonable(executable))
        good = _vectors(8, 1, seed=8)[0]
        poison = good.copy()
        poison[0] = np.nan
        split, bad = path.startswith("split"), path.endswith("fail")
        hook_entered, hook_release = threading.Event(), threading.Event()

        def blocking_hook(request):
            hook_entered.set()
            hook_release.wait(30.0)

        with BatchDispatcher(gate, max_batch=4) as d:
            if split:
                d.submit(good)  # holds the worker at the gate, so the
                assert gate.entered.wait(30.0)  # next two share a batch
                d.submit(good if bad else poison)  # which fails
            # Last in, last retried: nothing else is left unresolved
            # while the hook runs.
            hooked = d.submit(poison if bad else good, blocking_hook)
            gate.release.set()
            assert hook_entered.wait(30.0)
            try:
                assert d.wait_idle(timeout=0.1) is False
            finally:
                hook_release.set()
            assert d.wait_idle(timeout=30.0) is True
            assert (hooked.error is not None) == bad
            assert (hooked.result is None) == bad
            assert d.stats.isolation_splits == (1 if split else 0)

    def test_a_resolved_request_lets_go_of_its_hook(self):
        """The usual hook holds the caller's future, and the future's
        result is the request: kept, that is one reference cycle per
        request for the cyclic collector to find — in pauses, under
        traffic.  Dropped after its one call, plain reference counting
        frees everything."""
        class Caller:
            request = None

        caller = Caller()

        def hook(request, caller=caller):
            caller.request = request

        died = weakref.ref(caller)
        gc.disable()
        try:
            with BatchDispatcher(_executable(), max_batch=4) as d:
                request = d.submit(_vectors(8, 1, seed=9)[0], hook)
                assert d.wait_idle(timeout=30.0) is True
            assert caller.request is request and request.on_done is None
            del caller, hook, request
            assert died() is None
        finally:
            gc.enable()

    def test_cancelled_requests_resolve_idleness(self):
        gate = _GateTarget(_executable())
        with BatchDispatcher(gate, max_batch=1, max_delay=5.0) as d:
            d.submit(_vectors(8, 1, seed=7)[0])
            gate.release.set()
            d.close(drain=False)
            assert d.wait_idle(timeout=30.0) is True

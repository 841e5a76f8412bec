"""Stress tests for the circuit-breaker race in ExecutableRoutine.

``_degrade`` used to mutate breaker state and splice the backend
callables with no lock while ``apply``/``apply_many`` ran on many
threads.  Two callers faulting concurrently would *both* walk the
fallback chain: the first consumed the fallback, the second found the
chain empty and re-raised — an exception escaping even though a
healthy fallback existed — and the failure list recorded a double
trip.  These tests fault many threads simultaneously (a barrier inside
the sabotaged callable guarantees the overlap) and assert exactly one
trip, zero escaped exceptions, and correct results for every caller.
"""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.runner import build_executable
from tests.conftest import sabotage_tier

N_THREADS = 8
ROUNDS = 5


def _build(n=8, tag=""):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(F {n})", f"race{n}{tag}",
                                       language="numpy")
    executable = build_executable(routine, prefer="numpy")
    assert executable.backend == "numpy"
    assert executable.fallback_chain == ("python",)
    return executable


def _sabotage_with_barrier(executable, parties):
    """Every current-backend callable blocks until ``parties`` callers
    are inside it, then all raise together — the widest possible
    degradation race window."""
    barrier = threading.Barrier(parties)

    def explode(*args, **kwargs):
        barrier.wait(timeout=30)
        raise OSError("simultaneous native fault")

    sabotage_tier(executable, explode)
    return barrier


class TestConcurrentDegradation:
    def test_concurrent_apply_faults_trip_breaker_once(self):
        for round_no in range(ROUNDS):
            executable = _build(tag=f"a{round_no}")
            _sabotage_with_barrier(executable, N_THREADS)
            x = (np.arange(8) + 1j * np.arange(8))
            expected = np.fft.fft(x)
            results = [None] * N_THREADS
            errors = [None] * N_THREADS

            def worker(i):
                try:
                    results[i] = executable.apply(x)
                except Exception as exc:  # noqa: BLE001 - the bug
                    errors[i] = exc

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            # No caller may see an exception: a fallback existed.
            assert errors == [None] * N_THREADS, (
                f"escaped exceptions: {[e for e in errors if e]}"
            )
            for result in results:
                np.testing.assert_allclose(result, expected, atol=1e-9)
            # Exactly one trip for the faulted tier, not one per caller.
            assert executable.backend == "python"
            trips = [f for f in executable.backend_failures
                     if f.backend == "numpy"]
            assert len(trips) == 1, (
                f"breaker double-tripped: {executable.backend_failures}"
            )
            assert len(executable.backend_failures) == 1
            assert executable.fallback_chain == ()

    def test_concurrent_apply_many_faults_trip_breaker_once(self):
        for round_no in range(ROUNDS):
            executable = _build(tag=f"m{round_no}")
            _sabotage_with_barrier(executable, N_THREADS)
            rng = np.random.default_rng(round_no)
            X = (rng.standard_normal((4, 8))
                 + 1j * rng.standard_normal((4, 8)))
            expected = np.fft.fft(X, axis=1)
            errors = [None] * N_THREADS
            results = [None] * N_THREADS

            def worker(i):
                try:
                    results[i] = executable.apply_many(X)
                except Exception as exc:  # noqa: BLE001 - the bug
                    errors[i] = exc

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert errors == [None] * N_THREADS
            for result in results:
                np.testing.assert_allclose(result, expected, atol=1e-9)
            assert executable.backend == "python"
            assert len(executable.backend_failures) == 1

    def test_exhausted_chain_still_raises_exactly_once_per_caller(self):
        """When *every* tier is broken the original error must still
        surface to each caller (no silent swallowing by the lost-race
        path)."""
        executable = _build(tag="x")
        barrier = _sabotage_with_barrier(executable, N_THREADS)

        # Break the python tier too, so the chain exhausts.
        import repro.perfeval.runner as runner_mod

        def broken_build(routine):
            raise RuntimeError("python tier unavailable")

        original = runner_mod._FALLBACK_BUILDERS["python"]
        runner_mod._FALLBACK_BUILDERS["python"] = broken_build
        try:
            x = np.arange(8) + 1j * np.arange(8)
            outcomes = [None] * N_THREADS

            def worker(i):
                try:
                    executable.apply(x)
                    outcomes[i] = "ok"
                except OSError:
                    outcomes[i] = "fault"
                except Exception:  # noqa: BLE001
                    outcomes[i] = "other"

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            runner_mod._FALLBACK_BUILDERS["python"] = original
        # Everyone faulted (the chain was exhausted)...
        assert all(kind == "fault" for kind in outcomes), outcomes
        # ...but the *trip* was still recorded only once per tier.
        numpy_trips = [f for f in executable.backend_failures
                       if f.backend == "numpy" and f.op == "apply"]
        assert len(numpy_trips) == 1

    def test_thirty_two_simultaneous_faults_record_one_failure(self):
        """More faulters than cores, a short switch interval: exactly
        one ``BackendFailure`` for the tier, an answer for everyone."""
        import sys

        parties = 32
        executable = _build(tag="w")
        _sabotage_with_barrier(executable, parties)
        x = np.arange(8) * (1 - 1j)
        results = [None] * parties
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: results.__setitem__(
                        i, executable.apply(x)))
                for i in range(parties)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            np.testing.assert_allclose(result, np.fft.fft(x), atol=1e-9)
        assert executable.backend == "python"
        assert [(f.backend, f.op) for f in executable.backend_failures] \
            == [("numpy", "apply")]

    def test_swap_during_a_batch_keeps_every_row_on_one_tier(self):
        """``apply_many`` reads the tier once: a breaker trip that
        lands while its rows run does not move the call onto the new
        tier."""
        executable = _build(n=64, tag="s")
        numpy_rows = executable._tier.rows
        served = []

        def rows(Yp, Xp):
            assert executable.trip(RuntimeError("mid-call"))
            served.append(len(Yp))
            numpy_rows(Yp, Xp)

        sabotage_tier(executable, rows, fields=("rows",))
        rng = np.random.default_rng(6)
        X = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        Y = executable.apply_many(X)
        assert executable.backend == "python"  # the trip did happen
        assert served == [64]  # ...and moved no row
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=1), atol=1e-8)

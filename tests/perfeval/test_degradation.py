"""Tests for the per-backend circuit breaker in ExecutableRoutine.

A backend whose call raises at runtime must trip its breaker and the
call must transparently retry down the ``c > numpy > python`` chain —
the caller sees a correct (slower) answer, never an exception, until
the last backend fails too.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval.jit import jit_supported
from repro.perfeval.runner import _PREFERENCE, build_executable
from tests.conftest import HAS_CC, requires_cc, sabotage_tier


def _build(n=8, prefer="numpy"):
    compiler = SplCompiler(CompilerOptions(codetype="real"))
    routine = compiler.compile_formula(f"(F {n})", f"deg{n}{prefer[0]}",
                                       language="c")
    return build_executable(routine, prefer=prefer)


def _sabotage(executable, *, message="native fault"):
    """Replace every current-backend callable with a raiser."""

    def explode(*args, **kwargs):
        raise OSError(message)

    sabotage_tier(executable, explode)


class TestDegradation:
    def test_apply_degrades_to_python_and_stays_correct(self):
        executable = _build(prefer="numpy")
        assert executable.backend == "numpy"
        assert executable.fallback_chain == ("python",)
        _sabotage(executable)
        x = np.arange(8) + 1j * np.arange(8)
        y = executable.apply(x)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
        assert executable.backend == "python"
        assert executable.degraded
        assert executable.fallback_chain == ()

    def test_apply_many_degrades_and_stays_correct(self):
        executable = _build(prefer="numpy")
        _sabotage(executable)
        X = (np.random.default_rng(2).standard_normal((5, 8))
             + 1j * np.random.default_rng(3).standard_normal((5, 8)))
        Y = executable.apply_many(X)
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=1), atol=1e-9)
        assert executable.backend == "python"

    def test_failure_recorded_in_stats(self):
        executable = _build(prefer="numpy")
        _sabotage(executable, message="marshalling fault")
        executable.apply(np.zeros(8, dtype=complex))
        stats = executable.stats()
        assert stats["degraded"] is True
        assert stats["backend"] == "python"
        assert stats["fallbacks_left"] == ()
        assert len(stats["failures"]) == 1
        failure = stats["failures"][0]
        assert failure["backend"] == "numpy"
        assert failure["op"] == "apply"
        assert "marshalling fault" in failure["error"]

    def test_exhausted_chain_reraises(self):
        executable = _build(prefer="python")
        assert executable.fallback_chain == ()
        _sabotage(executable, message="last tier down")
        with pytest.raises(OSError, match="last tier down"):
            executable.apply(np.zeros(8, dtype=complex))
        assert executable.degraded  # the trip was still recorded

    def test_held_references_degrade_together(self):
        # The breaker splices the fallback into the *same* object, so
        # a reference captured before the fault keeps working.
        executable = _build(prefer="numpy")
        held = executable
        _sabotage(executable)
        executable.apply(np.zeros(8, dtype=complex))
        x = np.arange(8, dtype=complex)
        np.testing.assert_allclose(held.apply(x), np.fft.fft(x),
                                   atol=1e-9)
        assert held.backend == "python"

    def test_healthy_executable_reports_clean_stats(self):
        executable = _build(prefer="numpy")
        x = np.arange(8, dtype=complex)
        executable.apply(x)
        stats = executable.stats()
        assert stats["degraded"] is False
        assert stats["failures"] == []


@requires_cc
class TestNativeDegradation:
    def test_c_backend_degrades_to_numpy(self):
        executable = _build(prefer="c")
        assert executable.backend == "c"
        assert executable.fallback_chain == ("numpy", "python")
        _sabotage(executable, message="so unloadable")
        x = np.arange(8) + 1j * np.ones(8)
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-9)
        assert executable.backend == "numpy"
        assert executable.fallback_chain == ("python",)
        # A second fault walks one further down the chain.
        _sabotage(executable, message="numpy fault")
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-9)
        assert executable.backend == "python"
        trips = [f["backend"] for f in executable.stats()["failures"]]
        assert trips == ["c", "numpy"]

    def test_c_batch_path_degrades_mid_batch(self):
        executable = _build(prefer="c")
        _sabotage(executable, message="batch driver fault")
        X = (np.random.default_rng(4).standard_normal((6, 8))
             + 1j * np.random.default_rng(5).standard_normal((6, 8)))
        Y = executable.apply_many(X)
        np.testing.assert_allclose(Y, np.fft.fft(X, axis=1), atol=1e-9)
        assert executable.backend in ("numpy", "python")


class _CountingLock:
    """Stands in for ``_swap_lock`` and counts how often it is taken."""

    def __init__(self, lock):
        self.lock, self.acquisitions = lock, 0

    def __enter__(self):
        self.acquisitions += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


class TestLadder:
    def test_fault_free_calls_never_take_the_swap_lock(self):
        executable = _build(prefer="numpy")
        proxy = executable._swap_lock = _CountingLock(executable._swap_lock)
        x = np.arange(8) + 0j
        X = np.tile(x, (4, 1))
        for _ in range(100):
            executable.apply(x)
            executable.apply_many(X)
        assert proxy.acquisitions == 0
        # The breaker path still goes through it, once per trip.
        _sabotage(executable)
        executable.apply(x)
        assert proxy.acquisitions == 1

    @pytest.mark.parametrize("prefer", list(_PREFERENCE))
    def test_tiers_below_are_the_non_native_rest_of_the_chain(self, prefer):
        if prefer in ("c", "cjit") and not HAS_CC:
            pytest.skip("no C compiler on PATH")
        compiler = SplCompiler(CompilerOptions(codetype="real",
                                               unroll=True))
        routine = compiler.compile_formula("(F 8)", f"lad{prefer}",
                                           language="c")
        executable = build_executable(routine, prefer=prefer)
        if prefer != "cjit" or jit_supported():
            assert executable.backend == prefer
        chain = _PREFERENCE[prefer]
        below = chain[chain.index(executable.backend) + 1:]
        assert executable.fallback_chain == tuple(
            b for b in below if b in ("numpy", "python"))

    def test_trip_is_the_public_breaker_hook(self):
        executable = _build(prefer="numpy")
        assert executable.trip(RuntimeError("injected")) is True
        assert executable.backend == "python"
        assert [(f.backend, f.op) for f in executable.backend_failures] \
            == [("numpy", "chaos")]
        assert executable.trip(RuntimeError("again")) is False  # no tier left
        x = np.arange(8) + 0j
        np.testing.assert_allclose(executable.apply(x), np.fft.fft(x),
                                   atol=1e-9)

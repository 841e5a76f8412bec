"""Chaos config parsing, injector draws, and a short real run.

The real run is compressed — one worker SIGKILL plus server-side
stall/truncate injection under open-loop load against a real fleet
(``tests/serve/fleet.py``) — and asserts the invariants that define the
feature: **zero wrong answers**, a landed kill, and recovery to a
serving fleet.
"""

from __future__ import annotations

import pytest

from repro.serve.chaos import ChaosConfig, ChaosInjector
from repro.serve.supervisor import fork_supported

from tests.serve.fleet import run_chaos

needs_fleet = pytest.mark.skipif(
    not fork_supported(),
    reason="supervised fleets need fork, SIGCHLD and SO_REUSEPORT")


class TestChaosConfig:
    def test_disabled_by_default(self):
        assert not ChaosConfig().enabled
        assert ChaosConfig.from_env(environ={}) is None
        assert ChaosConfig.from_env(environ={"SPL_CHAOS": "  "}) is None

    def test_parses_full_spec(self):
        config = ChaosConfig.from_spec(
            "stall=0.01:2.5,truncate=0.02,trip=0.03,seed=9")
        assert config.stall_rate == pytest.approx(0.01)
        assert config.stall_s == pytest.approx(2.5)
        assert config.truncate_rate == pytest.approx(0.02)
        assert config.trip_rate == pytest.approx(0.03)
        assert config.seed == 9
        assert config.enabled

    def test_spec_roundtrips(self):
        config = ChaosConfig.from_spec("stall=0.5:1.5,trip=0.25")
        assert ChaosConfig.from_spec(config.to_spec()) == config

    def test_absent_seed_is_unseeded_and_zero_is_a_seed(self):
        assert ChaosConfig.from_spec("stall=0.5").seed is None
        assert ChaosConfig.from_spec("stall=0.5,seed=0").seed == 0
        assert "seed" not in ChaosConfig.from_spec("stall=0.5").to_spec()
        assert ChaosConfig.from_spec("trip=0.1,seed=0").to_spec() \
            == "trip=0.1,seed=0"

    def test_unknown_key_raises(self):
        # A typo'd spec that silently injected nothing would report
        # fake resilience.
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("stal=0.5")

    def test_out_of_range_rate_raises(self):
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("truncate=1.5")

    def test_malformed_element_raises(self):
        with pytest.raises(ValueError):
            ChaosConfig.from_spec("stall")


class TestChaosInjector:
    def test_zero_rates_never_fire(self):
        injector = ChaosInjector(ChaosConfig(seed=1))
        for _ in range(200):
            assert not injector.take_stall()
            assert not injector.take_truncate()
            assert not injector.take_trip()
        assert injector.stalls == injector.truncations == \
            injector.trips == 0

    def test_seed_zero_is_reproducible(self):
        def decisions():
            injector = ChaosInjector(
                ChaosConfig.from_spec("stall=0.5,seed=0"))
            return [injector.take_stall() for _ in range(200)]

        first = decisions()
        assert first == decisions()
        assert 0 < sum(first) < 200  # a rate, not all-or-nothing

    def test_unit_rates_always_fire_and_count(self):
        injector = ChaosInjector(ChaosConfig(
            stall_rate=1.0, truncate_rate=1.0, trip_rate=1.0, seed=1))
        for _ in range(10):
            assert injector.take_stall()
            assert injector.take_truncate()
            assert injector.take_trip()
        assert injector.stalls == 10
        assert injector.truncations == 10
        assert injector.trips == 10

    def test_force_trip_degrades_a_real_breaker(self):
        from repro.serve.plans import PlanKey, PlanRegistry

        registry = PlanRegistry(prefer="numpy")
        plan = registry.get(PlanKey("fft", 8, "complex128"))
        executable = plan.executable
        assert executable.backend == "numpy"
        injector = ChaosInjector(ChaosConfig(trip_rate=1.0, seed=1))
        injector.force_trip(executable)
        assert executable.backend == "python"
        assert executable.stats()["degraded"]


@needs_fleet
class TestChaosRun:
    def test_short_chaos_run_zero_wrong_answers(self):
        report = run_chaos(
            workers=2, n=16, rate=150.0, duration=3.0,
            kill_at=(0.8,), recovery_window_s=1.5,
            server_chaos=ChaosConfig(
                stall_rate=0.01, stall_s=0.8,
                truncate_rate=0.01, trip_rate=0.005, seed=5),
            connections=3, seed=11)
        assert report.offered > 100
        # The two invariants: nothing wrong, and the fleet recovered.
        assert report.wrong == 0
        assert report.killed_pids, "the kill never landed"
        assert report.post_recovery_offered > 0
        assert report.post_recovery_availability >= 0.99
        assert report.availability >= 0.9

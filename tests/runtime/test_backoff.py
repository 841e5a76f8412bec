"""The one exponential delay shared by the fleet, the search and the
client."""

import random

import pytest

from repro.runtime.backoff import backoff_delay


class _NoDraws(random.Random):
    def uniform(self, a, b):
        raise AssertionError("drew with nothing to draw")


def test_grows_exponentially_and_caps():
    delays = [backoff_delay(k, base=0.5, multiplier=2.0, cap=4.0)
              for k in range(6)]
    assert delays == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]


def test_no_draw_when_the_range_is_a_point_or_the_delay_is_zero():
    assert backoff_delay(3, base=0.1, multiplier=2.0, cap=9.0, lo=1.5,
                         hi=1.5, rng=_NoDraws()) == pytest.approx(1.2)
    assert backoff_delay(3, base=0.0, multiplier=2.0, cap=9.0, lo=0.0,
                         rng=_NoDraws()) == 0.0


def test_the_draw_scales_the_capped_delay():
    rng = random.Random(5)
    draws = [backoff_delay(9, base=1.0, multiplier=2.0, cap=3.0, lo=0.5,
                           hi=2.0, rng=rng) for _ in range(200)]
    assert all(1.5 <= d <= 6.0 for d in draws)
    assert len(set(draws)) > 100

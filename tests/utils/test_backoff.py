"""The shared jittered-backoff curve."""

import random

import pytest

from repro.utils.backoff import backoff_delay


class _Fixed:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("base,cap", [(0.05, 1.0), (0.25, 4.0),
                                      (0.02, 0.25)])
def test_delay_stays_in_the_jitter_band(base, cap):
    rng = random.Random(7)
    for attempt in range(12):
        ceiling = min(cap, base * 2 ** attempt)
        delay = backoff_delay(attempt, base, cap, rng)
        assert 0.5 * ceiling <= delay <= ceiling
    # The band's ends: U = 0 gives exactly half; the largest draw
    # rounds to the cap at most, never past it.
    assert backoff_delay(3, base, cap, _Fixed(0.0)) == 0.5 * min(
        cap, base * 8)
    assert backoff_delay(30, base, cap, _Fixed(1.0 - 2 ** -53)) <= cap

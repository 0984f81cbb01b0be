"""The one retry policy: jitter band, budget, deadline, and the delay
sequence every retrying tier has replayed since before the policy."""

import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.runner import POINT_RETRY
from repro.serve.bench import CLIENT_RETRY
from repro.serve.router import RouterConfig
from repro.serve.workers import SHARD_RETRY
from repro.utils.retry import RetryPolicy

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


class _Fixed:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("base,cap", [(0.05, 1.0), (0.25, 4.0),
                                      (0.02, 0.25)])
def test_delay_stays_in_the_jitter_band(base, cap):
    policy = RetryPolicy(max_retries=40, base=base, cap=cap)
    rng = random.Random(7)
    for attempt in range(12):
        ceiling = min(cap, base * 2 ** attempt)
        delay = policy.delay(attempt, rng)
        assert 0.5 * ceiling <= delay <= ceiling
    # The band's ends: U = 0 gives exactly half; the largest draw
    # rounds to the cap at most, never past it.
    assert policy.delay(3, _Fixed(0.0)) == 0.5 * min(cap, base * 8)
    assert policy.delay(30, _Fixed(1.0 - 2 ** -53)) <= cap


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(max_retries=st.integers(0, 10), attempt=st.integers(0, 40),
           base=st.floats(0.0, 10.0), cap=st.floats(0.0, 100.0),
           seed=SEEDS)
    def test_band_or_none_past_the_budget(self, max_retries, attempt, base,
                                          cap, seed):
        policy = RetryPolicy(max_retries, base, cap)
        rng = random.Random(seed)
        state = rng.getstate()
        delay = policy.delay(attempt, rng)
        if attempt >= max_retries:
            assert delay is None
            assert rng.getstate() == state  # a refusal draws no jitter
        else:
            ceiling = min(cap, base * 2 ** attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    @settings(max_examples=100, deadline=None)
    @given(attempt=st.integers(0, 4), seed=SEEDS)
    def test_none_when_the_wait_would_pass_the_deadline(self, attempt, seed):
        policy = RetryPolicy(max_retries=5, base=0.05, cap=1.0)
        expected = policy.delay(attempt, random.Random(seed))
        now = time.monotonic()
        assert policy.delay(attempt, random.Random(seed),
                            deadline=now + expected - 1e-3) is None
        assert policy.delay(attempt, random.Random(seed),
                            deadline=now - 1.0) is None
        assert policy.delay(attempt, random.Random(seed),
                            deadline=now + expected + 60.0) == expected

    @given(suggested=st.floats(0.0, 100.0), seed=SEEDS)
    def test_suggested_wait_replaces_the_draw_capped(self, suggested, seed):
        policy = RetryPolicy(max_retries=1, base=0.05, cap=2.0)
        rng = random.Random(seed)
        state = rng.getstate()
        assert policy.delay(0, rng, suggested=suggested) == min(suggested,
                                                                2.0)
        assert rng.getstate() == state
        assert policy.delay(1, rng, suggested=suggested) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(-1, 0.05, 1.0)
        with pytest.raises(ValueError, match="base and cap"):
            RetryPolicy(1, -0.05, 1.0)


# Each tier's policy, its rng seed, and the first delays its retry loop
# sleeps.  Hand-computed from min(cap, base * 2^k) * (0.5 + U_k / 2) with
# the seed's first draws U_k:
#   shard  U = 0.14175719659892327, 0.6132833839032906, 0.196071793023176
#          0.05 * 0.57087859829946... = 0.028543929914973083, then
#          0.10 * 0.80664169195164... and 0.20 * 0.59803589651158...
#   sweep  U = 0.8444218515250481, 0.7579544029403025
#          0.25 * 0.92221092576252... and 0.50 * 0.87897720147015...
#   router U = 0.3099811844771432, 0.26053638176170113, 0.14709980792434663
#          0.02 * 0.65499059223857..., 0.04 * ..., 0.08 * ...
#   client U = 0.8840056583680804, 0.9311364017922756, 0.8865442714139958
#          0.05 * 0.94200282918404..., 0.10 * ..., 0.20 * ...
TIERS = {
    "shard": (SHARD_RETRY, (3, 0.05, 1.0), 0x5EED,
              [0.028543929914973083, 0.08066416919516453,
               0.1196071793023176]),
    "sweep": (POINT_RETRY, (2, 0.25, 4.0), 0,
              [0.23055273144063101, 0.4394886007350756]),
    "router": (RouterConfig().failover, (3, 0.02, 0.25), 0xF417,
               [0.013099811844771433, 0.02521072763523402,
                0.04588399231697387]),
    "client": (CLIENT_RETRY, (3, 0.05, 2.0), 0xB0FF,
               [0.047100141459202015, 0.09655682008961379,
                0.1886544271413996]),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_tier_delays_are_pinned(tier):
    policy, values, seed, expected = TIERS[tier]
    assert (policy.max_retries, policy.base, policy.cap) == values
    rng = random.Random(seed)
    delays = [policy.delay(k, rng) for k in range(policy.max_retries)]
    assert delays == expected  # bit-identical, not approximately
    assert policy.delay(policy.max_retries, rng) is None


def test_backoff_arithmetic_lives_only_in_the_retry_module():
    # One home for the curve: a second `** attempt` (or the retired
    # helper's name) means a retry loop grew its own backoff again.
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(r"\*\*\s*attempt|backoff_delay")
    home = src / "utils" / "retry.py"
    assert pattern.search(home.read_text())
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py")) if path != home
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, "backoff arithmetic outside utils/retry.py:\n" \
        + "\n".join(offenders)

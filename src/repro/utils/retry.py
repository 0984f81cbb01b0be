"""One retry policy for every retry loop in the package.

A :class:`RetryPolicy` is a budget (``max_retries`` retries after the
first attempt) plus a jittered exponential backoff curve: the wait
before retry ``k + 1`` is ``min(cap, base * 2**k) * U[0.5, 1.0)``.
The jitter draw comes from the caller's own seeded ``random.Random``,
so each loop replays its delay sequence exactly while concurrent
retriers decorrelate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff curve (seconds)."""

    max_retries: int
    base: float
    cap: float

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base < 0 or self.cap < 0:
            raise ValueError(
                f"backoff base and cap must be >= 0, got {self.base}, "
                f"{self.cap}")

    def delay(self, attempt: int, rng: random.Random,
              deadline: Optional[float] = None,
              suggested: Optional[float] = None) -> Optional[float]:
        """Seconds to wait after failed attempt ``attempt`` (0-based)
        before the next one, or ``None`` when no retry may follow.

        ``None`` means the budget is spent (``attempt >= max_retries``;
        no jitter is drawn then) or the wait would end past
        ``deadline``, an absolute ``time.monotonic()`` instant.
        ``suggested`` is a server-suggested wait (``Retry-After``) that
        replaces the jittered draw, still capped by ``cap``.
        """
        if attempt >= self.max_retries:
            return None
        if suggested is None:
            wait = min(self.cap, self.base * (2.0 ** attempt)) \
                * (0.5 + rng.random() / 2.0)
        else:
            wait = min(suggested, self.cap)
        if deadline is not None and time.monotonic() + wait > deadline:
            return None
        return wait

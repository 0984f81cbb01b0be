"""Jittered exponential backoff, shared by every retry loop in the package."""

from __future__ import annotations

import random

__all__ = ["backoff_delay"]


def backoff_delay(attempt: int, base: float, cap: float,
                  rng: random.Random) -> float:
    """Seconds to wait before retry ``attempt`` (0-based):
    ``min(cap, base * 2**attempt) * U[0.5, 1.0)``.

    The jitter draw comes from the caller's own seeded ``rng`` so each
    retry loop keeps a reproducible delay sequence while concurrent
    retriers decorrelate.
    """
    return min(cap, base * (2.0 ** attempt)) * (0.5 + rng.random() / 2.0)

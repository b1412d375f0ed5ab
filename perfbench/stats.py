"""Summary statistics for timing samples."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile of samples.

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie beyond
    the chosen rank: a tail estimate resting on a handful of samples is
    noise, so the caller must measure longer instead.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be strictly between 0 and 100, got {p}")
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(p / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} needed"
        )
    return xs[rank - 1]

"""Percentiles that are only reported with at least ten samples beyond them."""

from __future__ import annotations

import numpy as np
from scipy.special import betainc

TAIL = 10


def min_samples(q: int) -> int:
    """Smallest sample count with at least TAIL samples above percentile q."""
    return -(-TAIL * 100 // (100 - q))


def percentile(samples, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile (integer q in 1..99).

    A beta-weighted average of the order statistics: a job mix has gaps
    between job sizes, and this estimate moves smoothly when noise reorders
    jobs around the percentile instead of jumping across a gap.  Raises
    ValueError when fewer than TAIL samples would lie beyond it."""
    n = len(samples)
    if n < min_samples(q):
        raise ValueError(f"p{q} needs at least {min_samples(q)} samples, got {n}")
    p = q / 100
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ np.sort(np.asarray(samples, dtype=float)))

"""Statistics helpers of the benchmark (tested by test_stats.py)."""

import math

# Percentiles tail_percentile may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def nearest_rank(values, pct):
    """The nearest-rank percentile: the smallest sample with at least pct %
    of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct * len(xs) / 100 - 1e-9))
    return xs[rank - 1]


def tail_percentile(values, min_beyond=10):
    """The highest percentile of TAIL_LADDER that has at least `min_beyond`
    samples above its rank. Returns (pct, value, samples); pct is None when
    even the median lacks that many samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100 - 1e-9))
        if n - rank >= min_beyond:
            return pct, nearest_rank(values, pct), n
    return None, None, n


def rate_mb_s(sizes, times_s):
    """Σ bytes ÷ Σ per-item median time, in MB/s (10^6 bytes): `sizes[i]`
    bytes took each of the repeated times in `times_s[i]` seconds."""
    if len(sizes) != len(times_s) or not sizes:
        raise ValueError("one list of times per size is required")
    return sum(sizes) / 1e6 / sum(median(ts) for ts in times_s)

"""Order statistics the benchmark reports: medians, nearest-rank tail
percentiles that are only defined with enough samples beyond them, and
the quartile spread the run-to-run steadiness check uses."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise one outlier would be the whole tail.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(samples, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank `pct` percentile of `samples`, or None when fewer than
    `min_beyond` samples lie above its rank."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def min_samples_for(pct, min_beyond=MIN_BEYOND):
    """Fewest samples for which `tail(samples, pct)` is defined."""
    n = 1
    while n - max(1, math.ceil(pct / 100.0 * n)) < min_beyond:
        n += 1
    return n


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of
    `statistics.quantiles(values, n=4)`."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

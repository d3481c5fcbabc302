"""Order statistics the ledger reports: medians, the tail-percentile
rule, and the quartile spread the acceptance check uses."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def highest_supported_percentile(count: int) -> float | None:
    """The highest tail percentile with >= 10 samples beyond it.

    With ``count`` samples, ``count * (1 - q/100)`` of them lie beyond
    percentile ``q``; below ten the estimate is one or two outliers, not
    a percentile.  None when even p75 is unsupported (< 40 samples).
    """
    for q in TAIL_PERCENTILES:
        if round(count * (100.0 - q) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            return q
    return None


def timing_summary(values) -> dict:
    """Median + the highest supported percentile, with the sample count."""
    summary = {"count": len(values), "p50": median(values)}
    q = highest_supported_percentile(len(values))
    if q is not None:
        summary["tail_percentile"] = q
        summary["tail"] = percentile(values, q)
    return summary


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median — the run-to-run spread as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

"""Quartiles and the tail-percentile rule used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def min_samples(pct: float) -> int:
    """Smallest sample count with TAIL_SAMPLES samples above the pct-th percentile."""
    return math.ceil(TAIL_SAMPLES * 100 / (100 - pct) - 1e-9)


def tail_percentile(samples: list[float], pct: float):
    """The pct-th percentile, or None when fewer than ``min_samples(pct)`` samples."""
    if len(samples) < min_samples(pct):
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[round(pct) - 1]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, med, q3


def percentile_line(name: str, samples: list[float], pct: float, unit: str) -> str:
    """Report line for a tail percentile, always with its sample count."""
    value = tail_percentile(samples, pct)
    if value is None:
        return "%s: not reported (n=%d < %d)" % (name, len(samples), min_samples(pct))
    return "%s: %.3f %s (n=%d)" % (name, value, unit, len(samples))

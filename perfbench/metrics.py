"""Summary statistics and the acceptance rules the benchmark reports by.

Every timing is reported as a median with its quartiles and sample
count; a high percentile is reported only when at least ``MIN_BEYOND``
samples lie beyond it, so a p90 needs 100 samples.  The bound helpers
implement the two checks a benchmark run is judged by: the spread of
repeated runs (quartile distance over median) stays within a metric's
bound, and a candidate's median is no worse than a baseline's by more
than that bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples to summarize")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], pct: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``pct`` percentile of ``values``.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    strictly above the chosen rank: a tail estimate resting on a
    handful of samples is noise, so it is refused rather than printed.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile {pct} outside (0, 100)")
    ordered = sorted(float(v) for v in values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has only {beyond} beyond "
            f"it; need {min_beyond}")
    return ordered[rank - 1]


def samples_needed(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which :func:`percentile` accepts ``pct``."""
    n = min_beyond
    while True:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= min_beyond:
            return n
        n += 1


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (``q3 - q1) / median``).

    Uses ``statistics.quantiles(values, n=4)``, the same rule the
    acceptance check applies to repeated runs.
    """
    summary = summarize(values)
    if summary["median"] == 0:
        raise ValueError("spread of samples whose median is 0")
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``baseline``, as a share of
    ``baseline`` (negative when it is better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not "
                         f"{better!r}")
    if baseline == 0:
        raise ValueError("baseline median is 0")
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def within_bound(baseline: Sequence[float], candidate: Sequence[float],
                 bound: float, better: str) -> bool:
    """True when the candidate runs' median is no worse than the
    baseline runs' median by more than ``bound``."""
    return worse_by(statistics.median(baseline),
                    statistics.median(candidate), better) <= bound

"""Summary statistics for the benchmark's timings."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: A tail is reported only where at least this many samples lie beyond it.
MIN_BEYOND = 10

#: Candidate percentiles (the nines), in parts per 100,000 so that ranks
#: are exact integer arithmetic (0.9 * 100 is 90.00000000000001 in floats).
_CANDIDATES = (50_000, 90_000, 99_000, 99_900, 99_990, 99_999)


@dataclass(frozen=True)
class Tail:
    """One percentile of a sample, with the counts that justify it."""

    percentile: float
    value: float
    samples: int
    beyond: int

    @property
    def label(self) -> str:
        return f"p{self.percentile:g}"


def _rank(n: int, parts: int) -> int:
    """Nearest-rank position (1-based) of a percentile in ``n`` samples."""
    return -(-parts * n // 100_000)


def tail(values: Sequence[float]) -> Optional[Tail]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond it.

    "Beyond" counts the samples ranked after the percentile's position.
    Returns ``None`` when even the median has fewer than ``MIN_BEYOND``
    samples beyond it (fewer than 20 samples).
    """
    n = len(values)
    best: Optional[int] = None
    for parts in _CANDIDATES:
        if n - _rank(n, parts) >= MIN_BEYOND:
            best = parts
    if best is None:
        return None
    ordered = sorted(values)
    rank = _rank(n, best)
    return Tail(
        percentile=best / 1000, value=ordered[rank - 1], samples=n, beyond=n - rank
    )


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the steadiness check)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def elementwise_min(series: Sequence[Sequence[float]]) -> list[float]:
    """The fastest time of each unit of work over repetitions of it.

    ``series[r][i]`` is the time of unit ``i`` in repetition ``r``; every
    repetition must hold the same units.  Slow spells of a shared host
    last from milliseconds to tens of seconds and make work up to about
    1.7 times slower, so the minimum over repetitions of each short unit,
    not the repetitions' own totals, measures the program rather than the
    host.
    """
    if not series:
        raise ValueError("no repetitions")
    lengths = {len(times) for times in series}
    if len(lengths) != 1:
        raise ValueError(f"repetitions differ in their units: lengths {sorted(lengths)}")
    return [min(times) for times in zip(*series)]


def intervals(start: float, stamps: Sequence[float], end: float) -> list[float]:
    """The gaps between ``start``, each stamp, and ``end``."""
    points = [start, *stamps, end]
    return [b - a for a, b in zip(points, points[1:])]

"""Order statistics for latency samples."""
from __future__ import annotations

import math
from collections.abc import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER: tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest-rank index of the ``p``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    # The tolerance keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from moving an exact rank up by one.
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float | None:
    """The highest percentile in :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples strictly beyond its rank, or
    None when even the lowest has fewer."""
    ok = [p for p in TAIL_LADDER if n - nearest_rank(n, p) >= MIN_BEYOND]
    return ok[-1] if ok else None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    s = sorted(values)
    return s[nearest_rank(len(s), p) - 1]

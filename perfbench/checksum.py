"""Order-independent output checksums, taken in the sink's own job.

A query output is summarised by its row count and the sum of
``xxhash64`` over each row, with doubles rounded so that a different
summation order inside an aggregate does not change the hash. The sum is
taken as ``decimal(38,0)``: a ``long`` sum of 64-bit hashes overflows,
which ANSI mode turns into an error.

Windowed outputs also get the same pair over their *interior* windows:
windows that no batch cut falls strictly inside. Those must match the
whole-stream reference even while windows that straddle a cut come out
split.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

#: Decimal places kept from every double before hashing.
ROUND_DIGITS = 6

_FLOATING = ("double", "float")


def row_hash(df: DataFrame) -> Column:
    """``xxhash64`` of each row of ``df`` with floating columns rounded."""
    cols = [
        F.round(F.col(c), ROUND_DIGITS) if t in _FLOATING else F.col(c)
        for c, t in df.dtypes
    ]
    return F.xxhash64(*cols)


@dataclass(frozen=True)
class Cuts:
    """The event-time cuts of a replay (see ``loadgen.batch_index``)."""

    t0: float
    dt: float
    trains: int
    batch_rows: int

    def batch_of(self, t: Column) -> Column:
        """Batch holding the sampling tick at epoch seconds ``t``."""
        tick = (t - F.lit(self.t0)) / F.lit(self.dt)
        return F.floor(tick * F.lit(self.trains) / F.lit(self.batch_rows))

    def interior(self, w_start: Column, window_s: float) -> Column:
        """True when no cut falls strictly inside ``[w_start, w_start + window_s)``."""
        last = w_start + F.lit(window_s - self.dt)
        return self.batch_of(w_start) == self.batch_of(last)


def checksum_aggs(
    df: DataFrame, *, cuts: Cuts | None = None, window_s: float | None = None
) -> list[Column]:
    """Aggregates ``n``, ``h`` (and ``ni``, ``hi`` over interior windows
    when ``window_s`` is given) for ``df.observe`` or ``df.agg``."""
    h = row_hash(df).cast("decimal(38,0)")
    aggs = [F.count(F.lit(1)).alias("n"), F.coalesce(F.sum(h), F.lit(0).cast("decimal(38,0)")).alias("h")]
    if window_s is not None:
        if cuts is None:
            raise ValueError("interior windows need the cuts")
        inside = cuts.interior(F.col("w_start_s"), window_s)
        aggs += [
            F.count(F.when(inside, F.lit(1))).alias("ni"),
            F.coalesce(
                F.sum(F.when(inside, h)), F.lit(0).cast("decimal(38,0)")
            ).alias("hi"),
        ]
    return aggs


def checksum(df: DataFrame, **kw) -> dict[str, int]:
    """Run :func:`checksum_aggs` as its own job; values as Python ints."""
    row = df.agg(*checksum_aggs(df, **kw)).collect()[0]
    return {k: int(v) for k, v in row.asDict().items()}

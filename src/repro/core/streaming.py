"""Structured-Streaming forms of the NebulaMEOS queries.

Stateless queries (Q1, Q3, Q4) stream in append mode unchanged.
Windowed aggregations (Q2, Q5, Q6, Q8a) get an event-time watermark.
Threshold-window queries (Q7, Q8b) cannot use ``applyInPandas`` under
Structured Streaming; a :class:`ThresholdDetector` runs them through
``foreachBatch``, with the incremental
:class:`~repro.nebula.windows.ThresholdWindowOperator` carrying open
runs across micro-batches — the stateful-operator pattern
an edge engine uses (and the reason NebulaMEOS had to extend the window
framework rather than reuse stock operators).
"""
from __future__ import annotations

from collections.abc import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import queries as Q
from repro.nebula.engine import run_available_now
from repro.nebula.windows import ThresholdWindowOperator


def q1_streaming(maintenance_zones) -> Callable[[DataFrame], DataFrame]:
    """Q1 as a streaming transform (stateless → append mode)."""
    return lambda df: Q.q1_alert_filtering(df, maintenance_zones)


def q2_streaming(
    neighbourhood_zones, *, window: str = "60 seconds", watermark: str = "30 seconds"
) -> Callable[[DataFrame], DataFrame]:
    """Q2 with an event-time watermark ahead of the tumbling window."""

    def transform(df: DataFrame) -> DataFrame:
        return Q.q2_noise_monitoring(
            df.withWatermark("t", watermark), neighbourhood_zones, window=window
        )

    return transform


def q3_streaming(curve_zones) -> Callable[[DataFrame], DataFrame]:
    return lambda df: Q.q3_dynamic_speed_limit(df, curve_zones)


def q4_streaming(weather_static: DataFrame) -> Callable[[DataFrame], DataFrame]:
    """Q4 as a stream–static interval join (weather is the slowly
    changing side, broadcast-able static table)."""
    return lambda df: Q.q4_weather_speed_zones(df, weather_static)


def q6_streaming(
    *, window: str = "60 seconds", watermark: str = "30 seconds"
) -> Callable[[DataFrame], DataFrame]:
    def transform(df: DataFrame) -> DataFrame:
        return Q.q6_heavy_passenger_load(df.withWatermark("t", watermark), window=window)

    return transform


def q8a_streaming(
    *, window: str = "120 seconds", watermark: str = "30 seconds"
) -> Callable[[DataFrame], DataFrame]:
    def transform(df: DataFrame) -> DataFrame:
        return Q.q8_emergency_clusters(df.withWatermark("t", watermark), window=window)

    return transform


# ---------------------------------------------------------------------
# foreachBatch path for threshold-window queries
# ---------------------------------------------------------------------

class ThresholdDetector:
    """A threshold-window query as a stateful micro-batch pipeline.

    Per batch: the query's flag step runs in Spark (the same projection
    the batch form runs), ``toPandas`` brings the flagged events to the
    driver, and the incremental threshold operator carries open runs to
    the next batch. Windows come out in the batch form's columns.
    """

    def __init__(self, query: Q.ThresholdQuery) -> None:
        self.query = query
        self.op = ThresholdWindowOperator(**query.window_params())
        self.windows: list[pd.DataFrame] = []

    def _emit(self, wins: pd.DataFrame) -> pd.DataFrame:
        wins = self.query.output(wins)
        if len(wins):
            self.windows.append(wins)
        return wins

    def process_spark_batch(self, batch_df: DataFrame) -> pd.DataFrame:
        """Feed one micro-batch; returns the windows it closed."""
        return self._emit(self.op.process(self.query.flag(batch_df).toPandas()))

    def foreach_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        self.process_spark_batch(batch_df)

    def finish(self) -> pd.DataFrame:
        """Close open runs and return all windows detected so far."""
        tail = self._emit(self.op.flush())
        if not self.windows:
            return tail  # empty, in the batch form's columns
        return pd.concat(self.windows, ignore_index=True)


def Q7StopDetector(allowed_zones, **params) -> ThresholdDetector:
    """Q7 on micro-batches; ``params`` as for `queries.q7_threshold`."""
    return ThresholdDetector(Q.q7_threshold(allowed_zones, **params))


def Q8LowPressureDetector(**params) -> ThresholdDetector:
    """Q8b on micro-batches; ``params`` as for `queries.q8b_threshold`."""
    return ThresholdDetector(Q.q8b_threshold(**params))


def run_foreach_batch_stream(
    spark: SparkSession,
    source: DataFrame,
    detector,
    *,
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Drive a streaming source through a stateful detector via
    ``foreachBatch`` and return the detector's collected windows.

    Raises ``TimeoutError`` if the stream is not done after
    ``timeout_s``; open runs are then not flushed.
    """
    run_available_now(
        source.writeStream.foreachBatch(detector.foreach_batch), timeout_s
    )
    return detector.finish()

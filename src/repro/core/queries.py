"""The eight demonstration queries of §3 as DataFrame transforms.

Each query is a function ``(events: DataFrame, …static tables…) →
DataFrame`` built from the NebulaMEOS operator set: MEOS expressions
(`repro.nebula.expressions`), the window operators
(`repro.nebula.windows`), and plain relational operators. The same
transform object runs in batch, micro-batch, and Structured Streaming
(see `repro.nebula.engine` / `repro.core.streaming`).

Geofencing (§3.1): Q1 alert filtering, Q2 noise monitoring, Q3 dynamic
speed limit, Q4 weather speed zones. GCEP (§3.2): Q5 battery
monitoring, Q6 heavy passenger load, Q7 unscheduled stops, Q8 brake
monitoring.

Every query has a DuckDB-SQL-expressible semantics (zones are rects/
circles, windows are time buckets or gaps-and-islands) so results are
oracle-checked in tests/test_core_queries_*.py.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf
from pyspark.sql.types import DoubleType

from repro.nebula.expressions import (
    EdWithinExpression,
    NearestZoneExpression,
    ZoneIdExpression,
    field,
)
from repro.nebula.windows import sliding, threshold_window, tumbling
from repro.sncb.sensors import (
    DEVIATION_THRESHOLD_V,
    EMERGENCY_BAR,
    LOW_PRESSURE_BAR,
    OVERHEAT_THRESHOLD_C,
    expected_battery_voltage,
)
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import CELL_SIZE_M, grid_origin
from repro.sncb.zones import shapes_from_df

# ---------------------------------------------------------------------
# Geofencing
# ---------------------------------------------------------------------

def q1_alert_filtering(events: DataFrame, maintenance_zones: pd.DataFrame) -> DataFrame:
    """Q1 — location-based alert filtering.

    Keep alert events, but drop *non-essential* alerts (speeding) raised
    while the train is inside a maintenance zone. Essential alerts
    (equipment malfunction) always pass.
    """
    shapes, _ = shapes_from_df(maintenance_zones)
    in_mnt = EdWithinExpression(field("x"), field("y"), shapes, 0.0).to_column()
    return (
        events.filter(F.col("alert_kind") != "")
        .withColumn("in_maintenance", in_mnt)
        .filter(F.col("alert_essential") | ~F.col("in_maintenance"))
        .select(
            "train_id", "ts", "x", "y", "alert_kind", "alert_essential",
            "in_maintenance",
        )
    )


def q2_noise_monitoring(
    events: DataFrame,
    neighbourhood_zones: pd.DataFrame,
    *,
    window: str = "60 seconds",
    peak_db: float = 70.0,
) -> DataFrame:
    """Q2 — location-based noise monitoring.

    Attribute each event to the neighbourhood zone it falls in, then
    aggregate noise per (zone, tumbling window); windows whose max noise
    exceeds ``peak_db`` are flagged as peaks (the "noise peaks related
    to their geographical areas").
    """
    shapes, ids = shapes_from_df(neighbourhood_zones)
    zid = ZoneIdExpression(field("x"), field("y"), shapes, ids).to_column()
    zoned = events.withColumn("zone_id", zid).filter(F.col("zone_id") >= 0)
    out = tumbling(
        zoned, time_col="t", size=window, keys=["zone_id"],
        aggs=[
            F.count("*").alias("n_events"),
            F.avg("noise_db").alias("avg_noise_db"),
            F.max("noise_db").alias("max_noise_db"),
        ],
    )
    return out.withColumn("is_peak", F.col("max_noise_db") > peak_db).select(
        F.col("w_start").cast("long").alias("w_start_s"),
        "zone_id", "n_events", "avg_noise_db", "max_noise_db", "is_peak",
    )


def q3_dynamic_speed_limit(events: DataFrame, curve_zones: pd.DataFrame) -> DataFrame:
    """Q3 — dynamic speed limit.

    Restrict the stream to high-risk zones (curves/construction), attach
    each zone's speed limit through a relational join, and flag
    violations (speed above the zone limit).
    """
    shapes, ids = shapes_from_df(curve_zones)
    zid = ZoneIdExpression(field("x"), field("y"), shapes, ids).to_column()
    zoned = events.withColumn("zone_id", zid).filter(F.col("zone_id") >= 0)
    limits = events.sparkSession.createDataFrame(
        curve_zones[["zone_id", "speed_limit_kmh"]]
    )
    return (
        zoned.join(limits, on="zone_id", how="inner")
        .withColumn("violation", F.col("speed_kmh") > F.col("speed_limit_kmh"))
        .select(
            "train_id", "ts", "zone_id", "speed_kmh", "speed_limit_kmh", "violation",
        )
    )


def weather_cell_column(x: str = "x", y: str = "y") -> Column:
    """The weather-cell id as a pure Catalyst expression (no UDF) —
    identical arithmetic to ``weather.cell_id_of``."""
    x0, y0, nx, _ = grid_origin()
    ix = F.floor((F.col(x) - F.lit(x0)) / F.lit(CELL_SIZE_M)).cast("long")
    iy = F.floor((F.col(y) - F.lit(y0)) / F.lit(CELL_SIZE_M)).cast("long")
    return iy * F.lit(nx) + ix


def q4_weather_speed_zones(events: DataFrame, weather: DataFrame) -> DataFrame:
    """Q4 — weather-based speed zones.

    Join each event with the weather condition of its grid cell at its
    timestamp (interval join); keep adverse-condition rows (those with a
    suggested limit) and flag trains exceeding it.
    """
    ev = events.withColumn("cell_id", weather_cell_column())
    w = weather.select(
        F.col("cell_id").alias("w_cell"), "t_start", "t_end",
        "condition", "suggested_limit_kmh",
    )
    return (
        ev.join(
            w,
            on=(
                (ev["cell_id"] == w["w_cell"])
                & (ev["ts"] >= w["t_start"])
                & (ev["ts"] < w["t_end"])
            ),
            how="inner",
        )
        .filter(F.col("suggested_limit_kmh").isNotNull())
        .withColumn("violation", F.col("speed_kmh") > F.col("suggested_limit_kmh"))
        .select(
            "train_id", "ts", "cell_id", "condition",
            "suggested_limit_kmh", "speed_kmh", "violation",
        )
    )


# ---------------------------------------------------------------------
# Geospatial Complex Event Processing
# ---------------------------------------------------------------------

# A DataType, not a DDL string: parsing "double" needs a live session,
# and this UDF is built at import.
@pandas_udf(DoubleType())
def _expected_v(ts_rel: pd.Series) -> pd.Series:
    """The reference charge/discharge curve: the one non-geometric MEOS
    kernel a query calls, so it stays an Arrow UDF (built once)."""
    return pd.Series(expected_battery_voltage(ts_rel.to_numpy()))


def q5_battery_monitoring(
    events: DataFrame,
    workshop_zones: pd.DataFrame,
    *,
    t0: float | None = None,
    window: str = "300 seconds",
    slide: str = "60 seconds",
    dev_threshold_v: float = DEVIATION_THRESHOLD_V,
    overheat_c: float = OVERHEAT_THRESHOLD_C,
) -> DataFrame:
    """Q5 — battery monitoring (GCEP).

    The query itself evaluates the reference charge/discharge curve per
    event (MEOS kernel UDF — "ensure the battery's charge and discharge
    cycles follow a predefined curve") and computes the measured-vs-
    expected deviation; sliding windows per train then smooth it.
    Windows with mean |deviation| above threshold (battery-health
    alert) or any overheat sample trigger an alert, and each alert
    looks up the *nearest workshop* from the train's latest position.

    ``t0`` anchors the cycle phase (default: stream epoch).
    """
    t0 = T0_EPOCH if t0 is None else t0
    shapes, ids = shapes_from_df(workshop_zones)
    nearest_ws = NearestZoneExpression(field("x"), field("y"), shapes, ids).to_column()

    # Per-event: curve deviation + continuous nearest-workshop tracking
    # ("keeping track of nearby workshops" — §3.2).
    ev = events.withColumn(
        "dev_v", F.col("battery_v") - _expected_v(F.col("ts") - F.lit(t0))
    ).withColumn("nearest_ws", nearest_ws)
    agg = sliding(
        ev, time_col="t", size=window, slide=slide, keys=["train_id"],
        aggs=[
            F.avg("dev_v").alias("avg_dev_v"),
            F.max("battery_temp_c").alias("max_temp_c"),
            F.max_by("nearest_ws", "ts").alias("workshop_id"),
            F.count("*").alias("n_events"),
        ],
    )
    return agg.withColumn(
        "alert_deviation", F.abs(F.col("avg_dev_v")) > dev_threshold_v
    ).withColumn(
        "alert_overheat", F.col("max_temp_c") > overheat_c
    ).filter(F.col("alert_deviation") | F.col("alert_overheat")).select(
        F.col("w_start").cast("long").alias("w_start_s"),
        "train_id", "avg_dev_v", "max_temp_c",
        "alert_deviation", "alert_overheat", "workshop_id",
    )


def q6_heavy_passenger_load(
    events: DataFrame,
    *,
    window: str = "60 seconds",
    full_occupancy: float = 1.0,
) -> DataFrame:
    """Q6 — heavy passenger load.

    Tumbling occupancy per train; a window is *full* when peak onboard
    reaches seat capacity (no free seats) — the signal used to suggest
    adding a train (see :func:`q6_extra_train_suggestion`).
    """
    agg = tumbling(
        events, time_col="t", size=window, keys=["train_id"],
        aggs=[
            F.max("onboard").alias("max_onboard"),
            F.max("capacity").alias("capacity"),
            F.count("*").alias("n_events"),
        ],
    )
    return agg.withColumn(
        "occupancy", F.col("max_onboard") / F.col("capacity")
    ).withColumn(
        "is_full", F.col("occupancy") >= full_occupancy
    ).select(
        F.col("w_start").cast("long").alias("w_start_s"),
        "train_id", "max_onboard", "capacity", "occupancy", "is_full",
    )


def q6_extra_train_suggestion(
    windows: DataFrame, *, full_frac_threshold: float = 0.2
) -> DataFrame:
    """Per-train verdict over the Q6 windows: suggest an extra train
    when the share of full windows exceeds the threshold ("an extra
    train can be added in the following days")."""
    return (
        windows.groupBy("train_id")
        .agg(
            F.count("*").alias("n_windows"),
            F.sum(F.col("is_full").cast("long")).alias("n_full"),
        )
        .withColumn("full_frac", F.col("n_full") / F.col("n_windows"))
        .withColumn("suggest_extra_train", F.col("full_frac") > full_frac_threshold)
    )


@dataclass(frozen=True)
class ThresholdQuery:
    """A threshold-window query (Q7, Q8b) split into its two steps.

    ``flag`` is a Spark projection of the events to ``train_id``,
    ``ts``, the boolean ``flag_col`` and the columns the window reads;
    MEOS zone predicates in it are compiled Catalyst expressions. The
    other fields parameterise the threshold window, whose columns are
    the query's output after ``renames`` (window column → output name).
    The batch form (:meth:`run`) and the incremental detector
    (`repro.core.streaming.ThresholdDetector`) both consume it.
    """

    flag: Callable[[DataFrame], DataFrame]
    flag_col: str
    min_duration_s: float
    carry_cols: tuple[str, ...] = ()
    value_cols: tuple[str, ...] = ()
    renames: tuple[tuple[str, str], ...] = ()

    def window_params(self) -> dict:
        """Keyword arguments of `threshold_window` and
        `ThresholdWindowOperator`: windows per train."""
        return dict(
            key_cols=["train_id"], flag_col=self.flag_col,
            min_duration_s=self.min_duration_s,
            value_cols=self.value_cols, carry_cols=self.carry_cols,
        )

    def output(self, wins: pd.DataFrame) -> pd.DataFrame:
        """Driver-side windows in the batch form's columns."""
        return wins.rename(columns=dict(self.renames))

    def run(self, events: DataFrame) -> DataFrame:
        """The batch form: threshold windows over the whole frame."""
        wins = threshold_window(self.flag(events), **self.window_params())
        return wins.withColumnsRenamed(dict(self.renames))


def q7_threshold(
    allowed_zones: pd.DataFrame,
    *,
    min_stop_s: float = 60.0,
    speed_eps_ms: float = 0.5,
) -> ThresholdQuery:
    """Q7 — unscheduled stops (threshold window + geofence).

    Every event is geofence-checked against the allowed zones (stations
    and workshops) — the per-event MEOS predicate an edge engine
    evaluates as the stream arrives. A *stop* is a speed≈0 run of at
    least ``min_stop_s`` (threshold window per train); the stop is
    unscheduled when it began outside every allowed zone (the carried
    per-event flag at the window start).
    """
    shapes, _ = shapes_from_df(allowed_zones)
    in_allowed = EdWithinExpression(field("x"), field("y"), shapes, 0.0).to_column()

    def flag(events: DataFrame) -> DataFrame:
        return events.select(
            "train_id", "ts", "x", "y",
            (F.col("speed_ms") < speed_eps_ms).alias("stopped"),
            (~in_allowed).alias("outside_allowed"),
        )

    return ThresholdQuery(
        flag=flag, flag_col="stopped", min_duration_s=min_stop_s,
        carry_cols=("x", "y", "outside_allowed"),
        renames=(("outside_allowed_first", "unscheduled"),),
    )


def q7_unscheduled_stops(
    events: DataFrame, allowed_zones: pd.DataFrame, **params
) -> DataFrame:
    """Q7 over a static frame; ``params`` as for :func:`q7_threshold`."""
    return q7_threshold(allowed_zones, **params).run(events)


def q8_emergency_clusters(
    events: DataFrame,
    *,
    window: str = "120 seconds",
    segment_len_m: float = 5_000.0,
    emergency_bar: float = EMERGENCY_BAR,
    min_repeats: int = 3,
) -> DataFrame:
    """Q8a — repeated emergency brakes per track segment.

    Emergency events (pressure collapse below ``emergency_bar``) are
    grouped per (train, 5 km track segment, tumbling window); windows
    with ``min_repeats`` or more are the "repeated emergency brakes in
    specific track segments" pattern.
    """
    em = events.filter(F.col("brake_bar") < emergency_bar).withColumn(
        "segment", F.floor(F.col("s_route") / F.lit(segment_len_m)).cast("long")
    )
    agg = tumbling(
        em, time_col="t", size=window, keys=["train_id", "segment"],
        aggs=[F.count("*").alias("n_emergency")],
    )
    return agg.withColumn(
        "alert", F.col("n_emergency") >= min_repeats
    ).select(
        F.col("w_start").cast("long").alias("w_start_s"),
        "train_id", "segment", "n_emergency", "alert",
    )


def q8b_threshold(
    *,
    low_bar: float = LOW_PRESSURE_BAR,
    min_duration_s: float = 120.0,
    moving_eps_kmh: float = 3.6,
) -> ThresholdQuery:
    """Q8b — persistent low brake pressure while moving.

    Threshold window per train over "pressure below ``low_bar`` while
    the train is moving"; runs of at least ``min_duration_s`` indicate
    decreasing brake effectiveness.
    """

    def flag(events: DataFrame) -> DataFrame:
        return events.select(
            "train_id", "ts", "brake_bar",
            ((F.col("brake_bar") < low_bar) & (F.col("speed_kmh") > moving_eps_kmh))
            .alias("low_p"),
        )

    return ThresholdQuery(
        flag=flag, flag_col="low_p", min_duration_s=min_duration_s,
        value_cols=("brake_bar",),
    )


def q8_low_pressure(events: DataFrame, **params) -> DataFrame:
    """Q8b over a static frame; ``params`` as for :func:`q8b_threshold`."""
    return q8b_threshold(**params).run(events)

"""The benchmark's workloads: which streams, which query outputs, how cut.

Every workload replays time-interleaved SNCB streams (6 trains, 2 Hz) in
micro-batches cut on shared event-time boundaries and pushes each batch
through every one of its operations. An operation is either a query
transform from ``repro.core.queries`` whose output goes to the ``noop``
sink, or a stateful ``repro.core.streaming`` detector fed the batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import queries as Q
from repro.core.streaming import Q7StopDetector, Q8LowPressureDetector
from repro.sncb import events as E
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import weather_stream
from repro.sncb.zones import zones_df

#: Sampling step of every stream (2 Hz).
DT = 0.5

#: Stream name → generator (all from ``repro.sncb.events``).
STREAMS = {
    "geofence": E.geofence_events,
    "battery": E.battery_events,
    "passenger": E.passenger_events,
    "stop": E.stop_events,
    "brake": E.brake_events,
}

#: qid → (paper MB/s, paper events/s), Table 1 of the paper (§3.1/§3.2).
#: Kept here so that the benchmark does not import the throughput harness
#: in ``repro.core.throughput``, which it replaces as the measurement.
PAPER_TABLE1: dict[str, tuple[float, int]] = {
    "q1": (2.24, 20_000), "q2": (2.24, 20_000), "q3": (2.24, 20_000),
    "q4": (2.24, 20_000), "q5": (0.61, 8_000), "q6": (3.68, 32_000),
    "q7": (0.40, 10_000), "q8": (2.24, 20_000),
}


@dataclass(frozen=True)
class Op:
    """One checked output of a workload."""

    out: str                      # output name, q1 … q8b
    stream: str                   # input stream
    window_s: float | None = None  # event-time window length of a windowed output
    detector: bool = False        # stateful driver-side detector

    @property
    def qid(self) -> str:
        """The Table 1 row this output belongs to (q8a, q8b → q8)."""
        return self.out[:2]


OPS = {
    "q1": Op("q1", "geofence"),
    "q2": Op("q2", "geofence", window_s=60.0),
    "q3": Op("q3", "geofence"),
    "q4": Op("q4", "geofence"),
    "q5": Op("q5", "battery", window_s=300.0),
    "q6": Op("q6", "passenger", window_s=60.0),
    "q7": Op("q7", "stop", detector=True),
    "q8a": Op("q8a", "brake", window_s=120.0),
    "q8b": Op("q8b", "brake", detector=True),
}


@dataclass(frozen=True)
class Workload:
    name: str
    outs: tuple[str, ...]
    batch_rows: int      # events per stream per micro-batch
    pass_batches: int    # batches in one replay of the stream
    why: str

    @property
    def ops(self) -> list[Op]:
        return [OPS[o] for o in self.outs]

    @property
    def streams(self) -> list[str]:
        return sorted({op.stream for op in self.ops})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "geofence", ("q1", "q2", "q3", "q4"), 20_000, 5,
            "Q1-Q4 on one stream: compiled MEOS predicates, static and "
            "interval joins, one tumbling window; no UDF, no driver state",
        ),
        Workload(
            "gcep", ("q5", "q6", "q7", "q8a", "q8b"), 20_000, 3,
            "Q5-Q8 on four streams: Arrow UDFs over MEOS kernels, Q5's sliding "
            "window, driver-side threshold detectors",
        ),
    )
}


@dataclass
class Statics:
    """Static tables a workload's queries read (built during set-up)."""

    zones: dict[str, pd.DataFrame]
    weather: DataFrame | None


def make_statics(spark: SparkSession, wl: Workload, *, duration_s: float, seed: int) -> Statics:
    zones = {
        "maintenance": zones_df(["maintenance"]),
        "neighbourhood": zones_df(["neighbourhood"]),
        "curve": zones_df(["curve"]),
        "workshop": zones_df(["workshop"]),
        "allowed": zones_df(["station", "workshop"]),
    }
    weather = None
    if "q4" in wl.outs:
        weather = spark.createDataFrame(
            weather_stream(t0=T0_EPOCH, duration_s=duration_s, seed=seed)
        ).cache()
        weather.count()
    return Statics(zones, weather)


def build_query(out: str, sdf: DataFrame, st: Statics) -> DataFrame:
    """The query transform of a non-detector output over ``sdf``."""
    z = st.zones
    if out == "q1":
        return Q.q1_alert_filtering(sdf, z["maintenance"])
    if out == "q2":
        return Q.q2_noise_monitoring(sdf, z["neighbourhood"])
    if out == "q3":
        return Q.q3_dynamic_speed_limit(sdf, z["curve"])
    if out == "q4":
        return Q.q4_weather_speed_zones(sdf, st.weather)
    if out == "q5":
        return Q.q5_battery_monitoring(sdf, z["workshop"])
    if out == "q6":
        return Q.q6_heavy_passenger_load(sdf)
    if out == "q8a":
        return Q.q8_emergency_clusters(sdf)
    raise ValueError(f"{out} is not a query output")


def make_detector(out: str, st: Statics):
    """A fresh stateful detector for a detector output."""
    if out == "q7":
        return Q7StopDetector(st.zones["allowed"])
    if out == "q8b":
        return Q8LowPressureDetector()
    raise ValueError(f"{out} is not a detector output")


def reference_query(out: str, whole: DataFrame, st: Statics) -> DataFrame:
    """The batch form of an output over the whole stream."""
    if out == "q7":
        return Q.q7_unscheduled_stops(whole, st.zones["allowed"])
    if out == "q8b":
        return Q.q8_low_pressure(whole)
    return build_query(out, whole, st)

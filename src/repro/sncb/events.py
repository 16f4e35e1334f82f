"""Per-query event schemas and event-stream builders.

§3 of the paper reports, per query, a throughput in MB at a given
event rate; dividing the two fixes the nominal wire size of one event:

    Q1–Q4: 2.24 MB / 20 K e/s → 112 B/event
    Q5:    0.61 MB /  8 K e/s →  76 B/event (76.25 rounded down)
    Q6:    3.68 MB / 32 K e/s → 115 B/event
    Q7:    0.40 MB / 10 K e/s →  40 B/event
    Q8:    2.24 MB / 20 K e/s → 112 B/event

Each query's schema below lists its payload fields with their wire
sizes; the residual ``_frame`` entry is transport framing (the demo
shipped events through Kafka/CSV, which adds per-record overhead). The
tests assert every schema sums exactly to the paper-implied size, so
reported MB/s and events/s stay mutually consistent.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.sncb import sensors
from repro.sncb.trains import T0_EPOCH, fleet

#: (field, wire bytes) per query. ``_frame`` = record framing overhead.
SCHEMAS: dict[str, list[tuple[str, int]]] = {
    # Geofencing events (Q1–Q4 share one stream; per-query projections).
    "geofence": [
        ("train_id", 4), ("seq", 8), ("ts", 8), ("lon", 8), ("lat", 8),
        ("x", 8), ("y", 8), ("speed_kmh", 8), ("s_route", 8),
        ("noise_db", 8), ("battery_v", 8), ("brake_bar", 8),
        ("alert_kind", 8), ("alert_essential", 1),
        ("station_id", 4), ("leg", 4), ("direction", 1), ("_frame", 2),
    ],
    "battery": [
        ("train_id", 4), ("seq", 8), ("ts", 8), ("x", 8), ("y", 8),
        ("battery_v", 8), ("battery_expected_v", 8), ("battery_dev_v", 8),
        ("battery_temp_c", 8), ("charging", 1), ("_frame", 7),
    ],
    "passenger": [
        ("train_id", 4), ("seq", 8), ("ts", 8), ("x", 8), ("y", 8),
        ("lon", 8), ("lat", 8), ("station_id", 4), ("boarded", 4),
        ("alighted", 4), ("onboard", 4), ("capacity", 4), ("occupancy", 8),
        ("speed_kmh", 8), ("route", 8), ("dwell", 8), ("_frame", 11),
    ],
    "stop": [
        ("train_id", 4), ("ts", 8), ("x", 8), ("y", 8), ("speed_ms", 8),
        ("dwell_flag", 1), ("_frame", 3),
    ],
    "brake": [
        ("train_id", 4), ("seq", 8), ("ts", 8), ("x", 8), ("y", 8),
        ("lon", 8), ("lat", 8), ("s_route", 8), ("leg", 4),
        ("speed_kmh", 8), ("brake_bar", 8), ("battery_v", 8),
        ("braking", 1), ("is_emergency", 1), ("in_hot_segment", 1),
        ("route", 8), ("station_id", 4), ("_frame", 9),
    ],
}

#: Wire bytes of one Q7 stop-window record: train, bounds, duration,
#: position, flag (what an edge worker ships instead of raw events).
Q7_WINDOW_RECORD_B = 64

#: query id → schema key.
QUERY_SCHEMA: dict[str, str] = {
    "q1": "geofence", "q2": "geofence", "q3": "geofence", "q4": "geofence",
    "q5": "battery", "q6": "passenger", "q7": "stop", "q8": "brake",
}


def nominal_event_size(schema: str) -> int:
    """Wire bytes of one event of ``schema`` (payload + framing)."""
    return sum(b for _, b in SCHEMAS[schema])


def event_size_for_query(q: str) -> int:
    return nominal_event_size(QUERY_SCHEMA[q])


def _with_seq(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reset_index(drop=True)
    df["seq"] = np.arange(len(df), dtype=np.int64)
    return df


def _payload_columns(schema: str) -> list[str]:
    return [f for f, _ in SCHEMAS[schema] if not f.startswith("_")]


def geofence_events(
    *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0, t0: float = T0_EPOCH
) -> pd.DataFrame:
    """The shared Q1–Q4 stream: trajectory + noise + battery + brake
    channels + alert flags, projected to the geofence schema (+`t`
    timestamp column for Spark windows)."""
    df = fleet(duration_s=duration_s, dt=dt, seed=seed, t0=t0)
    df = sensors.noise(df, seed=seed)
    df = sensors.battery(df, seed=seed)
    df = sensors.brakes(df, seed=seed)
    df = sensors.alerts(df, seed=seed)
    df = _with_seq(df)
    cols = _payload_columns("geofence")
    return df[cols + ["t"]]


def battery_events(
    *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0, t0: float = T0_EPOCH
) -> pd.DataFrame:
    """Q5 stream: battery channel events."""
    df = fleet(duration_s=duration_s, dt=dt, seed=seed, t0=t0)
    df = sensors.battery(df, seed=seed)
    df = _with_seq(df)
    return df[_payload_columns("battery") + ["t"]]


def passenger_events(
    *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0, t0: float = T0_EPOCH
) -> pd.DataFrame:
    """Q6 stream: occupancy events."""
    df = fleet(duration_s=duration_s, dt=dt, seed=seed, t0=t0)
    df = sensors.passengers(df, seed=seed)
    df = _with_seq(df)
    return df[_payload_columns("passenger") + ["t"]]


def stop_events(
    *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0, t0: float = T0_EPOCH
) -> pd.DataFrame:
    """Q7 stream: minimal position/speed events (40 B — the leanest
    schema, matching the paper's smallest payload)."""
    df = fleet(duration_s=duration_s, dt=dt, seed=seed, t0=t0)
    df = _with_seq(df)
    df["dwell_flag"] = (df["dwell"] != "").astype(np.int8)
    return df[_payload_columns("stop") + ["t", "dwell"]]


def brake_events(
    *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0, t0: float = T0_EPOCH
) -> pd.DataFrame:
    """Q8 stream: brake channel events."""
    df = fleet(duration_s=duration_s, dt=dt, seed=seed, t0=t0)
    df = sensors.battery(df, seed=seed)
    df = sensors.brakes(df, seed=seed)
    df = _with_seq(df)
    return df[_payload_columns("brake") + ["t"]]


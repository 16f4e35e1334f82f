"""Unit tests for repro.sncb.events — per-query event schemas/builders."""
import numpy as np
import pytest

from repro.sncb.events import (
    QUERY_SCHEMA,
    SCHEMAS,
    battery_events,
    brake_events,
    event_size_for_query,
    geofence_events,
    nominal_event_size,
    passenger_events,
    stop_events,
)

#: Paper-implied event sizes: MB ÷ events/s from §3.1/§3.2.
PAPER_SIZES = {"q1": 112, "q2": 112, "q3": 112, "q4": 112,
               "q5": 76, "q6": 115, "q7": 40, "q8": 112}


class TestSchemaSizes:
    @pytest.mark.parametrize("q,size", sorted(PAPER_SIZES.items()))
    def test_schema_matches_paper_implied_size(self, q, size):
        assert event_size_for_query(q) == size

    def test_all_queries_have_schema(self):
        assert set(QUERY_SCHEMA) == {f"q{i}" for i in range(1, 9)}

    def test_geofence_shared_by_q1_to_q4(self):
        assert len({QUERY_SCHEMA[f"q{i}"] for i in range(1, 5)}) == 1

    def test_frame_overhead_is_minor(self):
        # Padding must stay bookkeeping, not the payload.
        for name, fields in SCHEMAS.items():
            frame = sum(b for f, b in fields if f.startswith("_"))
            assert frame <= 0.15 * nominal_event_size(name), name

    def test_no_duplicate_fields(self):
        for fields in SCHEMAS.values():
            names = [f for f, _ in fields]
            assert len(names) == len(set(names))


class TestBuilders:
    @pytest.mark.parametrize("builder,schema", [
        (geofence_events, "geofence"),
        (battery_events, "battery"),
        (passenger_events, "passenger"),
        (stop_events, "stop"),
        (brake_events, "brake"),
    ])
    def test_builder_emits_all_payload_fields(self, builder, schema):
        df = builder(duration_s=120.0, seed=0)
        payload = [f for f, _ in SCHEMAS[schema] if not f.startswith("_")]
        for f in payload:
            assert f in df.columns, f"{schema} missing {f}"
        assert "t" in df.columns  # Spark-side event-time column

    def test_six_trains_in_stream(self):
        df = geofence_events(duration_s=120.0, seed=0)
        assert df["train_id"].nunique() == 6

    def test_seq_is_dense(self):
        df = battery_events(duration_s=120.0, seed=0)
        np.testing.assert_array_equal(df["seq"], np.arange(len(df)))

    def test_deterministic(self):
        a = brake_events(duration_s=120.0, seed=4)
        b = brake_events(duration_s=120.0, seed=4)
        assert a.equals(b)

    def test_rate_scales_with_dt(self):
        a = stop_events(duration_s=300.0, dt=1.0)
        b = stop_events(duration_s=300.0, dt=5.0)
        assert abs(len(a) / len(b) - 5.0) < 0.5

    def test_stop_events_lean(self):
        df = stop_events(duration_s=60.0)
        # Q7's wire schema is 6 fields (+t, dwell kept for ground truth).
        assert len([c for c in df.columns if c not in ("t", "dwell")]) == 6

    def test_geofence_has_alert_fields(self):
        df = geofence_events(duration_s=600.0, seed=0)
        assert (df["alert_kind"] != "").any()

"""Structured-Streaming tests for the NebulaMEOS queries.

Each test replays a synthesized SNCB stream through a real Spark
streaming query (file source → memory sink or foreachBatch) and checks
the streamed result against the batch form of the same query — batch
results are themselves oracle-checked in test_core_queries_*.py, so
agreement here closes the loop.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import queries as Q
from repro.core.streaming import (
    Q7StopDetector,
    Q8LowPressureDetector,
    q1_streaming,
    q2_streaming,
    q3_streaming,
    q6_streaming,
    run_foreach_batch_stream,
)
from repro.nebula.engine import (
    _spark_schema_of,
    split_batches,
    stream_events_end_to_end,
    stream_from_files,
    write_stream_files,
)
from repro.sncb.network import N_TRAINS
from repro.sncb.sensors import LOW_PRESSURE_BAR
from repro.sncb.zones import zones_df

#: One tick of a time-ordered stream: one event per train.
TICK_ROWS = N_TRAINS
#: Ticks replayed one per batch. Each batch is a Spark job (~0.1 s), so
#: the 40/60 min fixtures are cut to their first 200 s, which still hold
#: closed Q7 stops and a Q8b run left open across ~140 batches.
TICK_PREFIX = 200


def _canon(pdf, cols):
    pdf = pdf[cols].sort_values(cols).reset_index(drop=True)
    casts = {}
    for c in cols:
        if pdf[c].dtype.kind == "f":
            casts[c] = "float64"
        elif pdf[c].dtype.kind in "iu":
            casts[c] = "int64"
    return pdf.astype(casts)


class TestQ1Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["maintenance"])
        streamed = stream_events_end_to_end(
            spark, q1_streaming(zones), geofence_pdf, n_files=6
        )
        batch = Q.q1_alert_filtering(geofence_sdf, zones).toPandas()
        cols = ["train_id", "ts", "alert_kind"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


class TestQ2Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["neighbourhood"])
        streamed = stream_events_end_to_end(
            spark, q2_streaming(zones), geofence_pdf, n_files=6,
            output_mode="append",
        )
        batch = Q.q2_noise_monitoring(geofence_sdf, zones).toPandas()
        cols = ["w_start_s", "zone_id", "n_events", "max_noise_db"]
        # Append mode emits only watermark-closed windows; every emitted
        # window must match its batch counterpart, and most windows
        # must have been emitted.
        streamed_c = _canon(streamed, cols)
        batch_c = _canon(batch, cols)
        merged = streamed_c.merge(batch_c, on=cols, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()
        assert len(streamed_c) >= 0.5 * len(batch_c)


class TestQ3Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["curve"])
        streamed = stream_events_end_to_end(
            spark, q3_streaming(zones), geofence_pdf, n_files=6
        )
        batch = Q.q3_dynamic_speed_limit(geofence_sdf, zones).toPandas()
        cols = ["train_id", "ts", "zone_id", "speed_limit_kmh"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


class TestQ6Streaming:
    def test_matches_batch(self, spark, passenger_pdf, passenger_sdf):
        streamed = stream_events_end_to_end(
            spark,
            q6_streaming(),
            passenger_pdf.drop(columns=["route", "dwell"]),
            n_files=6,
            output_mode="append",
        )
        batch = Q.q6_heavy_passenger_load(passenger_sdf).toPandas()
        cols = ["w_start_s", "train_id", "max_onboard"]
        streamed_c = _canon(streamed, cols)
        batch_c = _canon(batch, cols)
        merged = streamed_c.merge(batch_c, on=cols, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()
        assert len(streamed_c) >= 0.5 * len(batch_c)


class TestQ7ForeachBatch:
    def test_matches_batch_threshold_query(self, spark, stop_pdf, stop_sdf):
        """The stateful foreachBatch pipeline must find exactly the
        stops the batch threshold query finds, regardless of file/batch
        boundaries."""
        allowed = zones_df(["station", "workshop"])
        det = Q7StopDetector(allowed, min_stop_s=90.0)
        import tempfile

        file_pdf = stop_pdf.drop(columns=["t", "dwell"])
        with tempfile.TemporaryDirectory() as d:
            write_stream_files(file_pdf, d, n_files=10)
            src = stream_from_files(spark, d, _spark_schema_of(spark, file_pdf))
            streamed = run_foreach_batch_stream(spark, src, det)

        batch = Q.q7_unscheduled_stops(stop_sdf, allowed, min_stop_s=90.0).toPandas()
        cols = ["train_id", "w_start", "w_end", "n_events"]
        pd.testing.assert_frame_equal(
            _canon(streamed, cols), _canon(batch, cols)
        )
        # Classification agrees too.
        s = streamed.sort_values(["train_id", "w_start"]).reset_index(drop=True)
        b = batch.sort_values(["train_id", "w_start"]).reset_index(drop=True)
        np.testing.assert_array_equal(s["unscheduled"], b["unscheduled"])


class TestQ8bForeachBatch:
    def test_matches_batch_threshold_query(self, spark, brake_pdf, brake_sdf):
        det = Q8LowPressureDetector()
        import tempfile

        file_pdf = brake_pdf.drop(columns=["t"])
        with tempfile.TemporaryDirectory() as d:
            write_stream_files(file_pdf, d, n_files=10)
            src = stream_from_files(spark, d, _spark_schema_of(spark, file_pdf))
            streamed = run_foreach_batch_stream(spark, src, det)

        batch = Q.q8_low_pressure(brake_sdf).toPandas()
        cols = ["train_id", "w_start", "w_end", "n_events"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


def _threshold_case(query):
    """(event fixture, detector factory, batch form) of a threshold query."""
    if query == "q7":
        allowed = zones_df(["station", "workshop"])
        return (
            "stop_pdf",
            lambda: Q7StopDetector(allowed),
            lambda df: Q.q7_unscheduled_stops(df, allowed),
        )
    return "brake_pdf", Q8LowPressureDetector, Q.q8_low_pressure


class TestDetectorBatchSizes:
    @pytest.mark.parametrize(
        "batch_rows", [TICK_ROWS, 997, None], ids=["tick", "997", "whole"]
    )
    @pytest.mark.parametrize("query", ["q7", "q8b"])
    def test_finish_matches_batch_form(self, spark, request, query, batch_rows):
        """However the time-ordered stream is cut, with an empty batch
        in the middle, the detector finds the batch form's rows,
        including Q7's ``unscheduled`` flags."""
        fixture, make_detector, batch_form = _threshold_case(query)
        pdf = request.getfixturevalue(fixture).sort_values(
            ["ts", "train_id"], kind="stable"
        )
        if batch_rows == TICK_ROWS:
            pdf = pdf.iloc[: TICK_PREFIX * TICK_ROWS]
        pdf = pdf.reset_index(drop=True)
        whole = spark.createDataFrame(pdf)
        batches = list(split_batches(pdf, batch_rows or len(pdf)))
        batches.insert(len(batches) // 2, pdf.iloc[0:0])

        det = make_detector()
        for b in batches:
            det.process_spark_batch(spark.createDataFrame(b, schema=whole.schema))
        got = det.finish()
        want = batch_form(whole).toPandas()

        assert len(want) > 0
        assert list(got.columns) == list(want.columns)
        keys = ["train_id", "w_start"]
        pd.testing.assert_frame_equal(
            got.sort_values(keys).reset_index(drop=True),
            want.sort_values(keys).reset_index(drop=True),
            check_dtype=False,
        )


class TestDetectorEmptyResults:
    def test_q8b_without_low_pressure_keeps_batch_columns(self, spark, brake_pdf, brake_sdf):
        no_low = brake_pdf[brake_pdf["brake_bar"] >= LOW_PRESSURE_BAR]
        columns = Q.q8_low_pressure(brake_sdf).columns
        det = Q8LowPressureDetector()
        for part in split_batches(no_low, len(no_low) // 2 + 1):
            wins = det.process_spark_batch(spark.createDataFrame(part))
            assert len(wins) == 0 and list(wins.columns) == columns
        got = det.finish()
        assert len(got) == 0
        assert list(got.columns) == columns

"""Tests of the benchmark's own helpers: checksum, load generator, tail rule.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from perfbench.checksum import ROUND_DIGITS, Cuts, checksum
from perfbench.loadgen import (
    StreamOrderError,
    batch_index,
    check_monotone,
    cut_batches,
    interleave,
    ticks,
)
from perfbench.stats import MIN_BEYOND, nearest_rank, percentile, tail_percentile
from repro.sncb.events import passenger_events, stop_events
from repro.sncb.trains import T0_EPOCH

# ---------------------------------------------------------------------
# Checksum
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(3)
    return pd.DataFrame({
        "k": np.arange(200, dtype=np.int64) % 7,
        "v": rng.normal(size=200),
        "s": [f"s{i % 5}" for i in range(200)],
    })


def test_checksum_ignores_row_order(spark, rows):
    a = checksum(spark.createDataFrame(rows))
    b = checksum(spark.createDataFrame(rows.sample(frac=1.0, random_state=1)))
    c = checksum(spark.createDataFrame(rows).repartition(5))
    assert a == b == c
    assert a["n"] == len(rows)


def test_checksum_rounds_floats(spark, rows):
    base = checksum(spark.createDataFrame(rows))
    jitter = rows.assign(v=rows["v"] + 10.0 ** -(ROUND_DIGITS + 4))
    assert checksum(spark.createDataFrame(jitter)) == base
    changed = rows.assign(v=rows["v"] + 10.0 ** -(ROUND_DIGITS - 1))
    assert checksum(spark.createDataFrame(changed))["h"] != base["h"]


def test_checksum_sees_a_changed_or_missing_row(spark, rows):
    base = checksum(spark.createDataFrame(rows))
    assert checksum(spark.createDataFrame(rows.iloc[1:]))["h"] != base["h"]
    flipped = rows.copy()
    flipped.loc[0, "s"] = "other"
    got = checksum(spark.createDataFrame(flipped))
    assert got["n"] == base["n"] and got["h"] != base["h"]


def test_checksum_sum_does_not_overflow(spark):
    # Hashes near ±2^63 overflow a long sum under ANSI mode.
    df = spark.range(5000).select(F.col("id").alias("k"))
    assert checksum(df)["n"] == 5000


def test_interior_windows_are_those_no_cut_splits(spark):
    cuts = Cuts(T0_EPOCH, 0.5, 6, 2_000)   # a cut every 2000/6 ticks = 166.67 s
    starts = np.arange(0, 1200, 60, dtype=np.int64) + int(T0_EPOCH)
    got = (
        spark.createDataFrame(pd.DataFrame({"w_start_s": starts}))
        .select("w_start_s", cuts.interior(F.col("w_start_s"), 60.0).alias("inside"))
        .toPandas()
    )
    first = batch_index(ticks(pd.DataFrame({"ts": starts}), t0=T0_EPOCH, dt=0.5), trains=6, batch_rows=2_000)
    last = batch_index(
        ticks(pd.DataFrame({"ts": starts + 59.5}), t0=T0_EPOCH, dt=0.5), trains=6, batch_rows=2_000
    )
    assert got["inside"].tolist() == (first == last).tolist()
    # Cut instants at 166.67 s, 333.33 s, 500 s, ...: the window at 120 s
    # straddles the first cut, the one at 0 s does not.
    assert got["inside"].iloc[0] and not got["inside"].iloc[2]


# ---------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def raw_stop():
    return stop_events(duration_s=900.0, dt=0.5, seed=4)


def test_builders_are_train_ordered(raw_stop):
    with pytest.raises(StreamOrderError):
        check_monotone(raw_stop)


def test_interleave_is_monotone_in_ts(raw_stop):
    out = interleave(raw_stop)
    assert len(out) == len(raw_stop)
    assert (np.diff(out["ts"].to_numpy()) >= 0).all()
    # Within one tick the trains follow in id order.
    tick = out[out["ts"] == out["ts"].iloc[0]]
    assert tick["train_id"].tolist() == sorted(tick["train_id"])


def test_cut_batches_share_event_time_cuts(raw_stop):
    streams = {
        "stop": interleave(raw_stop),
        "passenger": interleave(passenger_events(duration_s=900.0, dt=0.5, seed=4)),
    }
    batches = cut_batches(streams, t0=T0_EPOCH, dt=0.5, trains=6, batch_rows=2_000)
    assert sum(len(b["stop"]) for b in batches) == len(streams["stop"])
    for b in batches[:-1]:
        assert abs(len(b["stop"]) - 2_000) <= 6
        assert b["stop"]["ts"].min() == b["passenger"]["ts"].min()
        assert b["stop"]["ts"].max() == b["passenger"]["ts"].max()
    for prev, nxt in zip(batches, batches[1:]):
        assert prev["stop"]["ts"].max() < nxt["stop"]["ts"].min()


# ---------------------------------------------------------------------
# Tail percentile
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0),
             (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    assert n - nearest_rank(n, p) >= MIN_BEYOND


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile(19) is None
    assert tail_percentile(6) is None


def test_percentile_is_an_observed_value():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert sum(x > percentile(xs, tail_percentile(len(xs))) for x in xs) >= MIN_BEYOND

"""Query execution: micro-batch splitting and Structured Streaming.

The same query — a ``DataFrame → DataFrame`` transform — runs on a
static DataFrame, on each micro-batch of a replayed stream, and under
Spark Structured Streaming, mirroring how a NebulaStream query executes
identically whether fed from a replayed file or a live source:

* :func:`split_batches` — cut an event frame into contiguous
  micro-batches (the throughput harness feeds each to the transform).
* :func:`stream_from_files` + :func:`run_streaming_to_memory` — real
  Spark Structured Streaming: events are written as JSON part files,
  read with ``readStream``, and collected through a memory sink. Tests
  use this path to prove watermark/window behaviour end-to-end.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import uuid
from collections.abc import Callable, Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

Transform = Callable[[DataFrame], DataFrame]


def split_batches(pdf: pd.DataFrame, batch_rows: int) -> Iterator[pd.DataFrame]:
    """Split an event frame into contiguous micro-batches (stream order
    = frame order)."""
    if batch_rows <= 0:
        raise ValueError("batch_rows must be positive")
    for i in range(0, len(pdf), batch_rows):
        yield pdf.iloc[i : i + batch_rows]


# ---------------------------------------------------------------------
# Structured Streaming path
# ---------------------------------------------------------------------

def _spark_schema_of(spark: SparkSession, pdf: pd.DataFrame) -> T.StructType:
    return spark.createDataFrame(pdf.head(2)).schema


def write_stream_files(
    pdf: pd.DataFrame,
    directory: str,
    *,
    n_files: int = 8,
    ts_col: str = "ts",
) -> list[str]:
    """Write the event frame as time-ordered JSON part files — the
    replayed "continuous event stream" of §3 (the paper simulates its
    stream from a recorded dataset the same way)."""
    os.makedirs(directory, exist_ok=True)
    pdf = pdf.sort_values(ts_col)
    rows = len(pdf)
    per = math.ceil(rows / n_files) if rows else 1
    paths = []
    for i, start in enumerate(range(0, rows, per)):
        part = pdf.iloc[start : start + per]
        path = os.path.join(directory, f"part-{i:05d}.json")
        with open(path, "w") as f:
            for rec in part.to_dict(orient="records"):
                f.write(json.dumps(rec, default=str) + "\n")
        paths.append(path)
    return paths


def stream_from_files(
    spark: SparkSession,
    directory: str,
    schema: T.StructType,
    *,
    max_files_per_trigger: int = 1,
) -> DataFrame:
    """A Structured Streaming source over JSON part files."""
    return (
        spark.readStream.schema(schema)
        .option("maxFilesPerTrigger", max_files_per_trigger)
        .json(directory)
    )


def run_streaming_to_memory(
    sdf: DataFrame,
    *,
    query_name: str | None = None,
    output_mode: str = "append",
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Start the streaming query with a memory sink, process everything
    available, and return the collected result."""
    name = query_name or f"q_{uuid.uuid4().hex[:8]}"
    query = (
        sdf.writeStream.format("memory")
        .queryName(name)
        .outputMode(output_mode)
        .trigger(availableNow=True)
        .start()
    )
    try:
        query.awaitTermination(timeout_s)
    finally:
        if query.isActive:
            query.stop()
    spark = sdf.sparkSession
    return spark.table(name).toPandas()


def stream_events_end_to_end(
    spark: SparkSession,
    transform: Transform,
    pdf: pd.DataFrame,
    *,
    ts_datetime_col: str = "t",
    n_files: int = 8,
    output_mode: str = "append",
) -> pd.DataFrame:
    """Full streaming round trip: spill ``pdf`` to JSON files, read as a
    stream, apply ``transform``, collect via memory sink.

    JSON loses the datetime dtype, so the event-time column is restored
    from the epoch-seconds ``ts`` column after read.
    """
    from pyspark.sql import functions as F

    with tempfile.TemporaryDirectory(prefix="nebula-stream-") as d:
        file_pdf = pdf.drop(columns=[ts_datetime_col], errors="ignore")
        write_stream_files(file_pdf, d, n_files=n_files)
        schema = _spark_schema_of(spark, file_pdf)
        src = stream_from_files(spark, d, schema)
        src = src.withColumn(ts_datetime_col, F.timestamp_seconds(F.col("ts")))
        return run_streaming_to_memory(
            transform(src), output_mode=output_mode
        )

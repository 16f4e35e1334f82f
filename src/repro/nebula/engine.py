"""Query execution: micro-batch splitting and Structured Streaming.

The same query — a ``DataFrame → DataFrame`` transform — runs on a
static DataFrame, on each micro-batch of a replayed stream, and under
Spark Structured Streaming, mirroring how a NebulaStream query executes
identically whether fed from a replayed file or a live source:

* :func:`split_batches` — cut an event frame into contiguous
  micro-batches (tests use it to feed one transform batch by batch).
* :func:`stream_from_files` + :func:`run_streaming_to_memory` — real
  Spark Structured Streaming: events are written as JSON part files,
  read with ``readStream``, and collected through a memory sink. Tests
  use this path to prove watermark/window behaviour end-to-end.
  :func:`run_available_now` is the one start → await → stop step every
  streaming run goes through.
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
from pyspark.sql.streaming import DataStreamWriter

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


def run_available_now(writer: DataStreamWriter, timeout_s: float) -> None:
    """Start ``writer`` with an ``availableNow`` trigger and wait until it
    has processed everything available.

    Raises ``TimeoutError`` if the query is still active after
    ``timeout_s``: its sink then holds a partial result. The query is
    stopped either way.
    """
    query = writer.trigger(availableNow=True).start()
    try:
        if not query.awaitTermination(timeout_s):
            raise TimeoutError(
                f"streaming query still active after {timeout_s} s"
            )
    finally:
        if query.isActive:
            query.stop()


def run_streaming_to_memory(
    sdf: DataFrame,
    *,
    query_name: str | None = None,
    output_mode: str = "append",
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Run the streaming query into a memory sink over everything
    available, and return the collected result."""
    name = query_name or f"q_{uuid.uuid4().hex[:8]}"
    run_available_now(
        sdf.writeStream.format("memory").queryName(name).outputMode(output_mode),
        timeout_s,
    )
    return sdf.sparkSession.table(name).toPandas()


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

"""Time-interleaved SNCB load generator.

The ``repro.sncb.events`` builders return one frame per stream with the
six trains concatenated (ordered by train, so ``ts`` steps backwards at
every train change). A stream engine sees the trains interleaved in
event time; :func:`interleave` produces that order and
:func:`cut_batches` slices every stream of a workload on the same
event-time boundaries.

All trains sample the same ``dt`` grid anchored at the stream epoch, so
an event's tick ``round((ts - t0) / dt)`` is an integer. Batch ``k``
holds ticks ``j`` with ``floor(j * trains / batch_rows) == k``: each
batch carries ``batch_rows`` events give or take one tick, and the cut
instants are the same for every stream with the same train count.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


class StreamOrderError(ValueError):
    """A generated stream is not in event-time order."""


def interleave(pdf: pd.DataFrame) -> pd.DataFrame:
    """Merge per-train frames into one stream ordered by (ts, train_id)."""
    out = pdf.sort_values(["ts", "train_id"], kind="stable").reset_index(drop=True)
    check_monotone(out)
    return out


def check_monotone(pdf: pd.DataFrame, ts_col: str = "ts") -> None:
    """Raise unless ``ts`` never decreases along the frame."""
    ts = pdf[ts_col].to_numpy()
    back = np.flatnonzero(np.diff(ts) < 0)
    if back.size:
        raise StreamOrderError(
            f"{back.size} backward steps in {ts_col!r}, first at row {back[0] + 1}"
        )


def ticks(pdf: pd.DataFrame, *, t0: float, dt: float) -> np.ndarray:
    """Integer sampling tick of every event."""
    j = (pdf["ts"].to_numpy() - t0) / dt
    r = np.rint(j)
    if not np.allclose(j, r, atol=1e-6):
        raise StreamOrderError("timestamps are off the sampling grid")
    return r.astype(np.int64)


def batch_index(tick: np.ndarray, *, trains: int, batch_rows: int) -> np.ndarray:
    """Batch of each tick: ``floor(tick * trains / batch_rows)``."""
    return (np.asarray(tick, dtype=np.int64) * trains) // batch_rows


def cut_batches(
    streams: dict[str, pd.DataFrame],
    *,
    t0: float,
    dt: float,
    trains: int,
    batch_rows: int,
) -> list[dict[str, pd.DataFrame]]:
    """Slice interleaved streams into micro-batches on shared event-time
    cuts; batch ``k`` maps every stream name to its slice."""
    per_stream = {}
    n_batches = 0
    for name, pdf in streams.items():
        b = batch_index(ticks(pdf, t0=t0, dt=dt), trains=trains, batch_rows=batch_rows)
        bounds = np.searchsorted(b, np.arange(b[-1] + 2), side="left")
        per_stream[name] = (pdf, bounds)
        n_batches = max(n_batches, len(bounds) - 1)
    return [
        {
            name: pdf.iloc[bounds[k] : bounds[k + 1]] if k + 1 < len(bounds) else pdf.iloc[0:0]
            for name, (pdf, bounds) in per_stream.items()
        }
        for k in range(n_batches)
    ]

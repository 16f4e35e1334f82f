"""Table 1b — uplink bytes under cloud vs push-down placement.

    PYTHONPATH=src python jobs/pushdown_report.py [--duration-s 3600]

Quantifies the paper's "push computation to IoT devices" claim on the
simulated coordinator/worker topology. The edge-side selectivities are
the real query outputs over the whole stream: Q1's surviving alerts and
Q7's stop windows, each divided by the number of input events.
"""
import argparse

from repro.core.queries import q1_alert_filtering, q7_unscheduled_stops
from repro.nebula.topology import Operator, Topology, place, transfer_bytes
from repro.sncb.events import (
    Q7_WINDOW_RECORD_B,
    event_size_for_query,
    geofence_events,
    stop_events,
)
from repro.sncb.zones import zones_df

from _common import get_spark


def report(qid: str, label: str, op: Operator, n_events: int) -> None:
    """Print the uplink of ``op`` over ``n_events`` under both placements."""
    size = event_size_for_query(qid)
    for strat in ("cloud", "pushdown"):
        rep = transfer_bytes([op], place([op], strat), n_events=n_events, event_size=size)
        print(
            f"{qid.upper()}  {strat:<9} uplink={rep.bytes_shipped/1e6:8.3f} MB "
            f"({rep.events_shipped:,} {label}, savings {rep.savings_frac:.1%})"
        )


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--duration-s", type=float, default=3600.0)
    p.add_argument("--dt", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    stream = dict(duration_s=args.duration_s, dt=args.dt, seed=args.seed)

    spark = get_spark("nebulameos-pushdown")
    spark.sparkContext.setLogLevel("ERROR")
    print(f"topology: {len(Topology(6).edges)} edge workers + 1 coordinator\n")

    # Q1: alert filter at the edge.
    gf = geofence_events(**stream)
    n_alerts = q1_alert_filtering(
        spark.createDataFrame(gf), zones_df(["maintenance"])
    ).count()
    report("q1", "events", Operator("q1_filter", n_alerts / len(gf)), len(gf))

    # Q7: stop-window detection at the edge.
    st = stop_events(**stream)
    n_windows = q7_unscheduled_stops(
        spark.createDataFrame(st), zones_df(["station", "workshop"])
    ).count()
    op7 = Operator("q7_windows", n_windows / len(st), out_event_size=Q7_WINDOW_RECORD_B)
    report("q7", "records", op7, len(st))
    spark.stop()

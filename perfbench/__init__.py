"""Closed-loop replay benchmark of the eight NebulaMEOS queries (Table 1).

Run one workload with::

    python3 perfbench/run.py --workload geofence --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
outputs are checked.
"""

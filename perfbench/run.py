"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload geofence --seed 1 --seconds 30 --trace 0

Human-readable lines go to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run. Spans, the Table 1 report and the
run's provenance are written under ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _paths() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(ROOT)]
    # Python workers started by Spark import the UDFs' modules too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    # Keep every file Spark and its JVMs write inside the checkout.
    os.environ["TMPDIR"] = str(BENCH / ".work" / "tmp")
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _paths()
    (BENCH / ".work" / "tmp").mkdir(parents=True, exist_ok=True)
    from perfbench.bench import run

    result = run(
        args.workload, seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace),
        root=ROOT, out_dir=BENCH / "results", work=BENCH / ".work",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

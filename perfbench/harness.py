"""Set-up, closed-loop replay, whole-stream reference and output check.

The loop is closed: batch ``k + 1`` is ingested only after every
operation of batch ``k`` has materialised its result (query outputs
through the ``noop`` sink, detectors through their ``toPandas``). One
replay (a *pass*) pushes the whole generated stream through the
workload; the loop repeats passes with fresh detector state until the
run's time is spent, and checks every complete pass.
"""
from __future__ import annotations

import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, Observation, SparkSession

from perfbench.checksum import Cuts, checksum, checksum_aggs
from perfbench.loadgen import cut_batches, interleave
from perfbench.tracing import NullTracer, Tracer, job_group_counts, plan_phases_ms
from perfbench.workloads import (
    DT,
    STREAMS,
    Op,
    Statics,
    Workload,
    build_query,
    make_detector,
    make_statics,
    reference_query,
)
from repro.sncb.network import N_TRAINS
from repro.sncb.trains import T0_EPOCH

#: An operation slower than this counts as failed (timed out).
OP_TIMEOUT_S = 60.0
#: Driver JVM heap, fixed (initial = maximum) so that peak RSS does not
#: depend on when the JVM decides to grow its heap.
DRIVER_MEMORY = "1536m"
#: JVM options of the driver. A run is about a minute long, too short for
#: C2 to settle: with tiered compilation, gcep batch latency still fell
#: by 30% within a 20 s loop (2.77 s to 1.97 s per batch, 4 cores). With
#: the C1 compiler alone, the same loop's batches stayed within 6% of
#: their mean.
JVM_OPTIONS = f"-Xms{DRIVER_MEMORY} -XX:TieredStopAtLevel=1 -XX:-UsePerfData"


# ---------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------

@dataclass
class Replay:
    """The generated streams of one workload and their micro-batches."""

    streams: dict[str, pd.DataFrame]
    batches: list[dict[str, pd.DataFrame]]
    cuts: Cuts
    duration_s: float
    gen_s: float

    @property
    def events(self) -> int:
        """Events generated, over all streams."""
        return sum(len(s) for s in self.streams.values())


def generate(wl: Workload, seed: int) -> Replay:
    """Generate, interleave and cut the workload's streams."""
    t = time.perf_counter()
    duration_s = wl.pass_batches * wl.batch_rows / N_TRAINS * DT
    streams = {
        s: interleave(STREAMS[s](duration_s=duration_s, dt=DT, seed=seed))
        for s in wl.streams
    }
    cuts = Cuts(T0_EPOCH, DT, N_TRAINS, wl.batch_rows)
    batches = cut_batches(
        streams, t0=T0_EPOCH, dt=DT, trains=N_TRAINS, batch_rows=wl.batch_rows
    )
    return Replay(streams, batches, cuts, duration_s, time.perf_counter() - t)


# ---------------------------------------------------------------------
# Session and set-up
# ---------------------------------------------------------------------

def start_session(cores: int, work: Path) -> SparkSession:
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"{JVM_OPTIONS} -Djava.io.tmpdir={tmp}")
        .config("spark.local.dir", str(tmp))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the Spark context and the gateway JVM, and wait for it."""
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def jvm_pid() -> int | None:
    proc = getattr(SparkContext._gateway, "proc", None)
    return proc.pid if proc is not None else None


# ---------------------------------------------------------------------
# The replay loop
# ---------------------------------------------------------------------

@dataclass
class PassOutput:
    """What one complete pass produced, per output."""

    sums: dict[str, dict[str, int]]
    detectors: dict[str, object]


@dataclass
class Loop:
    wall_s: float = 0.0
    events: int = 0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: list[PassOutput] = field(default_factory=list)
    batches_run: list[int] = field(default_factory=list)
    rows_in: dict[str, int] = field(default_factory=dict)
    rows_out: dict[str, int] = field(default_factory=dict)
    open_run_rows_max: int = 0
    errors: list[str] = field(default_factory=list)


class Runner:
    """Runs a workload's operations over micro-batches on one session."""

    def __init__(self, spark: SparkSession, wl: Workload, st: Statics, replay: Replay):
        self.spark = spark
        self.wl = wl
        self.st = st
        self.replay = replay

    def ingest(self, pdf: pd.DataFrame) -> DataFrame:
        return self.spark.createDataFrame(pdf)

    def fresh_detectors(self) -> dict[str, object]:
        return {op.out: make_detector(op.out, self.st) for op in self.wl.ops if op.detector}

    def run_op(self, op: Op, sdf: DataFrame, dets, tracer: Tracer, parent: str):
        """Run one operation; returns (rows out, observed sums or None)."""
        if op.detector:
            with tracer.span("state", parent) as s:
                wins = dets[op.out].process_spark_batch(sdf)
            s.counts["out"] = op.out
            return len(wins), None
        with tracer.span("build", parent) as s:
            df = build_query(op.out, sdf, self.st)
        s.counts["out"] = op.out
        with tracer.span("exec", parent) as s:
            obs = Observation()
            checked = df.observe(
                obs, *checksum_aggs(df, cuts=self.replay.cuts, window_s=op.window_s)
            )
            checked.write.format("noop").mode("overwrite").save()
            vals = {k: int(v) for k, v in obs.get.items()}
        s.counts["out"] = op.out
        return vals["n"], vals

    def run_batch(self, batch, dets, sums, loop: Loop, tracer: Tracer, parent: str, traced: bool):
        sc = self.spark.sparkContext
        sdfs = {}
        for name in self.wl.streams:
            with tracer.span("ingest", parent) as s:
                sdfs[name] = self.ingest(batch[name])
            s.counts.update(stream=name, rows=len(batch[name]))
        # Every stream holds one event per train and tick: count each once.
        loop.events += max(len(batch[name]) for name in self.wl.streams)
        for op in self.wl.ops:
            loop.attempted += 1
            group = f"{parent}/{op.out}"
            if traced:
                sc.setJobGroup(group, group)
            t = time.perf_counter()
            try:
                n, vals = self.run_op(op, sdfs[op.stream], dets, tracer, parent)
            except Exception:
                loop.failed += 1
                loop.errors.append(f"{parent} {op.out}: {traceback.format_exc()}")
                continue
            if time.perf_counter() - t > OP_TIMEOUT_S:
                loop.failed += 1
                loop.errors.append(f"{parent} {op.out}: timed out")
            loop.rows_in[op.out] = loop.rows_in.get(op.out, 0) + len(batch[op.stream])
            loop.rows_out[op.out] = loop.rows_out.get(op.out, 0) + n
            if vals is not None:
                acc = sums.setdefault(op.out, dict.fromkeys(vals, 0))
                for k, v in vals.items():
                    acc[k] += v
            if traced:
                jobs, stages, tasks = job_group_counts(sc, group)
                tracer.spans[-1].counts.update(jobs=jobs, stages=stages, tasks=tasks)
                if op.detector:
                    # Open runs the threshold operator carries to the next batch.
                    pending = dets[op.out].op._pending
                    open_rows = sum(len(v) for v in pending.values())
                    loop.open_run_rows_max = max(loop.open_run_rows_max, open_rows)

    def replan(self, batches_run: list[int], tracer: Tracer) -> None:
        """Rebuild every query of every batch the loop ran and record the
        Catalyst phases of planning it (the sink plans it once more, so
        this runs after the loop, outside its time)."""
        for b in batches_run:
            batch = self.replay.batches[b]
            for op in self.wl.ops:
                if op.detector:
                    continue
                df = build_query(op.out, self.ingest(batch[op.stream]), self.st)
                with tracer.span("plan", f"replan/b{b}") as s:
                    s.counts.update(plan_phases_ms(df))
                s.counts["out"] = op.out

    def warm_up(self) -> None:
        """Push the first batch through every operation (set-up)."""
        self.run_batch(self.replay.batches[0], self.fresh_detectors(), {}, Loop(),
                       NullTracer(), "warmup", False)

    def loop(self, seconds: float, *, tracer: Tracer | None = None) -> Loop:
        """Replay passes until ``seconds`` have passed and at least one
        pass is complete."""
        traced = tracer is not None
        tracer = tracer or NullTracer()
        loop = Loop()
        t0 = time.perf_counter()

        def done() -> bool:
            return time.perf_counter() - t0 >= seconds

        p = 0
        while True:
            dets = self.fresh_detectors()
            sums: dict[str, dict[str, int]] = {}
            for b, batch in enumerate(self.replay.batches):
                parent = f"p{p}b{b}"
                with tracer.span("batch", parent):
                    tb = time.perf_counter()
                    self.run_batch(batch, dets, sums, loop, tracer, parent, traced)
                    loop.latencies_s.append(time.perf_counter() - tb)
                loop.batches_run.append(b)
                if loop.passes and done():
                    break
            else:
                loop.passes.append(PassOutput(sums, dets))
            p += 1
            if done():
                break
        loop.wall_s = time.perf_counter() - t0
        return loop


def set_up(wl: Workload, replay: Replay, cores: int, seed: int, work: Path):
    """Session start, static tables and the warm-up batch; returns
    (runner, seconds)."""
    t = time.perf_counter()
    spark = start_session(cores, work)
    st = make_statics(spark, wl, duration_s=replay.duration_s, seed=seed)
    runner = Runner(spark, wl, st, replay)
    runner.warm_up()
    return runner, time.perf_counter() - t


# ---------------------------------------------------------------------
# Reference and check
# ---------------------------------------------------------------------

@dataclass
class Reference:
    sums: dict[str, dict[str, int]]
    schemas: dict[str, object]


def reference(runner: Runner) -> Reference:
    """Checksums of every output's batch form over the whole stream."""
    spark, wl, rp = runner.spark, runner.wl, runner.replay
    wholes = {s: spark.createDataFrame(rp.streams[s]).cache() for s in wl.streams}
    sums, schemas = {}, {}
    try:
        for op in wl.ops:
            df = reference_query(op.out, wholes[op.stream], runner.st)
            schemas[op.out] = df.schema
            sums[op.out] = checksum(df, cuts=rp.cuts, window_s=op.window_s)
    finally:
        for w in wholes.values():
            w.unpersist()
    return Reference(sums, schemas)


def detector_sums(spark: SparkSession, det, schema) -> dict[str, int]:
    """Checksum of a detector's ``finish()`` windows, in the batch form's schema."""
    wins = det.finish()
    if len(wins) == 0:
        return {"n": 0, "h": 0}
    pdf = wins[[f.name for f in schema.fields]]
    return checksum(spark.createDataFrame(pdf, schema=schema))


@dataclass
class Check:
    correct: bool
    compared: int
    wrong: dict[str, bool]          # per output: full output differs in some pass
    wrong_frac: float               # share of (pass, output) pairs that differ


def check(runner: Runner, ref: Reference, loop: Loop) -> Check:
    """Compare every complete pass with the reference.

    Correct means: no operation failed, outputs without windows match
    exactly, and windowed outputs match on their interior windows (a
    window split by a batch cut is the program's known micro-batch
    defect, counted in ``wrong_frac`` but not against correctness).
    """
    correct = loop.failed == 0 and bool(loop.passes)
    wrong = {op.out: False for op in runner.wl.ops}
    n_wrong = compared = 0
    for po in loop.passes:
        for op in runner.wl.ops:
            want = ref.sums[op.out]
            if op.detector:
                got = detector_sums(runner.spark, po.detectors[op.out], ref.schemas[op.out])
            else:
                got = po.sums.get(op.out, {"n": 0, "h": 0, "ni": 0, "hi": 0})
            full = got["n"] == want["n"] and got["h"] == want["h"]
            compared += 1
            if not full:
                n_wrong += 1
                wrong[op.out] = True
            if op.window_s is None:
                correct &= full
            else:
                correct &= got["ni"] == want["ni"] and got["hi"] == want["hi"]
    return Check(correct, compared, wrong, n_wrong / compared if compared else 1.0)


# ---------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------

def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        if pid is None:
            continue
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)

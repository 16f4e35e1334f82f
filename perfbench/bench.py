"""One benchmark run: set-ups, reference, timed loop(s), metrics, report."""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import pyspark

from perfbench.harness import (
    Loop,
    Runner,
    check,
    generate,
    jvm_pid,
    log,
    peak_rss_mb,
    reference,
    set_up,
    stop_jvm,
)
from perfbench.stats import percentile, tail_percentile
from perfbench.tracing import PLAN_PHASES, Tracer
from perfbench.workloads import OPS, PAPER_TABLE1, WORKLOADS, Workload
from repro.meos.vectorized import min_zone_distance
from repro.sncb.events import event_size_for_query
from repro.sncb.sensors import expected_battery_voltage
from repro.sncb.trains import T0_EPOCH
from repro.sncb.zones import shapes_from_df

#: Local cores the Spark session uses at most.
MAX_CORES = 4
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: Percentile reported as ``batch_latency_tail_ms``. A run holds too few
#: batches for the ten-samples-beyond rule (see README), so it is fixed.
TAIL_PERCENTILE = 75.0

ALL_OUTS = list(OPS)
QUERY_OUTS = [o for o, op in OPS.items() if not op.detector]
ALL_QIDS = sorted(PAPER_TABLE1)


def run(name: str, *, seed: int, seconds: float, traced: bool,
        root: Path, out_dir: Path, work: Path) -> dict:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seconds <= 0:
        raise SystemExit("--seconds must be positive")
    wl = WORKLOADS[name]
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    replay = generate(wl, seed)
    log(f"[perfbench] {name}: {replay.events} events in {len(replay.batches)} batches, "
        f"generated in {replay.gen_s:.2f}s")

    setup_s = []
    runner = None
    try:
        # The first set-up also launches the JVM and warms it; the median
        # of the three is a set-up on a warm JVM.
        for _ in range(SETUPS):
            if runner is not None:
                runner.spark.stop()
            runner, s = set_up(wl, replay, cores, seed, work)
            setup_s.append(s)
        spark = runner.spark
        log(f"[perfbench] set-ups: {', '.join(f'{s:.2f}s' for s in setup_s)}")
        if traced:
            plain = runner.loop(seconds / 2)
            tracer = Tracer()
            loop = runner.loop(seconds / 2, tracer=tracer)
            runner.replan(loop.batches_run, tracer)
        else:
            plain, tracer = None, None
            loop = runner.loop(seconds)
        log(f"[perfbench] loop: {len(loop.latencies_s)} batches in {loop.wall_s:.2f}s")
        rss = peak_rss_mb([os.getpid(), jvm_pid()])
        t = time.perf_counter()
        ref = reference(runner)
        log(f"[perfbench] reference: {time.perf_counter() - t:.2f}s")
        chk = check(runner, ref, loop)
        # With --trace 1 the end-to-end figures come from the untraced half.
        e2e_loop, e2e_chk = (plain, check(runner, ref, plain)) if plain else (loop, chk)
        spark_version = spark.version
    finally:
        stop_jvm()

    correct = chk.correct and e2e_chk.correct
    errors = e2e_loop.errors + (loop.errors if plain else [])
    for err in errors[:5]:
        log(err)
    e2e = end_to_end(e2e_loop, e2e_chk, setup_s, rss)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "provenance": provenance(root, cores, wl, spark_version),
        "setup_s": setup_s,
        "check": {"correct": correct, "wrong": e2e_chk.wrong, "compared": e2e_chk.compared},
        "end_to_end": e2e,
        "latencies_ms": [x * 1e3 for x in e2e_loop.latencies_s],
        "errors": errors[:20],
    }
    for k, v in e2e.items():
        print(f"{k:<28} {v['value']:>14.6g} {v['unit']}")
    n_lat = len(e2e_loop.latencies_s)
    rule_p = tail_percentile(n_lat)
    report["tail"] = {"percentile": TAIL_PERCENTILE, "samples": n_lat, "ten_beyond_percentile": rule_p}
    print(f"{'':<28} tail = p{TAIL_PERCENTILE:g} of {n_lat} batches; ten samples lie beyond "
          + (f"p{rule_p:g}" if rule_p else "no percentile (needs 20 batches)"))
    print(f"{'correct':<28} {correct!s:>14}  mismatching outputs: "
          f"{[o for o, w in e2e_chk.wrong.items() if w] or 'none'}")

    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = e2e
    if traced:
        metrics = per_layer(wl, runner, replay, loop, plain, tracer, chk)
        rows = table1_rows(wl, metrics)
        report["table1"] = rows
        report["per_layer"] = metrics
        print(format_table1(rows))
        tracer.write_jsonl(out_dir / f"{name}-seed{seed}-spans.jsonl")
    with open(out_dir / f"{name}-seed{seed}-trace{int(traced)}.json", "w") as f:
        json.dump(report, f, indent=1, default=str)
    attempted = loop.attempted + (plain.attempted if plain else 0)
    failed = loop.failed + (plain.failed if plain else 0)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _m(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, chk, setup_s, rss) -> dict:
    lat = loop.latencies_s
    p_tail = TAIL_PERCENTILE
    return {
        "events_per_s": _m(loop.events / loop.wall_s, "1/s"),
        "batch_latency_p50_ms": _m(statistics.median(lat) * 1e3, "ms"),
        "batch_latency_tail_ms": _m(percentile(lat, p_tail) * 1e3, "ms"),
        "setup_s": _m(statistics.median(setup_s), "s"),
        "peak_rss_mb": _m(rss, "MB"),
        "ok_op_frac": _m(1.0 - loop.failed / loop.attempted, "fraction"),
        "right_query_frac": _m(1.0 - chk.wrong_frac, "fraction"),
    }


def time_kernels(wl: Workload, runner: Runner, replay, batches_run) -> tuple[float, int]:
    """Call the MEOS kernels behind the workload's UDFs directly on the
    columns of every batch the traced loop ran: (ms, rows)."""
    allowed, _ = shapes_from_df(runner.st.zones["allowed"])
    ms, rows = 0.0, 0
    for b in batches_run:
        batch = replay.batches[b]
        if "q5" in wl.outs:
            ts = batch["battery"]["ts"].to_numpy()
            t = time.perf_counter()
            expected_battery_voltage(ts - T0_EPOCH)
            ms += (time.perf_counter() - t) * 1e3
            rows += len(ts)
        if "q7" in wl.outs:
            x = batch["stop"]["x"].to_numpy()
            y = batch["stop"]["y"].to_numpy()
            t = time.perf_counter()
            min_zone_distance(x, y, allowed)
            ms += (time.perf_counter() - t) * 1e3
            rows += len(x)
    return ms, rows


def per_layer(wl, runner, replay, loop, plain, tracer, chk) -> dict:
    by = defaultdict(float)
    counts = defaultdict(float)
    for s in tracer.spans:
        key = s.counts.get("out") or s.counts.get("stream")
        by[s.name] += s.ms
        by[(s.name, key)] += s.ms
        for c in ("rows", "jobs", "stages", "tasks", *PLAN_PHASES):
            if c in s.counts:
                counts[c] += s.counts[c]
                counts[(c, key)] += s.counts[c]
    bytes_in = sum(
        int(replay.batches[b][name].memory_usage(deep=True).sum())
        for b in loop.batches_run for name in wl.streams
    )
    m = {
        "ingest.busy_ms": _m(by["ingest"], "ms"),
        "ingest.rows": _m(counts["rows"], "count"),
        "ingest.bytes": _m(bytes_in, "B"),
        "queries.build_ms": _m(by["build"], "ms"),
    }
    for o in QUERY_OUTS:
        m[f"queries.{o}.build_ms"] = _m(by[("build", o)], "ms")
    for p in PLAN_PHASES:
        m[f"plan.{p}_ms"] = _m(counts[p], "ms")
    for o in QUERY_OUTS:
        m[f"plan.{o}_ms"] = _m(sum(counts[(p, o)] for p in PLAN_PHASES), "ms")
    for o in QUERY_OUTS:
        m[f"exec.{o}_ms"] = _m(by[("exec", o)], "ms")
    m["exec.jobs"] = _m(counts["jobs"], "count")
    m["exec.stages"] = _m(counts["stages"], "count")
    m["exec.tasks"] = _m(counts["tasks"], "count")
    k_ms, k_rows = time_kernels(wl, runner, replay, loop.batches_run)
    m["meos.kernel_ms"] = _m(k_ms, "ms")
    m["meos.kernel_rows"] = _m(k_rows, "count")
    m["state.detector_ms"] = _m(by["state"], "ms")
    m["state.open_run_rows_max"] = _m(loop.open_run_rows_max, "count")
    m["state.windows_out"] = _m(
        sum(loop.rows_out.get(o, 0) for o, op in OPS.items() if op.detector), "count"
    )
    for o in ALL_OUTS:
        n_in = loop.rows_in.get(o, 0)
        n_out = loop.rows_out.get(o, 0)
        m[f"queries.{o}.rows_out"] = _m(n_out, "count")
        m[f"queries.{o}.selectivity"] = _m(n_out / n_in if n_in else 0.0, "fraction")
        m[f"check.{o}.wrong"] = _m(int(chk.wrong.get(o, False)), "flag")
    # Table 1: a query's events over its own busy time, where busy time
    # is its build + exec (planning happens inside the sink's job) or
    # its detector call, plus an equal share of its stream's ingest.
    readers = defaultdict(int)
    for op in wl.ops:
        readers[op.stream] += 1
    busy = defaultdict(float)
    events = {}
    for op in wl.ops:
        busy[op.qid] += sum(by[(n, op.out)] for n in ("build", "exec", "state"))
        busy[op.qid] += by[("ingest", op.stream)] / readers[op.stream]
        events[op.qid] = loop.rows_in.get(op.out, 0)
    for q in ALL_QIDS:
        eps = events[q] / (busy[q] / 1e3) if busy.get(q) else 0.0
        m[f"table1.{q}.events_per_s"] = _m(eps, "1/s")
        m[f"table1.{q}.mb_per_s"] = _m(eps * event_size_for_query(q) / 1e6, "MB/s")
    m["sncb.gen_s"] = _m(replay.gen_s, "s")
    m["sncb.events"] = _m(replay.events, "count")
    plain_eps = plain.events / plain.wall_s
    traced_eps = loop.events / loop.wall_s
    m["trace.overhead_frac"] = _m(1.0 - traced_eps / plain_eps, "fraction")
    # The loop's own spans; "plan" spans come from the re-planning after it.
    accounted = sum(by[n] for n in ("ingest", "build", "exec", "state"))
    m["trace.accounted_frac"] = _m(accounted / (loop.wall_s * 1e3), "fraction")
    m["check.wrong_query_frac"] = _m(chk.wrong_frac, "fraction")
    m["check.failed_op_frac"] = _m(loop.failed / loop.attempted, "fraction")
    return m


def table1_rows(wl: Workload, m: dict) -> list[dict]:
    qids = sorted({op.qid for op in wl.ops})
    rows = []
    for q in qids:
        paper_mb, paper_eps = PAPER_TABLE1[q]
        rows.append({
            "qid": q,
            "events_per_s": m[f"table1.{q}.events_per_s"]["value"],
            "mb_per_s": m[f"table1.{q}.mb_per_s"]["value"],
            "event_size_b": event_size_for_query(q),
            "paper_events_per_s": paper_eps,
            "paper_mb_per_s": paper_mb,
        })
    return rows


def format_table1(rows: list[dict]) -> str:
    lines = [f"{'query':<6} {'paper e/s':>10} {'paper MB/s':>10} {'ours e/s':>10} "
             f"{'ours MB/s':>10} {'B/event':>8}"]
    for r in rows:
        lines.append(
            f"{r['qid']:<6} {r['paper_events_per_s']:>10,} {r['paper_mb_per_s']:>10.2f} "
            f"{r['events_per_s']:>10,.0f} {r['mb_per_s']:>10.2f} {r['event_size_b']:>8}"
        )
    return "\n".join(lines)


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: Path, cores: int, wl: Workload, spark_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cores": cores,
        "mode": "full",
        "spark": spark_version,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "batch_rows": wl.batch_rows,
        "pass_batches": wl.pass_batches,
    }

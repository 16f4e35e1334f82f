"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent). Spans of one micro-batch share the
batch's id as their parent; spans are kept in memory and written out as
JSON lines when the run ends. Counts (rows, tasks, ...) are attached to
the span that did the work.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str
    counts: dict[str, object] = field(default_factory=dict)  # rows, tasks, out, ...

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Collects spans; :meth:`span` is a context manager yielding the span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: str):
        s = Span(name, time.perf_counter(), 0.0, parent)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.spans.append(s)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {"name": s.name, "parent": s.parent, "start": s.start,
                         "end": s.end, **s.counts}
                    )
                    + "\n"
                )


class NullTracer(Tracer):
    """A tracer that records nothing (the untraced loop)."""

    @contextmanager
    def span(self, name: str, parent: str):
        yield Span(name, 0.0, 0.0, parent)


#: Catalyst phases recorded by ``QueryPlanningTracker``.
PLAN_PHASES = ("analysis", "optimization", "planning")


def plan_phases_ms(df) -> dict[str, float]:
    """Force ``df``'s physical plan and read its planning phases (ms)."""
    qe = df._jdf.queryExecution()
    qe.executedPlan()
    phases = qe.tracker().phases()
    return {
        p: float(phases.apply(p).durationMs()) if phases.contains(p) else 0.0
        for p in PLAN_PHASES
    }


def job_group_counts(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages, tasks) Spark ran under job group ``group``."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = st.getJobInfo(jid)
        if info is None:
            continue
        for sid in info.stageIds:
            stages += 1
            sinfo = st.getStageInfo(sid)
            if sinfo is not None:
                tasks += sinfo.numTasks
    return len(jobs), stages, tasks

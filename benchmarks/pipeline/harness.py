"""Timing protocol, spans, checks and metric assembly of the pipeline bench.

Interference on a small shared VM is one-sided (a noisy neighbour only
ever adds time) and comes in waves longer than one repetition, so a
median of a handful of reps moves with the wave while the quiet floor
does not.  The protocol is therefore: a workload is an ordered list of
*stages* (one public library call each); the whole list runs ``R`` times
from identical inputs; each stage's time is its **minimum over the
reps**; every wall-clock metric is a **sum of stage minima**.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import layers
from workloads import verify_outcome

#: each set-up stage runs this many times; its floor goes to ``setup_s``
SETUP_REPS = 3
#: a run never reports a floor over fewer timed reps than this
MIN_REPS = 3
#: the untimed warm-up rep runs at this fraction of the requested scale
WARMUP_SCALE = 0.1


class Stage(NamedTuple):
    """Where a stage's time goes: its layer, end-to-end group, layer metrics."""

    layer: str
    group: str  # "setup" | "read" | "partitioning" | "processing"
    metrics: Tuple[str, ...]


STAGES: Dict[str, Stage] = {
    "train": Stage("costmodel", "setup", ("costmodel.train_s",)),
    "generate": Stage("graph", "setup", ("graph.generate_s",)),
    "write": Stage("graph", "setup", ("graph.write_s",)),
    # stream-maintain rebuilds its base every lap, outside the timed line
    "base:read": Stage("graph", "setup", ("graph.read_s",)),
    "base:partition": Stage("partitioners", "setup", ("partitioners.partition_s",)),
    "base:refine": Stage("core", "setup", ("core.refine_s",)),
    "base:plan": Stage("runtime", "setup", ("runtime.plan_compile_s",)),
    "read": Stage("graph", "read", ("graph.read_s",)),
    "partition": Stage("partitioners", "partitioning", ("partitioners.partition_s",)),
    "refine": Stage("core", "partitioning", ("core.refine_s",)),
    "apply_mutations": Stage("core", "partitioning", ("core.apply_mutations_s",)),
    "refine_incremental": Stage(
        "core", "partitioning", ("core.refine_incremental_s",)
    ),
    "plan": Stage("runtime", "processing", ("runtime.plan_compile_s",)),
    "plan_patch": Stage("runtime", "processing", ("runtime.plan_patch_s",)),
    "run:pr": Stage(
        "algorithms", "processing", ("algorithms.pr_run_s", "algorithms.cold_run_s")
    ),
    "run:tc": Stage(
        "algorithms", "processing", ("algorithms.tc_run_s", "algorithms.cold_run_s")
    ),
    "run:wcc": Stage(
        "algorithms", "processing", ("algorithms.wcc_run_s", "algorithms.cold_run_s")
    ),
    "run:sssp:cold": Stage(
        "algorithms", "processing", ("algorithms.sssp_run_s", "algorithms.cold_run_s")
    ),
    "run:sssp": Stage("algorithms", "processing", ("algorithms.sssp_run_s",)),
    # out of the timed line: once per run, after the last rep
    "validate": Stage("partition", "verify", ("partition.validate_s",)),
    "roundtrip": Stage("partition", "verify", ("partition.roundtrip_s",)),
    "reference": Stage("algorithms", "verify", ("algorithms.verify_s",)),
}

TIMED_GROUPS = ("read", "partitioning", "processing")

Key = Tuple[str, Optional[int]]


class Rep(NamedTuple):
    """One repetition as run: was it traced, and where its seconds went."""

    traced: bool
    wall: float  # the whole rep, harness glue and span bookkeeping included
    staged: float  # inside stage calls
    timed: float  # inside stage calls of the timed line


class Recorder:
    """Times stage calls; inside a traced rep it also keeps their spans.

    A stage's clock stops before its span is recorded, so stage times of
    plain and traced reps are the same quantity and share one pool; what
    tracing adds shows only in a rep's wall time (``Rep.wall - Rep.staged``).
    """

    def __init__(self) -> None:
        self.times: Dict[Key, List[float]] = defaultdict(list)
        self.reps: List[Rep] = []
        self.spans: List[dict] = []
        self.tracing = False
        self.calls = 0
        self._parent: Optional[int] = None
        self._rep: Optional[int] = None
        self._staged = self._timed = 0.0

    def stage(self, name: str, fn: Callable, *args, index: Optional[int] = None, **kw):
        """Run one stage call, record its wall time, return its result."""
        start = time.perf_counter()
        out = fn(*args, **kw)
        end = time.perf_counter()
        self.calls += 1
        stage = STAGES[name]
        self.times[(name, index)].append(end - start)
        self._staged += end - start
        if stage.group in TIMED_GROUPS:
            self._timed += end - start
        if self.tracing:
            self._span(name, stage.layer, start, end, index)
        return out

    def _span(self, name, layer, start, end, index=None) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name if index is None else f"{name}[{index}]",
                "layer": layer,
                "start": start,
                "end": end,
                "parent": self._parent,
                "rep": self._rep,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, rep: Optional[int] = None):
        """Parent span (layer ``bench``) of the stages run inside it."""
        if not self.tracing:
            yield
            return
        self._rep = rep
        self._parent = span_id = self._span(name, "bench", time.perf_counter(), None)
        try:
            yield
        finally:
            self.spans[span_id]["end"] = time.perf_counter()
            self._parent = self._rep = None

    @contextmanager
    def rep(self, index: int, traced: bool):
        """One repetition of the timed line; appends its ``Rep`` record."""
        self.tracing = traced
        self._staged = self._timed = 0.0
        start = time.perf_counter()
        with self.span("rep", index):
            yield
        wall = time.perf_counter() - start
        self.reps.append(Rep(traced, wall, self._staged, self._timed))

    def floors(self) -> Dict[Key, float]:
        """Minimum over reps of every stage."""
        return {key: min(vals) for key, vals in self.times.items()}


def group_sum(floors: Dict[Key, float], group: str) -> float:
    return sum(v for (name, _), v in floors.items() if STAGES[name].group == group)


def metric_sum(floors: Dict[Key, float], metric: str) -> float:
    return sum(v for (name, _), v in floors.items() if metric in STAGES[name].metrics)


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Stage spans are recorded around the calls into each layer, so a rep
    span's self time (layer ``bench``) is what no layer accounts for.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span["layer"]] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(out)


class Checks:
    """Tally of verified operations; every stage call and check is one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ------------------------------------------------------------- counters
#: metrics that must repeat bit-for-bit across reps, runs and hash seeds:
#: one end-to-end metric, and the per-layer counters with their units
EXACT_END_TO_END = "sim_makespan_ms"
EXACT_PER_LAYER = {
    "graph.edges": "count",
    "partitioners.replication_ratio": "ratio",
    "costmodel.rescoring_calls": "count",
    "costmodel.memo_hit_ratio": "ratio",
    "core.moves": "count",
    "core.cost_before": "cost",
    "core.cost_after": "cost",
    "core.frontier_vertices": "count",
    "partition.copies": "count",
    "runtime.plans_patched": "count",
    "runtime.plans_recompiled": "count",
    "runtime.patch_ratio": "ratio",
    "runtime.supersteps": "count",
    "runtime.comm_bytes": "B",
    "runtime.load_imbalance": "ratio",
}


def _sum_or_none(values):
    values = list(values)
    return None if not values or None in values else sum(values)


def exact_counters(outcome, plans_before, plans_after) -> Dict[str, Optional[float]]:
    """The deterministic facts of one rep; ``None`` marks a missing counter."""
    passes, runs = outcome.passes, outcome.runs
    hits = _sum_or_none(p["memo_hits"] for p in passes)
    misses = _sum_or_none(p["memo_misses"] for p in passes)
    ratio = None
    if hits is not None and misses is not None:
        ratio = hits / (hits + misses) if hits + misses else 0.0
    worker_ops: Dict[int, float] = defaultdict(float)
    for run in runs:
        for worker, ops in (run["worker_ops"] or {}).items():
            worker_ops[worker] += ops
    imbalance = None
    if worker_ops and all(r["worker_ops"] is not None for r in runs):
        mean = sum(worker_ops.values()) / len(worker_ops)
        imbalance = max(worker_ops.values()) / mean if mean else 0.0
    makespan = _sum_or_none(r["makespan_s"] for r in runs)
    recompiled = patched = patch_ratio = None
    if None not in plans_before + plans_after:
        recompiled = plans_after[0] - plans_before[0]
        patched = plans_after[1] - plans_before[1]
        total = recompiled + patched
        patch_ratio = patched / total if total else 0.0
    return {
        EXACT_END_TO_END: None if makespan is None else makespan * 1e3,
        "graph.edges": outcome.edges,
        "partitioners.replication_ratio": outcome.replication_ratio,
        "costmodel.rescoring_calls": _sum_or_none(p["rescoring_calls"] for p in passes),
        "costmodel.memo_hit_ratio": ratio,
        "core.moves": _sum_or_none(p["moves"] for p in passes),
        "core.cost_before": _sum_or_none(p["cost_before"] for p in passes),
        "core.cost_after": _sum_or_none(p["cost_after"] for p in passes),
        "core.frontier_vertices": _sum_or_none(p["frontier"] for p in passes),
        "partition.copies": layers.copies(outcome.parts),
        "runtime.plans_patched": patched,
        "runtime.plans_recompiled": recompiled,
        "runtime.patch_ratio": patch_ratio,
        "runtime.supersteps": _sum_or_none(r["supersteps"] for r in runs),
        "runtime.comm_bytes": _sum_or_none(r["comm_bytes"] for r in runs),
        "runtime.load_imbalance": imbalance,
    }


# -------------------------------------------------------------- measure
class Measurement(NamedTuple):
    recorder: Recorder
    checks: Checks
    imports_s: float
    exact: Dict[str, Optional[float]]
    peak_rss_mb: float
    reps: int


def measure(workload, seed: int, scale: float, seconds: float, trace: bool,
            out_dir: str, imports_s: float = 0.0) -> Measurement:
    """Set up, warm up, repeat the timed line for ``seconds``, verify."""
    os.makedirs(out_dir, exist_ok=True)
    rec, checks = Recorder(), Checks()
    prefix = os.path.join(out_dir, workload.name)

    for _ in range(SETUP_REPS):
        trained = rec.stage("train", layers.train, workload.algorithms)
        inputs = workload.make_inputs(rec, seed, scale, prefix)

    warm = Recorder()
    workload.rep(warm, workload.make_inputs(warm, seed, scale * WARMUP_SCALE,
                                            prefix + "-warmup"))
    del warm

    exact: Dict[str, Optional[float]] = {}
    outcome = None
    reps = 0
    last = 0.0
    deadline = time.perf_counter() + seconds
    # a traced run alternates plain and traced reps and needs two of each
    while reps < (4 if trace else MIN_REPS) or time.perf_counter() + last <= deadline:
        outcome = None  # the previous rep's objects die before the next is built
        gc.collect()
        began = time.perf_counter()
        plans_before = layers.plan_counters()
        with rec.rep(reps, traced=trace and reps % 2 == 1):
            outcome = workload.rep(rec, inputs)
        last = time.perf_counter() - began
        counters = exact_counters(outcome, plans_before, layers.plan_counters())
        if reps == 0:
            exact = counters
        checks.check(counters == exact, f"rep {reps}: exact counters repeat")
        reps += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rec.tracing = trace
    with rec.span("verify"):
        verify_outcome(rec, checks, outcome, trained)
        if trace:
            loaded = rec.stage("roundtrip", layers.roundtrip, outcome.parts[0],
                               prefix + "-partition.json")
            checks.check(
                layers.copies([loaded]) == layers.copies(outcome.parts[:1]),
                "save/load round-trip keeps every vertex copy",
            )
    checks.attempted += rec.calls
    return Measurement(rec, checks, imports_s, exact, peak_rss_mb, reps)


# -------------------------------------------------------------- metrics
def end_to_end(m: Measurement) -> Dict[str, Tuple[float, str]]:
    floors = m.recorder.floors()
    read = group_sum(floors, "read")
    partitioning = group_sum(floors, "partitioning")
    processing = group_sum(floors, "processing")
    return {
        "setup_s": (m.imports_s + group_sum(floors, "setup"), "s"),
        "pipeline_s": (read + partitioning + processing, "s"),
        "partitioning_s": (partitioning, "s"),
        "processing_s": (processing, "s"),
        EXACT_END_TO_END: (m.exact[EXACT_END_TO_END], "ms"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def _percentile_ms(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def noise_gauge(m: Measurement) -> Dict[str, Tuple[float, str]]:
    """Rep count and (max - min) / min of the reps' timed-line totals."""
    totals = [rep.timed for rep in m.recorder.reps]
    return {
        "bench.reps": (float(m.reps), "count"),
        "bench.rep_spread_pct": (100.0 * (max(totals) - min(totals)) / min(totals), "%"),
    }


def per_layer(m: Measurement) -> Dict[str, Tuple[Optional[float], str]]:
    """Per-layer metrics of a traced run; a missing counter's value is None."""
    rec = m.recorder
    floors = rec.floors()
    seconds = {
        metric: metric_sum(floors, metric)
        for stage in STAGES.values()
        for metric in stage.metrics
    }
    edges = m.exact["graph.edges"]
    out: Dict[str, Tuple[Optional[float], str]] = {
        k: (v, "s") for k, v in seconds.items()
    }
    out["algorithms.run_s"] = (
        sum(seconds[f"algorithms.{a}_run_s"] for a in ("pr", "tc", "sssp", "wcc")),
        "s",
    )
    for name, total in (
        ("partitioners.edges_per_s", seconds["partitioners.partition_s"]),
        ("core.refine_edges_per_s", seconds["core.refine_s"]),
    ):
        out[name] = (edges / total if total else 0.0, "1/s")
    batches: Dict[int, float] = defaultdict(float)
    for (name, index), value in floors.items():
        if name in ("apply_mutations", "refine_incremental"):
            batches[index] += value
    out["core.batch_p50_ms"] = (_percentile_ms(list(batches.values()), 0.5), "ms")
    out["core.batch_p75_ms"] = (_percentile_ms(list(batches.values()), 0.75), "ms")
    queries = [v for (name, _), v in floors.items() if name.startswith("run:sssp")]
    out["algorithms.query_p50_ms"] = (_percentile_ms(queries, 0.5), "ms")

    for name, unit in EXACT_PER_LAYER.items():
        out[name] = (m.exact[name], unit)
    out.update(noise_gauge(m))
    # what a rep costs outside its stage calls, traced reps against plain ones:
    # the span bookkeeping, free of the noise in the stages themselves
    glue = {
        traced: min(r.wall - r.staged for r in rec.reps if r.traced is traced)
        for traced in (False, True)
    }
    pipeline = sum(group_sum(floors, g) for g in TIMED_GROUPS)
    out["bench.trace_overhead_pct"] = (100.0 * (glue[True] - glue[False]) / pipeline, "%")
    self_s = layer_self_times([s for s in rec.spans if s["rep"] is not None])
    out["bench.unattributed_pct"] = (100.0 * self_s["bench"] / sum(self_s.values()), "%")
    out["bench.counters_missing"] = (
        float(sum(m.exact[name] is None for name in EXACT_PER_LAYER)), "count")
    return out


def stage_table(rec: Recorder) -> List[str]:
    """Floor, median, max and count of every stage, summed over its indices."""
    rows: Dict[str, List[float]] = {}
    for (name, _), vals in rec.times.items():
        row = rows.setdefault(name, [0.0, 0.0, 0.0, len(vals), 0])
        row[0] += min(vals)
        row[1] += statistics.median(vals)
        row[2] += max(vals)
        row[3] = min(row[3], len(vals))
        row[4] += 1
    lines = [f"{'stage':<20}{'layer':<14}{'group':<14}{'floor_s':>10}"
             f"{'median_s':>10}{'max_s':>10}{'reps':>6}{'calls':>7}"]
    for name in STAGES:
        if name in rows:
            floor, median, peak, reps, calls = rows[name]
            stage = STAGES[name]
            lines.append(
                f"{name:<20}{stage.layer:<14}{stage.group:<14}{floor:>10.4f}"
                f"{median:>10.4f}{peak:>10.4f}{reps:>6d}{calls:>7d}"
            )
    return lines


def write_trace(m: Measurement, path: str, header: dict) -> None:
    """The traced run's record: per-layer self times, counters, every span."""
    body = dict(header)
    body["layer_self_s"] = layer_self_times(m.recorder.spans)
    body["counters"] = m.exact
    body["spans"] = m.recorder.spans
    with open(path, "w", encoding="ascii") as handle:
        json.dump(body, handle, indent=1)

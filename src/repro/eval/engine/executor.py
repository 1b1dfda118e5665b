"""Job-graph execution: in-process, or fanned out over a process pool.

The executor walks a :class:`~repro.eval.engine.jobs.JobGraph` in
dependency order.  For every job it mints the cell's *physical* cache
key (which may depend on the content hash of its inputs), checks the
artifact cache, and only computes on a miss — in-process when
``jobs <= 1``, else on a spawn-safe :class:`ProcessPoolExecutor`.  Key
and compute are the two look-ups into the cell table
(:data:`repro.eval.engine.cells.CELLS`) the facade also makes; the
executor only translates "dataset name + upstream artifact" into the
graph, content digest and serialized partition a row takes.

Workers receive plain JSON specs plus the cache root; they rebuild the
graph from the dataset registry, load dependency artifacts from the
cache, compute, and write their artifact back — returning only the
light ``meta`` part to the parent.  Because artifacts are
content-addressed and cells deterministic, concurrent duplicate
computation is benign and results are independent of scheduling order:
the table-rendering phase replays artifacts in deterministic key order,
so ``--jobs N`` output is byte-identical to the serial run.

Execution is **resilient** (:mod:`repro.eval.engine.resilience`):

* worker crashes (``BrokenProcessPool``) recreate the pool and retry
  every in-flight job with seeded exponential backoff;
* cell exceptions retry up to the policy's attempt cap;
* with a timeout set, overdue jobs are abandoned on their worker and
  resubmitted (optionally *hedged*: the original keeps running and the
  first finisher wins — duplicate computation is benign by content
  addressing);
* a job that keeps failing is *degraded* to in-process serial execution
  so a poisoned pool never blocks results; if even that fails, only the
  job's downstream cone is skipped — the rest of the DAG completes;
* a dependency artifact found quarantined mid-flight is healed from the
  parent's memory or recomputed by re-planning just that cone.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.eval.datasets import load_dataset
from repro.eval.engine import cells
from repro.eval.engine.cache import ArtifactCache
from repro.eval.engine.chaos import EngineChaos
from repro.eval.engine.jobs import JobGraph
from repro.eval.engine.resilience import (
    MissingArtifactError,
    ResilienceConfig,
    ResilienceStats,
)
from repro.runtime.trace import FailureTrace, TraceEvent


@dataclass
class ExecutionReport:
    """What one warm-phase execution did."""

    total: int = 0
    hits: int = 0
    computed: int = 0
    meta: Dict[str, Dict] = field(default_factory=dict)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)


def _consumed(spec: Dict, upstream: Dict, whole: str, per_view: str):
    """The part of an upstream artifact (meta or payload) a cell consumes:
    the ``whole`` field, or its entry under ``per_view`` for a run over
    one view of a composite."""
    view = spec.get("view")
    return upstream[whole] if view is None else upstream[per_view][view]


def _cell_key(spec: Dict, dep_meta: Optional[Dict], virtual: bool) -> str:
    """Physical cache key of a planned cell: its row's key over the
    content of its input — the upstream artifact's digest, else the
    dataset graph's, else nothing (memo)."""
    if dep_meta is not None:
        content = _consumed(spec, dep_meta, "content", "views")
    elif "dataset" in spec:
        content = load_dataset(spec["dataset"]).digest()
    else:
        content = None
    return cells.CELLS[spec["kind"]].key(spec, content, virtual)


def _cell_payload(spec: Dict, dep_payload: Optional[Dict], virtual: bool) -> Dict:
    """Compute a planned cell: the graph comes from the dataset registry,
    the consumed partition from the upstream artifact."""
    graph = load_dataset(spec["dataset"]) if "dataset" in spec else None
    source = None
    if dep_payload is not None:
        source = _consumed(spec, dep_payload, "partition", "partitions")
    return cells.CELLS[spec["kind"]].compute(spec, graph, source, virtual)


def _load_valid(cache: ArtifactCache, key: str) -> Optional[Dict]:
    """Load ``key`` accepting only well-formed payloads.

    The cache already quarantines corrupt bytes; this additionally
    quarantines checksum-valid artifacts whose content shape is unusable
    (e.g. entries written by an older payload schema), so they recompute
    instead of crashing a cell downstream.
    """
    payload = cache.get(key)
    if payload is None:
        return None
    if not cells.payload_is_wellformed(payload):
        cache.quarantine(key)
        return None
    return payload


def _worker(
    spec: Dict,
    key: str,
    dep_key: Optional[str],
    cache_root: str,
    virtual: bool,
    attempt: int = 0,
    chaos: Optional[EngineChaos] = None,
    validate: bool = True,
) -> Dict:
    """Pool-worker entry point: compute one cell and store its artifact."""
    cache = ArtifactCache(cache_root, memory_entries=8, validate=validate)
    if chaos is not None:
        chaos.before_compute(key, attempt)
    existing = _load_valid(cache, key)
    if existing is not None:
        return {
            "meta": cells.payload_meta(existing),
            "bytes_written": 0,
            "computed": False,
            "quarantined": cache.stats.quarantined,
        }
    dep_payload = _load_valid(cache, dep_key) if dep_key else None
    if dep_key and dep_payload is None:
        # The input artifact vanished or failed validation (and was
        # quarantined above): tell the parent so it can heal/re-plan.
        raise MissingArtifactError(dep_key, cache.stats.quarantined)
    payload = _cell_payload(spec, dep_payload, virtual)
    cache.put(key, payload)
    if chaos is not None:
        chaos.after_store(cache, key, attempt)
    return {
        "meta": cells.payload_meta(payload),
        "bytes_written": cache.stats.bytes_written,
        "computed": True,
        "quarantined": cache.stats.quarantined,
    }


def _record_fates(
    trace: Optional[FailureTrace],
    chaos: Optional[EngineChaos],
    key: str,
    attempt: int,
    seen: Set[tuple],
    kinds: Optional[tuple] = None,
) -> None:
    """Record the chaos fates that fire for ``(key, attempt)``.

    :meth:`EngineChaos.fates` is pure in its arguments, so the parent
    can log what a spawn worker is about to suffer at dispatch time.
    ``kinds`` restricts recording to the fates the calling path actually
    applies (the serial path never kills or hangs).  ``seen`` dedups
    resubmissions of the same attempt (hedge bookkeeping).
    """
    if trace is None or chaos is None:
        return
    for kind in chaos.fates(key, attempt):
        if kinds is not None and kind not in kinds:
            continue
        marker = (kind, key, attempt)
        if marker in seen:
            continue
        seen.add(marker)
        trace.record(
            TraceEvent("engine", "", "fate", attempt, {"kind": kind, "key": key})
        )


def execute(
    graph: JobGraph,
    cache: ArtifactCache,
    jobs: int = 1,
    virtual: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    chaos: Optional[EngineChaos] = None,
    trace: Optional[FailureTrace] = None,
) -> ExecutionReport:
    """Execute every job of ``graph`` against ``cache``.

    Returns per-job metas keyed by logical id.  With ``jobs > 1``,
    independent cells run on a spawn-context process pool; dependents are
    released as their inputs complete.  ``resilience`` configures the
    retry / timeout / degradation policy (defaults apply when ``None``);
    ``chaos`` injects deterministic failures (tests and benchmarks);
    ``trace`` records every fired chaos fate for later replay.
    """
    policy = resilience if resilience is not None else ResilienceConfig()
    if chaos is not None and chaos.is_empty:
        chaos = None
    if jobs <= 1:
        return _execute_serial(graph, cache, virtual, policy, chaos, trace)
    return _PoolScheduler(graph, cache, jobs, virtual, policy, chaos, trace).run()


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def _execute_serial(
    graph: JobGraph,
    cache: ArtifactCache,
    virtual: bool,
    policy: ResilienceConfig,
    chaos: Optional[EngineChaos],
    trace: Optional[FailureTrace] = None,
) -> ExecutionReport:
    report = ExecutionReport(total=len(graph))
    stats = report.resilience
    quarantined_before = cache.stats.quarantined
    seen_fates: Set[tuple] = set()
    resolved: Dict[str, Dict] = {}  # jid -> {"key": ..., "meta": ...}
    dead: Set[str] = set()  # failed jobs and their skipped cones

    def heal_payload(jid: str) -> Dict:
        """Load ``jid``'s artifact, recomputing (recursively) if damaged."""
        key = resolved[jid]["key"]
        payload = _load_valid(cache, key)
        if payload is not None:
            return payload
        job = graph.jobs[jid]
        dep_payload = heal_payload(job.deps[0]) if job.deps else None
        payload = _cell_payload(job.spec, dep_payload, virtual)
        cache.put(key, payload)
        return payload

    # Insertion order is a valid topological order: the planner adds
    # dependencies before dependents.
    for job in graph:
        if any(dep in dead for dep in job.deps):
            dead.add(job.jid)
            stats.skipped_jobs.append(job.jid)
            continue
        dep = resolved[job.deps[0]] if job.deps else None
        key = _cell_key(job.spec, dep["meta"] if dep else None, virtual)
        payload = _load_valid(cache, key)
        if payload is not None:
            report.hits += 1
            resolved[job.jid] = {"key": key, "meta": cells.payload_meta(payload)}
            continue
        cache.count_miss()
        payload = None
        for attempt in range(policy.retry.max_attempts):
            try:
                dep_payload = heal_payload(job.deps[0]) if job.deps else None
                payload = _cell_payload(job.spec, dep_payload, virtual)
                break
            except Exception:
                stats.cell_errors += 1
                if attempt + 1 >= policy.retry.max_attempts:
                    break
                stats.retries += 1
                delay = policy.retry.delay(key, attempt + 1)
                stats.backoff_seconds += delay
                time.sleep(delay)
        if payload is None:
            dead.add(job.jid)
            stats.failed_jobs.append(job.jid)
            continue
        cache.put(key, payload)
        if chaos is not None:
            # In-process chaos is limited to artifact damage: killing or
            # hanging the only process would end the sweep by definition.
            _record_fates(
                trace,
                chaos,
                key,
                0,
                seen_fates,
                kinds=("corrupt-artifact", "torn-write"),
            )
            chaos.after_store(cache, key, 0)
        report.computed += 1
        resolved[job.jid] = {"key": key, "meta": cells.payload_meta(payload)}

    stats.quarantined += cache.stats.quarantined - quarantined_before
    report.meta = {jid: r["meta"] for jid, r in resolved.items()}
    return report


# ----------------------------------------------------------------------
# Pool path
# ----------------------------------------------------------------------
class _PoolScheduler:
    """Mutable state of one resilient pool execution."""

    def __init__(
        self,
        graph: JobGraph,
        cache: ArtifactCache,
        jobs: int,
        virtual: bool,
        policy: ResilienceConfig,
        chaos: Optional[EngineChaos],
        trace: Optional[FailureTrace] = None,
    ) -> None:
        self.graph = graph
        self.cache = cache
        self.jobs = jobs
        self.virtual = virtual
        self.policy = policy
        self.chaos = chaos
        self.trace = trace
        self.seen_fates: Set[tuple] = set()
        self.report = ExecutionReport(total=len(graph))
        self.stats = self.report.resilience

        self.resolved: Dict[str, Dict] = {}  # jid -> {"key", "meta"}
        self.released: Set[str] = set()  # jids whose children were released
        self.pending: Dict[str, int] = {}  # jid -> unresolved dep count
        self.children: Dict[str, List[str]] = {}
        for job in graph:
            self.pending[job.jid] = len(job.deps)
            for dep in job.deps:
                self.children.setdefault(dep, []).append(job.jid)
        self.ready: List[str] = [
            job.jid for job in graph if self.pending[job.jid] == 0
        ]

        self.attempts: Dict[str, int] = {}  # jid -> failures so far
        self.missed: Set[str] = set()  # jids already charged a cache miss
        self.hedged: Set[str] = set()  # jids that used their hedge
        self.dead: Set[str] = set()  # failed jobs + skipped cones
        self.retry_at: Dict[str, float] = {}  # jid -> monotonic resubmit time
        # jids being recomputed to heal a quarantined artifact, and the
        # dependents waiting on each
        self.replanning: Set[str] = set()
        self.blocked_on: Dict[str, List[str]] = {}
        # future -> (jid, key, submitted_at); abandoned futures are left
        # to finish on their worker — their artifacts land benignly
        self.inflight: Dict[concurrent.futures.Future, tuple] = {}
        self.abandoned: Set[concurrent.futures.Future] = set()

        self.context = multiprocessing.get_context("spawn")
        self.pool = self._new_pool()

    def _new_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self.context
        )

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def finish(self, jid: str, key: str, meta: Dict) -> None:
        """Mark ``jid`` resolved; release dependents exactly once."""
        self.resolved[jid] = {"key": key, "meta": meta}
        self.replanning.discard(jid)
        self.retry_at.pop(jid, None)
        # Drop any sibling attempts (hedges) still running for this job.
        for future, (fjid, _k, _t) in list(self.inflight.items()):
            if fjid == jid:
                del self.inflight[future]
                self.abandoned.add(future)
        if jid not in self.released:
            self.released.add(jid)
            for child in self.children.get(jid, ()):
                self.pending[child] -= 1
                if self.pending[child] == 0:
                    self.ready.append(child)
        for waiter in self.blocked_on.pop(jid, ()):
            if waiter not in self.dead:
                self.ready.append(waiter)

    def fail_forever(self, jid: str) -> None:
        """Permanent failure: skip ``jid``'s downstream cone, keep going."""
        self.dead.add(jid)
        self.stats.failed_jobs.append(jid)
        self.replanning.discard(jid)
        for child in self.graph.downstream_cone(jid):
            if child not in self.dead:
                self.dead.add(child)
                self.stats.skipped_jobs.append(child)
        self.blocked_on.pop(jid, None)

    def heal_payload(self, jid: str) -> Dict:
        """Load ``jid``'s artifact, recomputing in-process if damaged."""
        key = self.resolved[jid]["key"]
        payload = _load_valid(self.cache, key)
        if payload is not None:
            return payload
        job = self.graph.jobs[jid]
        dep_payload = self.heal_payload(job.deps[0]) if job.deps else None
        payload = _cell_payload(job.spec, dep_payload, self.virtual)
        self.cache.put(key, payload)
        return payload

    def degrade(self, jid: str, key: str) -> None:
        """Compute ``jid`` in-process — the poisoned-pool escape hatch."""
        job = self.graph.jobs[jid]
        self.stats.degraded += 1
        try:
            dep_payload = self.heal_payload(job.deps[0]) if job.deps else None
            payload = _cell_payload(job.spec, dep_payload, self.virtual)
        except Exception:
            self.fail_forever(jid)
            return
        self.cache.put(key, payload)
        self.report.computed += 1
        self.finish(jid, key, cells.payload_meta(payload))

    def record_failure(self, jid: str, key: str, now: float) -> None:
        """One more failure for ``jid``: back off, degrade, or give up."""
        if jid in self.resolved or jid in self.dead:
            return  # a sibling attempt already settled this job
        self.attempts[jid] = self.attempts.get(jid, 0) + 1
        n = self.attempts[jid]
        if n >= self.policy.degrade_after or n >= self.policy.retry.max_attempts:
            self.degrade(jid, key)
            return
        self.stats.retries += 1
        delay = self.policy.retry.delay(key, n)
        self.stats.backoff_seconds += delay
        self.retry_at[jid] = now + delay

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _submit_attempt(self, jid: str, key: str, dep_key: Optional[str]) -> bool:
        """Submit one pool attempt; ``False`` if the pool was broken."""
        attempt = self.attempts.get(jid, 0)
        try:
            future = self.pool.submit(
                _worker,
                self.graph.jobs[jid].spec,
                key,
                dep_key,
                self.cache.root,
                self.virtual,
                attempt,
                self.chaos,
                self.cache.validate,
            )
        except BrokenProcessPool:
            self.on_pool_broken(time.monotonic())
            self.record_failure(jid, key, time.monotonic())
            return False
        _record_fates(self.trace, self.chaos, key, attempt, self.seen_fates)
        self.inflight[future] = (jid, key, time.monotonic())
        return True

    def submit(self, jid: str) -> None:
        """Resolve ``jid``'s key, check the cache, submit on a miss."""
        if jid in self.dead or jid in self.resolved:
            return
        job = self.graph.jobs[jid]
        if any(dep in self.dead for dep in job.deps):
            self.dead.add(jid)
            self.stats.skipped_jobs.append(jid)
            return
        dep = self.resolved[job.deps[0]] if job.deps else None
        key = _cell_key(job.spec, dep["meta"] if dep else None, self.virtual)
        payload = _load_valid(self.cache, key)
        if payload is not None:
            self.report.hits += 1
            self.finish(jid, key, cells.payload_meta(payload))
            return
        if jid not in self.missed:
            self.missed.add(jid)
            self.cache.count_miss()
        if self.attempts.get(jid, 0) >= self.policy.degrade_after:
            self.degrade(jid, key)
            return
        self._submit_attempt(jid, key, dep["key"] if dep else None)

    # ------------------------------------------------------------------
    # Failure handlers
    # ------------------------------------------------------------------
    def heal_missing_dependency(self, jid: str, dep_key: str, now: float) -> None:
        """A worker found ``jid``'s input quarantined: heal or re-plan."""
        job = self.graph.jobs[jid]
        dep_jid = next(
            (d for d in job.deps if self.resolved.get(d, {}).get("key") == dep_key),
            job.deps[0] if job.deps else None,
        )
        self.cache.forget(dep_key)
        if self.cache.restore(dep_key):
            # Healed from the parent's memory: just retry the dependent
            # (one failure charged so repeated heals eventually degrade).
            self.stats.retries += 1
            self.attempts[jid] = self.attempts.get(jid, 0) + 1
            self.ready.append(jid)
            return
        if dep_jid is None:  # pragma: no cover - dep-less jobs never raise this
            self.record_failure(jid, dep_key, now)
            return
        # Re-plan the dependency's cone: recompute the input, then
        # release the waiting dependent (finish() drains blocked_on).
        self.blocked_on.setdefault(dep_jid, []).append(jid)
        if dep_jid not in self.replanning:
            self.replanning.add(dep_jid)
            self.resolved.pop(dep_jid, None)
            # Bump the attempt index so first-attempt-only chaos cannot
            # sabotage the recompute and loop the heal forever.
            self.attempts[dep_jid] = self.attempts.get(dep_jid, 0) + 1
            self.ready.append(dep_jid)

    def on_pool_broken(self, now: float) -> None:
        """The pool died (worker crash): recreate it and retry everything."""
        self.stats.worker_crashes += 1
        casualties = list(self.inflight.values())
        self.inflight.clear()
        self.abandoned.clear()
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = self._new_pool()
        for jid, key, _t in casualties:
            self.record_failure(jid, key, now)

    def check_stragglers(self, now: float) -> None:
        """Abandon or hedge jobs that blew their wall-clock deadline."""
        timeout = self.policy.timeout
        if timeout is None:
            return
        for future, (jid, key, t0) in list(self.inflight.items()):
            if now - t0 <= timeout or future not in self.inflight:
                continue
            self.stats.timeouts += 1
            if self.policy.hedge and jid not in self.hedged:
                # Leave the original running; race a fresh attempt.
                self.hedged.add(jid)
                self.stats.hedges += 1
                self.attempts[jid] = self.attempts.get(jid, 0) + 1
                job = self.graph.jobs[jid]
                dep = self.resolved[job.deps[0]] if job.deps else None
                if self._submit_attempt(jid, key, dep["key"] if dep else None):
                    # Reset the original's clock so the pair shares the
                    # new deadline instead of re-tripping immediately.
                    if future in self.inflight:
                        self.inflight[future] = (jid, key, now)
            else:
                del self.inflight[future]
                self.abandoned.add(future)
                self.record_failure(jid, key, now)

    def harvest(self, future: concurrent.futures.Future, now: float) -> bool:
        """Fold one completed future into the report.

        Returns ``False`` when the pool broke (caller restarts the done
        loop — every other in-flight future was a casualty too).
        """
        jid, key, _t0 = self.inflight.pop(future)
        try:
            result = future.result()
        except MissingArtifactError as exc:
            self.stats.quarantined += exc.quarantined
            self.heal_missing_dependency(jid, exc.key, now)
            return True
        except BrokenProcessPool:
            # This future was already popped from inflight, so the
            # casualty sweep in on_pool_broken won't see it: charge its
            # failure explicitly.
            self.on_pool_broken(now)
            self.record_failure(jid, key, now)
            return False
        except Exception:
            self.stats.cell_errors += 1
            self.record_failure(jid, key, now)
            return True
        self.cache.stats.bytes_written += result["bytes_written"]
        self.stats.quarantined += result.get("quarantined", 0)
        if jid in self.resolved:
            return True  # a hedge sibling won the race
        if result["computed"]:
            self.report.computed += 1
        else:
            self.report.hits += 1
        self.finish(jid, key, result["meta"])
        return True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def wait_timeout(self, now: float) -> Optional[float]:
        """How long the scheduler may block before something is due."""
        deadlines = []
        if self.policy.timeout is not None and self.inflight:
            deadlines.append(
                min(t0 for _j, _k, t0 in self.inflight.values())
                + self.policy.timeout
            )
        if self.retry_at:
            deadlines.append(min(self.retry_at.values()))
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now) + 0.01

    def release_due_retries(self, now: float) -> None:
        for jid, due in list(self.retry_at.items()):
            if due <= now:
                del self.retry_at[jid]
                self.ready.append(jid)

    def run(self) -> ExecutionReport:
        quarantined_before = self.cache.stats.quarantined
        try:
            while self.ready or self.inflight or self.retry_at:
                now = time.monotonic()
                self.release_due_retries(now)
                while self.ready:
                    self.submit(self.ready.pop(0))
                if not self.inflight:
                    if self.retry_at and not self.ready:
                        next_due = min(self.retry_at.values())
                        time.sleep(max(0.0, next_due - time.monotonic()))
                    continue
                done, _ = concurrent.futures.wait(
                    self.inflight,
                    timeout=self.wait_timeout(now),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in done:
                    if future not in self.inflight:
                        continue  # abandoned or drained by a sibling win
                    if not self.harvest(future, now):
                        break  # pool broke: inflight was rebuilt from scratch
                self.check_stragglers(time.monotonic())
        finally:
            self.pool.shutdown(wait=True, cancel_futures=True)
        self.stats.quarantined += self.cache.stats.quarantined - quarantined_before
        self.report.meta = {jid: r["meta"] for jid, r in self.resolved.items()}
        return self.report

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

A resolved job is a *chain*: the ``(spec, key)`` pairs of its ancestors
and itself, root first.  Workers receive the chain plus the cache root,
rebuild the graph from the dataset registry, and return only the light
``meta`` part of the artifact they store.  Because artifacts are
content-addressed and cells deterministic, concurrent duplicate
computation is benign and results are independent of scheduling order:
the table-rendering phase replays artifacts in deterministic key order,
so ``--jobs N`` output is byte-identical to the serial run.

Recovery is one rule, :func:`_materialise`: load a cell's artifact if it
is valid, else recompute it from its chain — recursing, so a dependency
that was damaged on disk is healed where it is read, by whichever
process reads it.  If the pool itself breaks (a worker died), the serial
walk finishes whatever the pool left; every cell already stored is a
cache hit.  A cell that raises is not retried: its exception propagates
out of :func:`execute`, as it would from the render phase.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.eval.datasets import load_dataset
from repro.eval.engine import cells
from repro.eval.engine.cache import ArtifactCache
from repro.eval.engine.jobs import Job, JobGraph

#: ``(spec, key)`` pairs from a cell's root ancestor down to the cell
Chain = List[Tuple[Dict, str]]


@dataclass
class ExecutionReport:
    """What one warm-phase execution did."""

    total: int = 0
    hits: int = 0
    computed: int = 0
    meta: Dict[str, Dict] = field(default_factory=dict)
    worker_crashes: int = 0
    quarantined: int = 0


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


def _materialise(
    cache: ArtifactCache, chain: Chain, virtual: bool
) -> Tuple[Dict, bool]:
    """The artifact of ``chain``'s last cell, and whether it was computed.

    A valid stored artifact is loaded; anything else is recomputed from
    the ancestor chain, which is materialised the same way first.
    """
    spec, key = chain[-1]
    payload = _load_valid(cache, key)
    if payload is not None:
        return payload, False
    dep_payload = None
    if len(chain) > 1:
        dep_payload = _materialise(cache, chain[:-1], virtual)[0]
    payload = _cell_payload(spec, dep_payload, virtual)
    cache.put(key, payload)
    return payload, True


def _worker(chain: Chain, cache_root: str, virtual: bool) -> Dict:
    """Pool-worker entry point: materialise one cell on its own cache handle."""
    cache = ArtifactCache(cache_root, memory_entries=8)
    payload, computed = _materialise(cache, chain, virtual)
    return {
        "meta": cells.payload_meta(payload),
        "computed": computed,
        "bytes_written": cache.stats.bytes_written,
        "quarantined": cache.stats.quarantined,
    }


def _chain(
    job: Job, chains: Dict[str, Chain], report: ExecutionReport, virtual: bool
) -> Chain:
    """Resolve ``job``'s chain: its dependency's chain plus its own key."""
    dep = job.deps[0] if job.deps else None
    spec_key = (job.spec, _cell_key(job.spec, report.meta.get(dep), virtual))
    return (chains[dep] if dep else []) + [spec_key]


def execute(
    graph: JobGraph,
    cache: ArtifactCache,
    jobs: int = 1,
    virtual: bool = False,
) -> ExecutionReport:
    """Execute every job of ``graph`` against ``cache``.

    Returns per-job metas keyed by logical id.  With ``jobs > 1``,
    independent cells run on a spawn-context process pool; dependents are
    released as their inputs complete.  A cell's exception propagates.
    """
    report = ExecutionReport(total=len(graph))
    quarantined_before = cache.stats.quarantined
    chains: Dict[str, Chain] = {}
    if jobs > 1:
        try:
            _run_pool(graph, cache, jobs, virtual, report, chains)
        except BrokenProcessPool:
            report.worker_crashes += 1
    _walk(graph, cache, virtual, report, chains)
    report.quarantined += cache.stats.quarantined - quarantined_before
    return report


def _walk(
    graph: JobGraph,
    cache: ArtifactCache,
    virtual: bool,
    report: ExecutionReport,
    chains: Dict[str, Chain],
) -> None:
    """Materialise, in-process, every job the report has not resolved."""
    # Insertion order is a valid topological order: the planner adds
    # dependencies before dependents.
    for job in graph:
        if job.jid in report.meta:
            continue
        chain = chains[job.jid] = _chain(job, chains, report, virtual)
        payload, computed = _materialise(cache, chain, virtual)
        if computed:
            cache.count_miss()
            report.computed += 1
        else:
            report.hits += 1
        report.meta[job.jid] = cells.payload_meta(payload)


def _run_pool(
    graph: JobGraph,
    cache: ArtifactCache,
    jobs: int,
    virtual: bool,
    report: ExecutionReport,
    chains: Dict[str, Chain],
) -> None:
    """Fan the graph out over a process pool: submit, harvest, release."""
    pending = {job.jid: len(job.deps) for job in graph}
    children: Dict[str, List[str]] = {}
    for job in graph:
        for dep in job.deps:
            children.setdefault(dep, []).append(job.jid)
    ready = [jid for jid, count in pending.items() if count == 0]
    inflight: Dict[concurrent.futures.Future, str] = {}

    def resolve(jid: str, meta: Dict) -> None:
        report.meta[jid] = meta
        for child in children.get(jid, ()):
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)

    pool = ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        while ready or inflight:
            while ready:
                jid = ready.pop(0)
                chain = chains[jid] = _chain(graph.jobs[jid], chains, report, virtual)
                payload = _load_valid(cache, chain[-1][1])
                if payload is not None:
                    report.hits += 1
                    resolve(jid, cells.payload_meta(payload))
                    continue
                cache.count_miss()
                inflight[pool.submit(_worker, chain, cache.root, virtual)] = jid
            done, _ = concurrent.futures.wait(
                inflight, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in done:
                jid = inflight.pop(future)
                result = future.result()
                cache.stats.bytes_written += result["bytes_written"]
                report.quarantined += result["quarantined"]
                if result["computed"]:
                    report.computed += 1
                else:
                    report.hits += 1
                resolve(jid, result["meta"])
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

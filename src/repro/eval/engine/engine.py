"""The evaluation engine facade: compute-or-load for experiment steps.

:class:`EvalEngine` is the single entry point the harness talks to.  It
has two modes:

* **passthrough** (``cache=None``, the default) — every operation runs
  the exact legacy in-process code path, no serialization, no disk.
  This keeps unit tests and library callers byte-for-byte unchanged.
* **cached** (an :class:`ArtifactCache`) — every operation is resolved
  to a content-addressed cell key; artifacts are loaded on a hit and
  computed via :mod:`repro.eval.engine.cells` on a miss.  Partitions are
  always reconstructed from their serialized payload, so a cold run
  builds exactly the objects a warm run loads, and measured wall-clock
  seconds are replayed from the artifact rather than re-measured.

``use_engine`` swaps the process-wide active engine; the harness routes
through :func:`get_engine` so ``run_all --cache-dir`` changes behaviour
without threading an engine handle through every experiment signature.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Dict, Optional, Sequence, Tuple

from repro.eval.engine import cells, keys
from repro.eval.engine.cache import ArtifactCache, CacheStats
from repro.eval.engine.jobs import JobGraph


class EvalEngine:
    """Compute-or-load facade over the artifact cache.

    Parameters
    ----------
    cache:
        Artifact store; ``None`` selects passthrough mode.
    virtual:
        Replace measured wall-clock with deterministic proxies (golden
        tests); tags every cache key so virtual artifacts never mix with
        real measurements.
    """

    def __init__(
        self, cache: Optional[ArtifactCache] = None, virtual: bool = False
    ) -> None:
        self.cache = cache
        self.virtual = virtual
        # partition object -> content digest of its serialized payload,
        # recorded whenever this engine produces a partition so run cells
        # can be keyed without re-serializing.
        self._digests: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Summary of the most recent maintain_partition call (cached
        # profiles drop per-run refiner stats, so the maintenance
        # counters are surfaced here in both modes).
        self.last_maintenance: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def caching(self) -> bool:
        """Whether this engine loads/stores artifacts."""
        return self.cache is not None

    @property
    def stats(self) -> CacheStats:
        """Cache counters (all-zero in passthrough mode)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _digest_and_payload(self, partition) -> Tuple[str, Optional[Dict]]:
        """Content digest of ``partition`` (+ its payload when serialized).

        Engine-produced partitions have a memoized digest; foreign ones
        are serialized here (and the payload reused on a miss).
        """
        digest = self._digests.get(partition)
        if digest is not None:
            return digest, None
        from repro.partition.serialize import partition_to_dict

        payload = partition_to_dict(partition)
        digest = keys.payload_digest(payload)
        self._digests[partition] = digest
        return digest, payload

    def _load_or_compute(self, key: str, compute) -> Dict:
        payload = self.cache.get(key)
        if payload is None:
            self.cache.count_miss()
            payload = compute()
            self.cache.put(key, payload)
        return payload

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def initial_partition(self, graph, baseline: str, n: int):
        """Baseline partition of ``graph``; returns ``(partition, seconds)``."""
        if self.cache is None:
            import time

            from repro.partitioners.base import get_partitioner

            start = time.perf_counter()
            partition = get_partitioner(baseline).partition(graph, n)
            return partition, time.perf_counter() - start

        from repro.partition.serialize import partition_from_dict

        key = keys.partition_key(graph.digest(), baseline, n, self.virtual)
        payload = self._load_or_compute(
            key, lambda: cells.compute_partition_cell(graph, baseline, n, self.virtual)
        )
        partition = partition_from_dict(payload["partition"], graph)
        self._digests[partition] = payload["content"]
        return partition, payload["seconds"]

    @staticmethod
    def _fold_cluster_spec(params: Dict) -> Dict:
        """Normalize ``params['cluster_spec']`` to its canonical payload.

        Resolves the explicit value or the process-wide default, collapses
        uniform specs, and stores the JSON dict form — so cache keys fold
        the spec digest, spawn workers rebuild the exact spec, and the
        homogeneous case leaves ``params`` (and hence every legacy cache
        key) byte-identical.
        """
        from repro.runtime.clusterspec import spec_payload

        payload = spec_payload(params.pop("cluster_spec", None))
        if payload is not None:
            params["cluster_spec"] = payload
        return params

    @staticmethod
    def _fold_backend(params: Dict) -> Dict:
        """Fold a non-default execution backend into run params.

        Same contract as the planner's fold: ``simulated`` (the default)
        leaves ``params`` — and hence every legacy cache key —
        byte-identical; ``shm`` is recorded so cached cells are keyed by
        the backend that produced them.
        """
        from repro.runtime.parallel import backend_default, shm_workers_default

        if "backend" not in params:
            backend = backend_default()
            if backend != "simulated":
                params["backend"] = backend
                workers = shm_workers_default()
                if workers is not None:
                    params.setdefault("shm_workers", workers)
        return params

    def refine_partition(
        self, partition, algorithm: str, cut_type: str, model, **refiner_kwargs
    ):
        """ParE2H / ParV2H refinement; returns ``(refined, profile)``."""
        refiner_kwargs = self._fold_cluster_spec(dict(refiner_kwargs))
        if self.cache is None:
            from repro.core import refiner_class

            refiner = refiner_class(cut_type, parallel=True)(model, **refiner_kwargs)
            return refiner.refine(partition)

        from repro.partition.serialize import partition_from_dict, partition_to_dict

        model_payload = keys.model_payload(model)
        content, initial_payload = self._digest_and_payload(partition)
        key = keys.refine_key(
            content,
            algorithm,
            cut_type,
            keys.payload_digest(model_payload),
            refiner_kwargs,
            self.virtual,
        )

        def compute() -> Dict:
            initial = (
                initial_payload
                if initial_payload is not None
                else partition_to_dict(partition)
            )
            return cells.compute_refine_cell(
                partition.graph,
                initial,
                algorithm,
                cut_type,
                model_payload,
                refiner_kwargs,
                self.virtual,
            )

        payload = self._load_or_compute(key, compute)
        refined = partition_from_dict(payload["partition"], partition.graph)
        self._digests[refined] = payload["content"]
        return refined, cells.profile_from_payload(payload["profile"])

    def maintain_partition(
        self, partition, algorithm: str, cut_type: str, model, mutations, **kwargs
    ):
        """Apply a mutation batch and dirty-region-refine; returns
        ``(maintained partition, profile)``.

        In passthrough mode this is the in-place fast path: the caller's
        graph and partition are mutated directly.  In cached mode the
        cell runs over private copies (the shared dataset graph is never
        touched) and is keyed on the base partition's content digest plus
        the batch digest, so replaying the same update stream is a hit;
        on a hit the updated graph is rebuilt by replaying the batch's
        graph-level ops on a copy of the caller's graph.
        """
        from repro.core.incremental import MutationBatch, apply_mutations

        if not isinstance(mutations, MutationBatch):
            mutations = MutationBatch.parse(str(mutations))
        kwargs = self._fold_cluster_spec(dict(kwargs))
        if self.cache is None:
            from repro.core import refiner_class

            refiner = refiner_class(cut_type, parallel=True)(model, **kwargs)
            dirty = apply_mutations(partition, mutations)
            maintained, profile = refiner.refine_incremental(partition, dirty)
            stats = profile.stats
            inc = stats.incremental
            self.last_maintenance = {
                "mutations": len(mutations),
                "batch": mutations.digest(),
                "dirty": inc.dirty if inc else len(dirty),
                "frontier": inc.frontier if inc else 0,
                "fragments": inc.fragments if inc else 0,
                "seeded": bool(inc.seeded) if inc else False,
                "rescoring_calls": stats.rescoring_calls,
                "cost_before": stats.cost_before,
                "cost_after": stats.cost_after,
            }
            return maintained, profile

        from repro.graph.digraph import Graph
        from repro.partition.serialize import partition_from_dict, partition_to_dict

        model_payload = keys.model_payload(model)
        content, initial_payload = self._digest_and_payload(partition)
        key = keys.incremental_key(
            content,
            algorithm,
            cut_type,
            keys.payload_digest(model_payload),
            mutations.digest(),
            kwargs,
            self.virtual,
        )

        def compute() -> Dict:
            initial = (
                initial_payload
                if initial_payload is not None
                else partition_to_dict(partition)
            )
            return cells.compute_incremental_cell(
                partition.graph,
                initial,
                algorithm,
                cut_type,
                model_payload,
                mutations.to_text(),
                kwargs,
                self.virtual,
            )

        payload = self._load_or_compute(key, compute)
        self.last_maintenance = dict(payload["maintenance"])
        graph = partition.graph
        updated = Graph(
            graph.num_vertices, list(graph.edges()), directed=graph.directed
        )
        mutations.apply_to_graph(updated)
        maintained = partition_from_dict(payload["partition"], updated)
        self._digests[maintained] = payload["content"]
        return maintained, cells.profile_from_payload(payload["profile"])

    def run_algorithm(
        self, partition, algorithm: str, params: Optional[Dict] = None
    ) -> float:
        """Simulated makespan of ``algorithm`` on ``partition`` (seconds)."""
        run_params = self._fold_backend(
            self._fold_cluster_spec(dict(params) if params else {})
        )
        if self.cache is None:
            from repro.algorithms.registry import get_algorithm

            result = get_algorithm(algorithm).run(partition, **run_params)
            return result.makespan

        from repro.partition.serialize import partition_to_dict

        content, payload = self._digest_and_payload(partition)
        key = keys.run_key(content, algorithm, run_params)

        def compute() -> Dict:
            serialized = (
                payload if payload is not None else partition_to_dict(partition)
            )
            return cells.compute_run_cell(
                partition.graph, serialized, algorithm, run_params
            )

        return self._load_or_compute(key, compute)["makespan"]

    def composite_refine(
        self,
        partition,
        cut_type: str,
        batch: Sequence[str],
        models,
        cluster_spec=None,
    ):
        """ParME2H / ParMV2H over ``partition``; returns ``(composite, profile)``."""
        from repro.runtime.clusterspec import spec_payload

        spec = spec_payload(cluster_spec)
        if self.cache is None:
            from repro.core import refiner_class

            refiner_cls = refiner_class(cut_type, composite=True, parallel=True)
            return refiner_cls(models, cluster_spec=spec).refine(partition)

        from repro.partition.composite import CompositePartition
        from repro.partition.serialize import partition_from_dict, partition_to_dict

        model_payloads = {name: keys.model_payload(models[name]) for name in batch}
        content, initial_payload = self._digest_and_payload(partition)
        key = keys.composite_key(
            content,
            batch,
            {name: keys.payload_digest(p) for name, p in model_payloads.items()},
            self.virtual,
            cluster_spec=spec,
        )

        def compute() -> Dict:
            initial = (
                initial_payload
                if initial_payload is not None
                else partition_to_dict(partition)
            )
            return cells.compute_composite_cell(
                partition.graph,
                initial,
                cut_type,
                batch,
                model_payloads,
                self.virtual,
                cluster_spec=spec,
            )

        payload = self._load_or_compute(key, compute)
        views = {}
        for name in batch:
            view = partition_from_dict(payload["partitions"][name], partition.graph)
            self._digests[view] = payload["views"][name]
            views[name] = view
        composite = CompositePartition(views)
        return composite, cells.profile_from_payload(payload["profile"])

    def memo(self, memo_kind: str, params: Optional[Dict] = None):
        """Load-or-compute a whitelisted memo cell; returns its value."""
        params = params or {}
        if self.cache is None:
            return cells.compute_memo_cell(memo_kind, params)["value"]
        key = keys.memo_key(memo_kind, params, self.virtual)
        return self._load_or_compute(
            key, lambda: cells.compute_memo_cell(memo_kind, params)
        )["value"]

    def warm(
        self,
        job_graph: JobGraph,
        jobs: int = 1,
        resilience=None,
        chaos=None,
        trace=None,
    ):
        """Execute ``job_graph`` into the cache (cached engines only).

        ``resilience`` is a :class:`~repro.eval.engine.resilience.
        ResilienceConfig` (defaults apply when ``None``); ``chaos`` is an
        :class:`~repro.eval.engine.chaos.EngineChaos` failure-injection
        plan for tests and benchmarks; ``trace`` is a
        :class:`~repro.runtime.trace.FailureTrace` that records every
        fired chaos fate for later replay.
        """
        if self.cache is None:
            raise ValueError("cannot warm a passthrough engine (no cache)")
        from repro.eval.engine.executor import execute

        return execute(
            job_graph,
            self.cache,
            jobs=jobs,
            virtual=self.virtual,
            resilience=resilience,
            chaos=chaos,
            trace=trace,
        )


# ----------------------------------------------------------------------
# Process-wide active engine
# ----------------------------------------------------------------------
_ACTIVE = EvalEngine()


def get_engine() -> EvalEngine:
    """The engine the harness currently routes through."""
    return _ACTIVE


@contextlib.contextmanager
def use_engine(engine: EvalEngine):
    """Swap the active engine for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = engine
    try:
        yield engine
    finally:
        _ACTIVE = previous

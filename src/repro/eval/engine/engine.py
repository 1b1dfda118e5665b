"""The evaluation engine facade: compute-or-load for experiment steps.

:class:`EvalEngine` is the single entry point the harness talks to.  It
has two modes:

* **passthrough** (``cache=None``, the default) — every operation runs
  the exact legacy in-process code path, no serialization, no disk.
  This keeps unit tests and library callers byte-for-byte unchanged.
* **cached** (an :class:`ArtifactCache`) — every operation builds the
  spec the planner would build for the same cell (the kind's row in
  :data:`repro.eval.engine.cells.CELLS`), and one private ``_resolve``
  keys it through that row, loads the artifact on a hit and computes it
  through that row on a miss.  Partitions are always reconstructed from
  their serialized payload, so a cold run builds exactly the objects a
  warm run loads, and measured wall-clock seconds are replayed from the
  artifact rather than re-measured.

``use_engine`` swaps the process-wide active engine; the harness routes
through :func:`get_engine` so ``run_all --cache-dir`` changes behaviour
without threading an engine handle through every experiment signature.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Dict, Optional, Sequence

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
    def _resolve(self, spec: Dict, graph, source=None) -> Dict:
        """Load-or-compute the cell ``spec`` describes.

        ``source`` is the live partition the cell consumes (``None`` for
        a cell over the bare graph, or over nothing).  Engine-produced
        partitions have a memoized content digest; foreign ones are
        serialized here to get one, and the serialized form is reused if
        the cell then has to be computed.
        """
        from repro.partition.serialize import partition_to_dict

        row = cells.CELLS[spec["kind"]]
        serialized = None
        if source is not None:
            content = self._digests.get(source)
            if content is None:
                serialized = partition_to_dict(source)
                content = self._digests[source] = keys.payload_digest(serialized)
        else:
            content = graph.digest() if graph is not None else None
        key = row.key(spec, content, self.virtual)
        payload = self.cache.get(key)
        if payload is None:
            self.cache.count_miss()
            if source is not None and serialized is None:
                serialized = partition_to_dict(source)
            payload = row.compute(spec, graph, serialized, self.virtual)
            self.cache.put(key, payload)
        return payload

    def _rehydrate(self, serialized: Dict, content: str, graph):
        """Rebuild a stored partition and remember its content digest."""
        from repro.partition.serialize import partition_from_dict

        partition = partition_from_dict(serialized, graph)
        self._digests[partition] = content
        return partition

    # ------------------------------------------------------------------
    # Operations: build the spec the planner builds, then either run it
    # on the live objects (passthrough) or resolve it through the cache.
    # ------------------------------------------------------------------
    def initial_partition(self, graph, baseline: str, n: int):
        """Baseline partition of ``graph``; returns ``(partition, seconds)``."""
        if self.cache is None:
            import time

            from repro.partitioners.base import get_partitioner

            start = time.perf_counter()
            partition = get_partitioner(baseline).partition(graph, n)
            return partition, time.perf_counter() - start

        payload = self._resolve(cells.CELLS["partition"].spec(baseline, n), graph)
        partition = self._rehydrate(payload["partition"], payload["content"], graph)
        return partition, payload["seconds"]

    def refine_partition(
        self, partition, algorithm: str, cut_type: str, model, **refiner_kwargs
    ):
        """ParE2H / ParV2H refinement; returns ``(refined, profile)``."""
        spec = cells.CELLS["refine"].spec(
            algorithm, cut_type, keys.model_payload(model), refiner_kwargs
        )
        if self.cache is None:
            from repro.core import refiner_class

            refiner = refiner_class(cut_type, parallel=True)(model, **spec["kwargs"])
            return refiner.refine(partition)

        payload = self._resolve(spec, partition.graph, partition)
        refined = self._rehydrate(
            payload["partition"], payload["content"], partition.graph
        )
        return refined, cells.profile_from_payload(payload["profile"])

    def run_algorithm(
        self, partition, algorithm: str, params: Optional[Dict] = None
    ) -> float:
        """Simulated makespan of ``algorithm`` on ``partition`` (seconds)."""
        spec = cells.CELLS["run"].spec(algorithm, params)
        if self.cache is None:
            from repro.algorithms.registry import get_algorithm

            return get_algorithm(algorithm).run(partition, **spec["params"]).makespan

        return self._resolve(spec, partition.graph, partition)["makespan"]

    def composite_refine(
        self,
        partition,
        cut_type: str,
        batch: Sequence[str],
        models,
        cluster_spec=None,
    ):
        """ParME2H / ParMV2H over ``partition``; returns ``(composite, profile)``."""
        spec = cells.CELLS["composite"].spec(
            cut_type,
            batch,
            {name: keys.model_payload(models[name]) for name in batch},
            cluster_spec,
        )
        if self.cache is None:
            from repro.core import refiner_class

            refiner_cls = refiner_class(cut_type, composite=True, parallel=True)
            refiner = refiner_cls(models, cluster_spec=spec.get("cluster_spec"))
            return refiner.refine(partition)

        from repro.partition.composite import CompositePartition

        payload = self._resolve(spec, partition.graph, partition)
        composite = CompositePartition(
            {
                name: self._rehydrate(
                    payload["partitions"][name], payload["views"][name], partition.graph
                )
                for name in batch
            }
        )
        return composite, cells.profile_from_payload(payload["profile"])

    def memo(self, memo_kind: str, params: Optional[Dict] = None):
        """Load-or-compute a whitelisted memo cell; returns its value."""
        row = cells.CELLS["memo"]
        spec = row.spec(memo_kind, params)
        if self.cache is None:
            return row.compute(spec, None, None, self.virtual)["value"]
        return self._resolve(spec, None)["value"]

    def warm(self, job_graph: JobGraph, jobs: int = 1):
        """Execute ``job_graph`` into the cache (cached engines only)."""
        if self.cache is None:
            raise ValueError("cannot warm a passthrough engine (no cache)")
        from repro.eval.engine.executor import execute

        return execute(job_graph, self.cache, jobs=jobs, virtual=self.virtual)


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

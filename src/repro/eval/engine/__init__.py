"""Parallel evaluation engine with a content-addressed artifact cache.

The paper's evaluation is a large sweep — algorithms × datasets ×
partitioners × fragment counts — and many experiments need the *same*
(dataset, partitioner, refiner, n) cell.  This package makes the sweep
fast twice over:

* a **job graph** (:mod:`repro.eval.engine.jobs`) expresses every
  experiment as cells keyed by canonical config digests
  (:mod:`repro.eval.engine.keys`), with partition → refine → run
  dependencies, so one refined partition is shared by every algorithm
  and experiment that consumes it;
* a **process-pool executor** (:mod:`repro.eval.engine.executor`)
  schedules independent cells on all cores (``--jobs N``); results merge
  in deterministic key order, so output tables are byte-identical to the
  serial run;
* a **content-addressed on-disk cache**
  (:mod:`repro.eval.engine.cache`) stores serialized partitions and run
  profiles, so a second ``run_all``, a ``--quick`` run after a full run,
  or any benchmark script replays artifacts instead of recomputing;
* one **recovery rule**: a damaged artifact is quarantined and
  recomputed from its ancestor chain wherever it is read, and a broken
  process pool hands the rest of the graph to the serial walk.

:class:`~repro.eval.engine.engine.EvalEngine` is the facade the
evaluation harness delegates to; ``use_engine`` installs one for a
``with`` block and ``get_engine`` returns the active engine (a
passthrough engine preserving the historical serial behavior when none
is installed).
"""

from repro.eval.engine.cache import ArtifactCache, CacheAudit, CacheStats
from repro.eval.engine.engine import EvalEngine, get_engine, use_engine
from repro.eval.engine.jobs import Job, JobGraph, Planner
from repro.eval.engine.keys import (
    canonical_json,
    config_digest,
    model_digest,
    model_payload,
    payload_digest,
)

__all__ = [
    "ArtifactCache",
    "CacheAudit",
    "CacheStats",
    "EvalEngine",
    "Job",
    "JobGraph",
    "Planner",
    "canonical_json",
    "config_digest",
    "get_engine",
    "model_digest",
    "model_payload",
    "payload_digest",
    "use_engine",
]

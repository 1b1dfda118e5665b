"""Job graph: every experiment as cells with explicit dependencies.

A :class:`Job` is one cell (see :mod:`repro.eval.engine.cells`) plus the
logical ids of the cells it consumes — ``refine`` depends on its
``partition``, ``run`` depends on the partition / refinement / composite
it executes over.  :class:`JobGraph` deduplicates jobs by logical id, so
when Exp-1, Exp-2 and Exp-4 all need the same refined partition the
graph holds it once and every consumer shares the artifact.

:class:`Planner` is the convenience layer experiment modules use to
declare their cells; it resolves cost models once per algorithm and
embeds their exact coefficients in the spec (worker processes rebuild
them bit-identically).

Logical ids are config digests of ``(kind, spec, deps)`` — deterministic
across processes and hash seeds.  The *physical* cache key of a cell can
depend on the content of its inputs (a run cell is keyed by the content
hash of the partition it executes over) and is resolved by the executor
once dependencies complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.eval.engine.keys import config_digest, model_payload


@dataclass(frozen=True)
class Job:
    """One schedulable cell: logical id, kind, spec, dependency ids."""

    jid: str
    kind: str
    spec: Dict
    deps: Tuple[str, ...] = ()


class JobGraph:
    """A deduplicated DAG of jobs, preserving insertion order."""

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}

    def add(self, job: Job) -> Job:
        """Insert ``job`` unless an identical cell is already planned."""
        existing = self.jobs.get(job.jid)
        if existing is not None:
            return existing
        for dep in job.deps:
            if dep not in self.jobs:
                raise ValueError(f"job {job.jid} depends on unplanned job {dep}")
        self.jobs[job.jid] = job
        return job

    def merge(self, other: "JobGraph") -> None:
        """Union ``other`` into this graph (shared cells deduplicate)."""
        for job in other.jobs.values():
            self.add(job)

    def downstream_cone(self, jid: str) -> List[str]:
        """Transitive dependents of ``jid``, in insertion (topo) order.

        The resilient executor skips exactly this set when a job fails
        permanently — every other job in the DAG still completes.
        """
        cone = {jid}
        out: List[str] = []
        for job in self.jobs.values():
            if job.jid != jid and any(dep in cone for dep in job.deps):
                cone.add(job.jid)
                out.append(job.jid)
        return out

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs.values())


def _jid(kind: str, spec: Dict, deps: Sequence[str]) -> str:
    return config_digest("job", job_kind=kind, spec=spec, deps=list(deps))


class Planner:
    """Declarative builder for experiment job graphs.

    Parameters
    ----------
    model_for:
        ``algorithm -> CostModel`` resolver; defaults to the harness's
        trained models (resolved lazily so test monkeypatches of
        ``harness.trained_cost_model`` are honored).
    """

    def __init__(self, model_for: Optional[Callable[[str], object]] = None) -> None:
        self.graph = JobGraph()
        self._model_for = model_for
        self._model_payloads: Dict[str, Dict] = {}

    def _model(self, algorithm: str) -> Dict:
        if algorithm not in self._model_payloads:
            if self._model_for is not None:
                model = self._model_for(algorithm)
            else:
                from repro.eval import harness

                model = harness.trained_cost_model(algorithm)
            self._model_payloads[algorithm] = model_payload(model)
        return self._model_payloads[algorithm]

    def partition(self, dataset: str, baseline: str, n: int) -> Job:
        """Plan the initial-partition cell for (dataset, baseline, n)."""
        spec = {"kind": "partition", "dataset": dataset, "baseline": baseline, "n": n}
        return self.graph.add(Job(_jid("partition", spec, ()), "partition", spec))

    @staticmethod
    def _fold_cluster_spec(params: Dict) -> Dict:
        """Record the active cluster spec's payload at plan time.

        ``run_all --cluster-spec`` flips the process-wide default before
        planning, so every planned cell carries the exact spec its
        workers must rebuild.  Homogeneous plans leave ``params``
        untouched (legacy job ids unchanged).
        """
        from repro.runtime.clusterspec import spec_payload

        payload = spec_payload(params.pop("cluster_spec", None))
        if payload is not None:
            params["cluster_spec"] = payload
        return params

    @staticmethod
    def _fold_backend(params: Dict) -> Dict:
        """Record a non-default execution backend at plan time.

        Mirrors :meth:`_fold_cluster_spec`: ``run_all --backend shm``
        flips the process-wide default before planning, so every planned
        run cell carries the backend its workers must select.  The
        default (``simulated``) folds to nothing, leaving legacy job ids
        byte-identical.
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

    def refine(
        self,
        dataset: str,
        baseline: str,
        n: int,
        algorithm: str,
        cut_type: str,
        **kwargs,
    ) -> Job:
        """Plan a refine cell (auto-plans its partition dependency)."""
        base = self.partition(dataset, baseline, n)
        spec = {
            "kind": "refine",
            "dataset": dataset,
            "algorithm": algorithm,
            "cut": cut_type,
            "model": self._model(algorithm),
            "kwargs": self._fold_cluster_spec(dict(kwargs)),
        }
        return self.graph.add(
            Job(_jid("refine", spec, (base.jid,)), "refine", spec, (base.jid,))
        )

    def incremental(
        self,
        dataset: str,
        baseline: str,
        n: int,
        algorithm: str,
        cut_type: str,
        mutations,
        **kwargs,
    ) -> Job:
        """Plan an incremental-maintenance cell over a refined partition.

        ``mutations`` is a :class:`~repro.core.incremental.MutationBatch`
        or its text form; the spec stores the canonical text so the job
        id and the physical cache key agree on the batch digest.
        """
        from repro.core.incremental import MutationBatch

        if not isinstance(mutations, MutationBatch):
            mutations = MutationBatch.parse(str(mutations))
        base = self.refine(dataset, baseline, n, algorithm, cut_type)
        spec = {
            "kind": "incremental",
            "dataset": dataset,
            "algorithm": algorithm,
            "cut": cut_type,
            "model": self._model(algorithm),
            "mutations": mutations.to_text(),
            "kwargs": self._fold_cluster_spec(dict(kwargs)),
        }
        return self.graph.add(
            Job(_jid("incremental", spec, (base.jid,)), "incremental", spec, (base.jid,))
        )

    def run(
        self,
        dataset: str,
        algorithm: str,
        on: Job,
        params: Optional[Dict] = None,
        view: Optional[str] = None,
    ) -> Job:
        """Plan a run cell over the output of ``on`` (optionally one view)."""
        spec = {
            "kind": "run",
            "dataset": dataset,
            "algorithm": algorithm,
            "params": self._fold_backend(self._fold_cluster_spec(dict(params or {}))),
            "view": view,
        }
        return self.graph.add(Job(_jid("run", spec, (on.jid,)), "run", spec, (on.jid,)))

    def composite(
        self,
        dataset: str,
        baseline: str,
        n: int,
        batch: Sequence[str],
        cut_type: str,
    ) -> Job:
        """Plan a composite-refine cell over the whole ``batch``."""
        base = self.partition(dataset, baseline, n)
        spec = {
            "kind": "composite",
            "dataset": dataset,
            "cut": cut_type,
            "batch": list(batch),
            "models": {name: self._model(name) for name in batch},
        }
        spec.update(self._fold_cluster_spec({}))
        return self.graph.add(
            Job(_jid("composite", spec, (base.jid,)), "composite", spec, (base.jid,))
        )

    def memo(self, memo_kind: str, params: Optional[Dict] = None) -> Job:
        """Plan a generic memoized computation (whitelisted by name)."""
        spec = {"kind": "memo", "memo_kind": memo_kind, "params": params or {}}
        return self.graph.add(Job(_jid("memo", spec, ()), "memo", spec))

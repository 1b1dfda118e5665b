"""Job graph: every experiment as cells with explicit dependencies.

A :class:`Job` is one cell plus the logical ids of the cells it consumes
— ``refine`` depends on its ``partition``, ``run`` depends on the
partition / refinement / composite it executes over.  :class:`JobGraph`
deduplicates jobs by logical id, so when Exp-1, Exp-2 and Exp-4 all need
the same refined partition the graph holds it once and every consumer
shares the artifact.

:class:`Planner` is the cell source that declares: each experiment's
traversal (``repro.eval.experiments``) asks it for the same cells it asks
a :class:`~repro.eval.harness.Reader` for when the tables are printed,
so the job graph holds exactly the cells the render reads.  A planned
spec is the spec the kind's row in
:data:`repro.eval.engine.cells.CELLS` builds — the same one the facade
builds when it reads the cell — plus where the input comes from
(``dataset``, and ``view`` for a run over one view of a composite).  The
planner resolves cost models once per algorithm and embeds their exact
coefficients in the spec (worker processes rebuild them bit-identically).

Logical ids are config digests of ``(kind, spec, deps)`` — deterministic
across processes and hash seeds.  The *physical* cache key of a cell can
depend on the content of its inputs (a run cell is keyed by the content
hash of the partition it executes over) and is minted by the row's
``key`` once the executor has the dependency's content digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.eval.engine.cells import CELLS
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

    def _add(self, spec: Dict, deps: Tuple[str, ...] = ()) -> Job:
        kind = spec["kind"]
        return self.graph.add(Job(_jid(kind, spec, deps), kind, spec, deps))

    def partition(self, dataset: str, baseline: str, n: int) -> Job:
        """Plan the initial-partition cell for (dataset, baseline, n)."""
        return self._add(dict(CELLS["partition"].spec(baseline, n), dataset=dataset))

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
        spec = CELLS["refine"].spec(algorithm, cut_type, self._model(algorithm), kwargs)
        return self._add(dict(spec, dataset=dataset), (base.jid,))

    def run(
        self,
        dataset: str,
        algorithm: str,
        on: Job,
        params: Optional[Dict] = None,
        view: Optional[str] = None,
    ) -> Job:
        """Plan a run cell over the output of ``on`` (optionally one view)."""
        spec = CELLS["run"].spec(algorithm, params)
        return self._add(dict(spec, dataset=dataset, view=view), (on.jid,))

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
        models = {name: self._model(name) for name in batch}
        spec = CELLS["composite"].spec(cut_type, batch, models)
        return self._add(dict(spec, dataset=dataset), (base.jid,))

    def memo(self, memo_kind: str, params: Optional[Dict] = None) -> Job:
        """Plan a generic memoized computation (whitelisted by name)."""
        return self._add(CELLS["memo"].spec(memo_kind, params))

    def derive(self, post: Callable, *cells) -> None:
        """A pure post-step over cell values: nothing to plan."""
        return None

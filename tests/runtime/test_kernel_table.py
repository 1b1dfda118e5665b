"""One definition per kernel, pinned without a clock.

Each algorithm's per-fragment compute lives once, in
:data:`repro.runtime.kernels.KERNELS`; ``Cluster.map`` calls it in-process
and a shm worker calls the same function object on arena views.  These
tests pin that shape: who calls the function on which backend, and that
the statements the shm backend used to keep a hand-written twin of occur
once in the source.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.runtime import parallel
from repro.runtime.bsp import Cluster
from repro.runtime.kernels import KERNELS
from repro.runtime.plan import plan_for
from tests.runtime.test_shm_differential import _partition

SRC = Path(repro.__file__).parent


def _spied(monkeypatch, kernel):
    """Count the parent-side calls of ``kernel.compute``."""
    calls = []
    real = kernel.compute

    def compute(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "compute", compute)
    return calls, real


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_NAMES))
def test_in_process_map_calls_the_table_function(algorithm, monkeypatch):
    """Once per map on ``simulated``, over the whole copy space; never in
    the parent on ``shm`` — the workers, spawned from a fresh import, run
    their own copy of the same table."""
    assert sorted(KERNELS) == sorted(ALGORITHM_NAMES)
    calls, _ = _spied(monkeypatch, KERNELS[algorithm])
    dispatched = []
    real_map = Cluster.map

    def recording_map(self, kernel, tables, state, fids, args=()):
        assert kernel is KERNELS[algorithm]
        dispatched.append(len(fids))
        return real_map(self, kernel, tables, state, fids, args)

    monkeypatch.setattr(Cluster, "map", recording_map)
    partition = _partition(True, "vertex")
    sim = get_algorithm(algorithm).run(partition, backend="simulated")
    assert len(calls) == len(dispatched) > 0 and sum(dispatched) > 0
    if not parallel.shm_available():
        return
    in_process, calls[:] = list(dispatched), []
    dispatched.clear()
    shm = get_algorithm(algorithm).run(partition, backend="shm", shm_workers=2)
    assert calls == [] and dispatched == in_process
    assert parallel.last_shm_stats()["dispatches"] == sum(n > 0 for n in dispatched)
    assert sim.values == shm.values


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_NAMES))
def test_worker_entry_calls_the_table_function(algorithm, monkeypatch):
    """``_run_fragment`` — all a worker does per fragment — looks the
    function up in the same table and leaves what it returned."""
    kernel = KERNELS[algorithm]
    plan = plan_for(_partition(False, "edge"))
    args = {"tc": (int(plan.key_base), False), "cn": (3.0,)}.get(algorithm, ())
    tables = kernel.all_tables(plan)
    fid = max(range(plan.num_fragments), key=lambda f: kernel.size(tables[f]))
    t = tables[fid]
    size = kernel.size(t)
    rng = np.random.default_rng(5)
    state = [rng.integers(0, 2, size).astype(dtype) for dtype in kernel.state]
    want = kernel.compute(t, *state, *args)
    arena = {f"{fid}/t/{name}": getattr(t, name) for name in kernel.reads}
    arena.update({f"{fid}/s1/{i}": arr for i, arr in enumerate(state)})
    arena.update({f"{fid}/o/{i}": np.zeros(size, d) for i, d in enumerate(kernel.out)})
    arena[f"{fid}/n"] = np.zeros(len(kernel.out), np.int64)
    calls, _ = _spied(monkeypatch, kernel)
    parallel._run_fragment(KERNELS[algorithm], arena.__getitem__, fid, 1, args)
    assert len(calls) == 1
    got = parallel._collect_fragment(kernel, arena.__getitem__, fid)
    if len(kernel.out) == 1:
        want, got = (want,), (got,)
    for w, g in zip(want, got):
        assert w.size > 0
        np.testing.assert_array_equal(w, g)
        assert w.dtype == g.dtype


def _occurrences(pattern, *packages):
    found = []
    for package in packages:
        for path in sorted((SRC / package).glob("*.py")):
            hits = len(re.findall(pattern, path.read_text()))
            if hits:
                found.append((f"{package}/{path.name}", hits))
    return found


def test_each_kernel_statement_is_written_once():
    """The shm backend used to carry a worker twin of every one of these
    (the cluster's and the sync's own ``np.add.at`` / ``np.minimum.at``
    accumulate charges and reductions, not fragment state)."""
    for pattern, home, times in [
        (r"np\.add\.at\(sums", "runtime/kernels.py", 1),  # PR scatter
        (r"np\.minimum\.at\(best", "runtime/kernels.py", 2),  # WCC, SSSP
        (r"np\.triu_indices\(", "runtime/plan.py", 1),
        (r"np\.searchsorted\(stored", "runtime/plan.py", 1),
        (r"t\.roles != DUMMY", "runtime/kernels.py", 1),  # CN eligibility
    ]:
        per_file = _occurrences(pattern, "algorithms", "runtime")
        assert per_file == [(home, times)], (pattern, per_file)


def test_algorithms_do_not_know_backends_exist():
    # base.py names the two RUNTIME_PARAMS and hands them to the cluster.
    mentions = _occurrences(r"shm|backend", "algorithms")
    assert [name for name, _ in mentions] == ["algorithms/base.py"]
    gone = (
        r"_op_(pr|wcc|sssp|tc|cn)\b|_has_keys|_OPS\b"
        r"|def (pr_scatter|wcc_relax|sssp_relax|tc_wedges|cn_eligible)\(\s*self, plan"
    )
    assert _occurrences(gone, "algorithms", "runtime") == []

"""The one barrier formula against the four charges it replaced.

``Cluster._superstep_time`` prices every superstep — homogeneous or
not, with or without stragglers and lost workers — through one formula
over the cluster's capacities (the all-ones spec when none is given).
Before, the cluster picked one of four charges (plain, straggler,
heterogeneous, degraded) and collapsed a uniform spec to ``None``; those
are frozen in ``tests/oracles/barrier_charges.py``.  Hypothesis draws
per-worker ops, a per-link byte matrix, a spec (none, uniform, or skewed
with link overrides), straggler windows and heir shares of lost workers,
and every charge must equal the frozen one's bit for bit, as must the
out-of-superstep ``_op_time`` / ``_byte_time``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition
from repro.runtime.bsp import Cluster
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.costclock import CostClock
from repro.runtime.faults import FaultPlan, PermanentLossFault, StragglerFault
from tests.oracles.barrier_charges import FrozenBarrier

#: capacities and factors that round when divided or multiplied, so a
#: regrouped formula shows as a different float
CAPACITIES = (0.25, 0.3, 0.5, 1.0, 1.5, 3.0)
FACTORS = (1.0, 1.25, 2.0, 3.0)


@lru_cache(maxsize=None)
def _partition(n: int) -> HybridPartition:
    g = Graph(2 * n, [(2 * f, 2 * f + 1) for f in range(n)])
    return HybridPartition.from_vertex_assignment(g, [v // 2 for v in range(2 * n)], n)


def dyadic(max_units: int = 1 << 20):
    """Non-negative multiples of 1/16: every sum the ledger forms is exact."""
    return st.integers(0, max_units).map(lambda units: units / 16.0)


@st.composite
def barriers(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["none", "uniform", "skewed"]))
    spec = None
    if kind == "uniform":
        spec = ClusterSpec.uniform(n)
    elif kind == "skewed":
        caps = st.lists(st.sampled_from(CAPACITIES), min_size=n, max_size=n)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        overridden = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        links = tuple((s, d, draw(st.sampled_from(CAPACITIES))) for s, d in overridden)
        spec = ClusterSpec(tuple(draw(caps)), tuple(draw(caps)), links)
    ops = draw(st.lists(dyadic(), min_size=n, max_size=n))
    link_bytes = np.array(
        [[0.0 if s == d else draw(dyadic(1 << 16)) for d in range(n)] for s in range(n)]
    )
    stragglers = draw(
        st.lists(
            st.builds(
                lambda w, factor, start, length: StragglerFault(
                    w, factor, start, None if length is None else start + length
                ),
                st.integers(0, n - 1),
                st.sampled_from(FACTORS),
                st.integers(0, 4),
                st.none() | st.integers(1, 4),
            ),
            max_size=3,
        )
    )
    # Lost workers (never all of them) and each one's heir shares over
    # the survivors, as failover leaves them.
    dead = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1))
    survivors = [f for f in range(n) if f not in dead]
    lost = {}
    for d in dead:
        heirs = draw(st.lists(st.sampled_from(survivors), unique=True, min_size=1))
        lost[d] = {h: draw(st.integers(1, 16)) / 16.0 for h in heirs}
    faults = FaultPlan(
        stragglers=stragglers, losses=[PermanentLossFault(d, 0) for d in dead]
    )
    step = draw(st.integers(0, 6))
    clock = draw(st.sampled_from([CostClock(), CostClock.multicore()]))
    return n, spec, ops, link_bytes, faults, lost, step, clock


@settings(max_examples=300, deadline=None)
@given(barriers(), dyadic(), dyadic())
def test_one_formula_charges_what_the_four_did(drawn, ops_out, bytes_out):
    n, spec, ops, link_bytes, faults, lost, step, clock = drawn
    cluster = Cluster(_partition(n), clock=clock, faults=faults, spec=spec)
    cluster.charge_bulk(np.arange(n), np.asarray(ops))
    src, dst = np.nonzero(link_bytes)
    cluster.send_batch(src, dst, link_bytes[src, dst])
    step_ops = cluster._step_ops.tolist()
    step_bytes = cluster._step_bytes.tolist()
    assert step_bytes == (link_bytes.sum(axis=1) + link_bytes.sum(axis=0)).tolist()
    cluster._step_index = step
    cluster._lost = lost
    frozen = FrozenBarrier(n, clock, spec, faults, lost, step, link_bytes)

    charged = cluster._superstep_time(step_ops, step_bytes)
    assert charged.hex() == frozen._superstep_time(step_ops, step_bytes).hex()
    assert cluster._op_time(ops_out).hex() == frozen._op_time(ops_out).hex()
    assert cluster._byte_time(bytes_out).hex() == frozen._byte_time(bytes_out).hex()

"""Call-count guard for the refinement hot path (DESIGN §8.2).

Wall-clock gains erode silently on a noisy host; call counts do not.  On
the ``driver_full_pass`` golden input this pins the shape of the two loops
that dominate ``partitioning_s``: one per-vertex pass per reprice, feature
mappings built only on value-memo misses, and construction that notifies
nobody.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections.abc import Mapping

import repro.core
from repro.core import E2H
from repro.core import tracker as tracker_module
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import CostModel
from repro.graph.generators import chung_lu_power_law
from repro.partition.hybrid import HybridPartition

from tests.conftest import make_edge_cut

FRAGMENTS = 4


def golden_input() -> HybridPartition:
    """The initial partition of ``golden/driver_full_pass.json``'s e2h cases."""
    graph = chung_lu_power_law(150, 5.0, exponent=2.1, directed=True, seed=4)
    return make_edge_cut(graph, FRAGMENTS, seed=1)


class CountingPartition(HybridPartition):
    notified = 0

    def _notify(self, v: int) -> None:
        self.notified += 1
        super()._notify(v)


class MappingCounter(CostModel):
    mappings = 0

    def h_value(self, features):
        self.mappings += isinstance(features, Mapping)
        return super().h_value(features)

    def g_value(self, features):
        self.mappings += isinstance(features, Mapping)
        return super().g_value(features)


def test_construction_notifies_nobody():
    base = golden_input()
    assignment = [base.master(v) for v in base.graph.vertices]
    partition = CountingPartition.from_vertex_assignment(
        base.graph, assignment, FRAGMENTS
    )
    assert partition.notified == 0
    assert partition.copy().generation == 0
    # The counter is live: a listener-aware primitive does notify.
    partition.set_master(0, next(f for f in partition.placement(0) if f != partition.master(0)))
    assert partition.notified == 1


def test_one_pass_per_reprice_and_mappings_only_on_memo_misses(monkeypatch):
    calls = {"reprice": 0, "pass": 0}
    reprice, one_pass = CostTracker._reprice, tracker_module.copy_keys

    def counted_reprice(self, v):
        calls["reprice"] += 1
        reprice(self, v)

    def counted_pass(*args, **kwargs):
        calls["pass"] += 1
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(CostTracker, "_reprice", counted_reprice)
    monkeypatch.setattr(tracker_module, "copy_keys", counted_pass)

    partition = golden_input()
    base = builtin_cost_model("pr")
    model = MappingCounter(base.name, base.h, base.g, base.gate)
    refiner = E2H(model)
    refiner.refine(partition, in_place=True)
    stats = refiner.last_stats
    assert calls["reprice"] > partition.graph.num_vertices  # rebuild plus churn
    assert calls["pass"] == calls["reprice"]
    assert 0 < model.mappings == stats.gain_cache.value_misses < stats.rescoring_calls


def test_no_refiner_module_reaches_for_the_mapping_accessors():
    """The per-copy accessors stay public; ``repro.core`` prices by key."""
    for info in pkgutil.iter_modules(repro.core.__path__):
        module = importlib.import_module(f"repro.core.{info.name}")
        for name in ("vertex_features", "hypothetical_ecut_features"):
            assert not hasattr(module, name), f"repro.core.{info.name} imports {name}"

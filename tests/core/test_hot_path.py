"""Call-count guard for the refinement hot path (DESIGN §8.2).

Wall-clock gains erode silently on a noisy host; call counts do not.  On
the ``driver_full_pass`` golden input this pins the shape of the loops
that dominate ``partitioning_s``: a move is one transaction that announces
each touched vertex once to the one listener a pass puts on the partition,
the single-edge verbs serve ESplit alone, a price crosses one frame
between tracker and memo, feature mappings are built only on value-memo
misses, and construction notifies nobody.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from collections.abc import Mapping

import repro.core
from repro.core import E2H
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
    """Counts notification events, transactions and single-edge verbs."""

    notified = 0
    transactions = 0
    edge_adds = 0
    edge_removes = 0

    def _notify_all(self, touched) -> None:
        touched = list(touched)
        assert len(set(touched)) == len(touched), "a vertex announced twice"
        self.notified += len(touched)
        self.transactions += 1
        super()._notify_all(touched)

    def add_edge_to(self, fid, edge) -> bool:
        self.edge_adds += 1
        return super().add_edge_to(fid, edge)

    def remove_edge_from(self, fid, edge, prune=True) -> bool:
        self.edge_removes += 1
        return super().remove_edge_from(fid, edge, prune)


def counting_input() -> CountingPartition:
    base = golden_input()
    assignment = [base.master(v) for v in base.graph.vertices]
    return CountingPartition.from_vertex_assignment(base.graph, assignment, FRAGMENTS)


class MappingCounter(CostModel):
    mappings = 0

    def h_value(self, features):
        self.mappings += isinstance(features, Mapping)
        return super().h_value(features)

    def g_value(self, features):
        self.mappings += isinstance(features, Mapping)
        return super().g_value(features)


def test_construction_notifies_nobody():
    partition = counting_input()
    assert partition.notified == 0
    assert partition.copy().generation == 0
    # The counter is live: a listener-aware primitive does notify.
    partition.set_master(0, next(f for f in partition.placement(0) if f != partition.master(0)))
    assert partition.notified == 1


def test_a_move_is_one_transaction_and_single_edge_verbs_serve_esplit_alone():
    partition = counting_input()
    heard = []
    partition.add_listener(heard.append)
    refiner = E2H(builtin_cost_model("pr"))
    refiner.refine(partition, in_place=True)
    stats = refiner.last_stats
    assert stats.emigrated > 0 and stats.split_edges > 0 and stats.master_moves > 0
    # Events == what the transactions touched == what any listener heard.
    assert partition.notified == partition.generation == len(heard)
    # ESplit is an add and a remove per edge, and nobody else's.
    assert partition.edge_adds == partition.edge_removes == stats.split_edges
    # EMigrate is one star plus at most three centre-only verbs, MAssign one
    # set_master per move: transactions count moves, not the edges they carry.
    assert partition.transactions <= (
        4 * stats.emigrated + 2 * stats.split_edges + stats.master_moves
    )
    assert partition.transactions < partition.notified


def test_a_refine_pass_puts_one_listener_on_the_partition(monkeypatch):
    """Every mutation notification reaches the tracker's dirty mark and
    nothing else: the tracker answers every pricing question itself."""
    partition = golden_input()
    added = []
    add_listener = HybridPartition.add_listener

    def spy(self, callback):
        added.append(callback)
        add_listener(self, callback)

    monkeypatch.setattr(HybridPartition, "add_listener", spy)
    refiner = E2H(builtin_cost_model("pr"))
    refiner.refine(partition, in_place=True)
    assert refiner.last_stats.emigrated > 0
    assert [callback.__func__ for callback in added] == [CostTracker._mark_dirty]
    assert partition._listeners == []


def test_one_frame_per_price_and_mappings_only_on_memo_misses():
    """``rescoring_calls`` h/g requests are ``rescoring_calls`` frames of the
    session's pricer and nothing else below the tracker; only a memo miss
    goes deeper, and only it builds a mapping."""
    partition = golden_input()
    base = builtin_cost_model("pr")
    model = MappingCounter(base.name, base.h, base.g, base.gate)
    refiner = E2H(model)
    frames = {}

    def count_frames(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            key = (code.co_filename.rsplit("/", 1)[-1], code.co_name)
            frames[key] = frames.get(key, 0) + 1

    sys.setprofile(count_frames)
    try:
        refiner.refine(partition, in_place=True)
    finally:
        sys.setprofile(None)
    stats = refiner.last_stats
    assert frames[("gaincache.py", "price")] == stats.rescoring_calls
    assert frames[("gaincache.py", "_lookup")] == stats.gain_cache.value_misses
    for name in ("h_key", "g_key", "h_value", "g_value"):
        assert ("dirty.py", name) not in frames  # the counter adds no frame
        assert ("gaincache.py", name) not in frames
    assert ("features.py", "copy_keys") not in frames or frames[
        ("features.py", "copy_keys")
    ] < frames[("tracker.py", "_reprice")]  # reprices read the indexes directly
    assert 0 < model.mappings == stats.gain_cache.value_misses < stats.rescoring_calls


def test_no_refiner_module_reaches_for_the_mapping_accessors():
    """The per-copy accessors stay public; ``repro.core`` prices by key."""
    for info in pkgutil.iter_modules(repro.core.__path__):
        module = importlib.import_module(f"repro.core.{info.name}")
        for name in ("vertex_features", "hypothetical_ecut_features"):
            assert not hasattr(module, name), f"repro.core.{info.name} imports {name}"

"""Tests for the incremental cost tracker: it must agree exactly with a
from-scratch CostModel evaluation after arbitrary mutation sequences."""

import numpy as np
import pytest

from repro.core.operations import emigrate, split_migrate_edge, vmerge, vmigrate
from repro.core.tracker import CostTracker
from repro.costmodel.library import builtin_cost_model
from repro.costmodel.model import constant_cost_model

from tests.conftest import make_edge_cut, make_vertex_cut


def assert_tracker_exact(tracker):
    """Tracker sums must equal a full recomputation."""
    partition = tracker.partition
    model = tracker.cost_model
    for fid in range(partition.num_fragments):
        assert tracker.comp_cost(fid) == pytest.approx(
            model.fragment_comp_cost(partition, fid), abs=1e-9
        )
        assert tracker.comm_cost(fid) == pytest.approx(
            model.fragment_comm_cost(partition, fid), abs=1e-9
        )


@pytest.mark.parametrize("alg", ["cn", "pr", "wcc", "tc"])
def test_initial_sums_match_model(alg, power_graph):
    p = make_edge_cut(power_graph, 4)
    tracker = CostTracker(p, builtin_cost_model(alg))
    assert_tracker_exact(tracker)
    tracker.detach()


def test_exact_after_edge_mutations(power_graph):
    p = make_edge_cut(power_graph, 3)
    tracker = CostTracker(p, builtin_cost_model("cn"))
    rng = np.random.default_rng(5)
    edges = list(power_graph.edges())
    for _ in range(30):
        edge = edges[rng.integers(0, len(edges))]
        hosts = [f for f in range(3) if p.fragments[f].has_edge(edge)]
        target = int(rng.integers(0, 3))
        if target not in hosts:
            p.add_edge_to(target, edge)
        elif len(hosts) > 1:
            p.remove_edge_from(hosts[0], edge)
    assert_tracker_exact(tracker)
    tracker.detach()


def test_exact_after_emigrate_and_split(power_graph):
    p = make_edge_cut(power_graph, 3)
    tracker = CostTracker(p, builtin_cost_model("cn"))
    moved = 0
    for v in power_graph.vertices:
        home = p.designated_home(v)
        if home == 0 and moved < 10:
            emigrate(p, v, 0, 1)
            moved += 1
    # Split a vertex still homed at 0.
    for v in power_graph.vertices:
        if p.designated_home(v) == 0 and p.fragments[0].incident_count(v) > 2:
            for edge in list(p.fragments[0].incident(v))[:2]:
                split_migrate_edge(p, v, edge, 0, 2)
            break
    assert_tracker_exact(tracker)
    tracker.detach()


def test_exact_after_vertex_cut_ops(power_graph):
    p = make_vertex_cut(power_graph, 3)
    tracker = CostTracker(p, builtin_cost_model("tc"))
    done = 0
    for v, hosts in list(p.vertex_fragments()):
        if len(hosts) >= 2 and done < 8:
            hosts = sorted(hosts)
            vmigrate(p, v, hosts[0], hosts[1])
            done += 1
    for v, hosts in list(p.vertex_fragments()):
        if p.is_vcut_vertex(v):
            vmerge(p, v, sorted(p.placement(v))[0])
            break
    assert_tracker_exact(tracker)
    tracker.detach()


def test_exact_after_master_moves(power_graph):
    p = make_vertex_cut(power_graph, 3)
    tracker = CostTracker(p, builtin_cost_model("pr"))
    for v, hosts in list(p.vertex_fragments())[:40]:
        if len(hosts) > 1:
            p.set_master(v, max(hosts))
    assert_tracker_exact(tracker)
    tracker.detach()


def test_parallel_cost_and_copy_cost(power_graph):
    p = make_edge_cut(power_graph, 3)
    tracker = CostTracker(p, constant_cost_model())
    # Constant model: every vertex bears exactly 1 at its home.
    assert sum(tracker.comp_costs()) == pytest.approx(power_graph.num_vertices)
    assert tracker.parallel_cost() == pytest.approx(
        max(tracker.comp_costs())
    )
    v = 0
    home = p.designated_home(v)
    assert tracker.copy_comp_cost(v, home) == pytest.approx(1.0)
    tracker.detach()


def test_detach_stops_updates(power_graph):
    p = make_edge_cut(power_graph, 3)
    tracker = CostTracker(p, constant_cost_model())
    before = tracker.comp_costs()
    tracker.detach()
    v = next(v for v in power_graph.vertices if p.designated_home(v) == 0)
    emigrate(p, v, 0, 1)
    assert tracker.comp_costs() == before  # stale by design after detach


def test_price_as_ecut_matches_post_move_contribution(power_graph):
    p = make_edge_cut(power_graph, 3)
    model = builtin_cost_model("cn")
    tracker = CostTracker(p, model)
    v = next(v for v in power_graph.vertices if p.designated_home(v) == 0)
    price = tracker.price_as_ecut(v)
    emigrate(p, v, 0, 1)
    assert tracker.copy_comp_cost(v, 1) == pytest.approx(price, rel=1e-9)
    tracker.detach()


def test_one_seed_restored_twice_shares_no_mutable_state(power_graph):
    """A seed shares its per-copy dicts with every tracker restored from it
    (DESIGN §15): repricing replaces a vertex's dict, so driving one tracker
    must leave the seed and its sibling exactly as they were."""
    p = make_edge_cut(power_graph, 3)
    model = builtin_cost_model("pr")
    first = CostTracker(p, model)
    seed = first.snapshot()
    first.detach()

    def state(obj, prefix="_"):  # a tracker's fields, or (prefix "") a seed's
        comp, comm, copies, comms = (
            getattr(obj, prefix + name)
            for name in ("comp", "comm", "copy_contrib", "comm_contrib")
        )
        return (
            [c.hex() for c in comp], [c.hex() for c in comm],
            {v: dict(c) for v, c in copies.items()}, dict(comms),
        )

    captured = state(seed, "")
    driven, sibling = CostTracker(p, model, seed=seed), CostTracker(p, model, seed=seed)
    assert driven.seeded and sibling.seeded
    assert state(driven) == state(sibling) == captured
    sibling.detach()  # hears nothing from here on: any change would be a leak
    moved = 0
    for v in power_graph.vertices:
        if p.designated_home(v) == 0 and moved < 12:
            emigrate(p, v, 0, 1 + moved % 2)
            driven.ensure_current()
            moved += 1
    for v, hosts in list(p.vertex_fragments())[:40]:
        if len(hosts) > 1:
            p.set_master(v, max(hosts))
    assert_tracker_exact(driven)
    assert state(driven) != captured
    assert state(sibling) == captured and state(seed, "") == captured
    # Still replayable: a third tracker restores it and catches up by delta.
    third = CostTracker(p, model, seed=seed)
    assert third.seeded
    assert_tracker_exact(third)
    assert state(seed, "") == captured
    driven.detach()
    third.detach()

"""Star transactions equal the per-edge moves they replaced (DESIGN §8.2).

``HybridPartition.transfer_star`` moves a star in one transaction: one
notification per touched vertex, the centre's fullness settled once, the
tracker repricing off ``features.priced_copies`` through one-frame pricers.
The per-edge operations, the per-reprice copy list and the three-frame
funnel are frozen in ``tests/oracles/per_edge_moves.py``.  Two identical
worlds — the live stack and the frozen one — take the same random sequence of
moves, master flips, cache queries and flushes, and after **every** step
must agree on every container's contents and the canonical vertex walk,
the vertices the step journalled, the tracker's dirty set, its float sums
to the bit, and every counter.  Insertion orders may differ: nothing
reads them (DESIGN §8.2).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import E2H, ME2H, MV2H, V2H
from repro.core import operations as live
from repro.core.driver import RefineSession
from repro.core.gaincache import GainCache
from repro.costmodel.library import builtin_cost_model
from repro.graph.digraph import Graph
from repro.partition.hybrid import HybridPartition

from tests.conftest import make_edge_cut, make_vertex_cut
from tests.oracles import per_edge_moves as frozen


def layout(partition: HybridPartition) -> dict:
    """Every container of ``partition`` by contents, and the canonical walk."""
    return {
        "fragments": [
            (
                {v: sorted(bucket) for v, bucket in f._incident.items()},
                sorted(f._edges),
                dict(f._in_deg),
                dict(f._out_deg),
            )
            for f in partition.fragments
        ],
        "placement": partition._placement,
        "full": partition._full,
        "masters": partition._masters,
        "vertex walk": list(partition.vertex_fragments()),
    }


def centre_of(op, graph: Graph) -> int:
    """The vertex a drawn step is about; vertex 0 is the hub (long stars)."""
    v = op[1] % (graph.num_vertices + 4)
    return v if v < graph.num_vertices else 0


class World:
    """One partition under one evaluation stack, and its moves."""

    def __init__(self, partition: HybridPartition, model, oracle: bool):
        self.partition = partition
        self.oracle = oracle
        if oracle:
            self.cache = GainCache(partition, model)
            self.cache.model = frozen.ThreeFrameMemoizedCostModel(model, self.cache.stats)
            self.counted = frozen.ThreeFrameRescoringModel(self.cache.model)
            self.tracker = frozen.PerEdgeTracker(partition, self.counted)
            self.cache.bind(self.tracker)
            self.moves = frozen
            self.assign = {"me2h": frozen.me2h_assign_unit, "mv2h": frozen.mv2h_assign_unit}
        else:
            session = RefineSession(partition, model, None, None)
            self.cache, self.counted, self.tracker = (
                session.scorer, session.counted, session.tracker
            )
            self.moves = live
            self.assign = {"me2h": ME2H._assign_unit, "mv2h": MV2H._assign_unit}
        self.mark = partition.generation  # journal position before the last step

    def close(self) -> None:
        self.tracker.detach()
        self.cache.detach()

    def step(self, op):
        """Apply one drawn step; returns the exception type it raised, if any."""
        self.mark = self.partition.generation
        try:
            self._apply(op)
        except (AttributeError, KeyError, ValueError) as error:
            return type(error)
        return None

    def _apply(self, op) -> None:
        kind, a, b, c = op
        partition, graph = self.partition, self.partition.graph
        n = partition.num_fragments
        v = centre_of(op, graph)
        hosts = sorted(f.fid for f in partition.fragments if f.has_vertex(v))
        src = hosts[b % len(hosts)] if hosts else b % n
        dst = c % n
        if kind == 0:
            self.moves.emigrate(partition, v, src, dst)
        elif kind == 1:
            others = [fid for fid in hosts if fid != src]
            if others and c % 8:
                dst = others[c % len(others)]  # the locality condition, mostly met
            self.moves.vmigrate(partition, v, src, dst)
        elif kind == 2:
            self.moves.vmerge(partition, v, dst)
        elif kind == 3:
            local = sorted(partition.fragments[src].incident(v))
            if local:
                self.moves.split_migrate_edge(partition, v, local[c % len(local)], src, dst)
        elif kind == 4:  # ME2H's unit: the whole star of v
            self.assign["me2h"](partition, (v, tuple(graph.incident_edges(v))), dst)
        elif kind == 5:  # MV2H's unit: part of a copy's star
            local = sorted(partition.fragments[src].incident(v) or graph.incident_edges(v))
            self.assign["mv2h"](partition, (v, tuple(local[: 1 + b % 3])), dst)
        elif kind == 6:
            if hosts:
                partition.set_master(v, dst if c % 4 == 0 else hosts[c % len(hosts)])
        elif kind == 7:
            self.tracker.ensure_current()
        else:
            self.cache.price_as_ecut(v)
            if len(hosts) > 1:
                self.cache.host_scores(v, hosts)

    def state(self) -> dict:
        partition, tracker = self.partition, self.tracker
        journal = partition._journal[self.mark - partition._journal_start:]
        return {
            **layout(partition),
            "step delta": partition.mutations_since(self.mark),
            "step touches": sorted(set(journal)),
            "dirty": tracker._dirty,
            "comp": [c.hex() for c in tracker._comp],
            "comm": [c.hex() for c in tracker._comm],
            "copy contrib": tracker._copy_contrib,
            "comm contrib": tracker._comm_contrib,
            "cache stats": self.cache.stats.as_dict(),
            "rescoring calls": self.counted.calls,
        }


def assert_same(live_world: World, frozen_world: World, context) -> None:
    got, want = live_world.state(), frozen_world.state()
    for name in want:
        assert got[name] == want[name], f"{name} differs after {context}"


def run_both(base: HybridPartition, model, ops) -> None:
    worlds = [World(base.copy(), model, oracle) for oracle in (False, True)]
    try:
        assert_same(*worlds, "construction")
        for op in ops:
            raised = [world.step(op) for world in worlds]
            assert raised[0] is raised[1], f"{op}: {raised}"
            assert_same(*worlds, op)
            # One transaction never journals a vertex twice ...
            live_part = worlds[0].partition
            journal = live_part._journal[worlds[0].mark - live_part._journal_start:]
            if op[0] in (0, 1, 2, 4, 5):
                # ... beyond the star's own verbs that follow it (add_vertex_to,
                # remove_vertex_from, set_master re-announce the centre only).
                centre = centre_of(op, live_part.graph)
                assert len([w for w in journal if w != centre]) == len(
                    {w for w in journal if w != centre}
                )
        for world in worlds:
            world.tracker.ensure_current()
        assert_same(*worlds, "the final flush")
    finally:
        for world in worlds:
            world.close()


RAW = st.integers(min_value=0, max_value=2**16)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    directed = draw(st.booleans())
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3 * n))
    edges += [(0, w) for w in range(n) if draw(st.booleans())]  # a hub
    if directed:
        # Antiparallel pairs: the far endpoint appears twice in one star.
        edges += [(w, u) for u, w in edges if draw(st.booleans())]
    graph = Graph(n, edges, directed=directed)
    fragments = draw(st.integers(min_value=2, max_value=16))
    family = draw(st.sampled_from(["edge-cut", "vertex-cut", "e2h", "v2h", "empty"]))
    model = draw(st.sampled_from(["pr", "tc"]))
    ops = draw(
        st.lists(st.tuples(st.integers(0, 8), RAW, RAW, RAW), min_size=6, max_size=40)
    )
    return graph, fragments, family, model, draw(RAW), ops


def build(graph: Graph, fragments: int, family: str, model, seed: int) -> HybridPartition:
    if family == "empty":  # a composite output, built up unit by unit
        return HybridPartition(graph, fragments)
    if family in ("edge-cut", "e2h"):
        base = make_edge_cut(graph, fragments, seed=seed)
        return E2H(model).refine(base) if family == "e2h" else base
    base = make_vertex_cut(graph, fragments, seed=seed)
    return V2H(model).refine(base) if family == "v2h" else base


@settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(scenarios())
def test_star_moves_match_the_per_edge_route_after_every_step(scenario):
    graph, fragments, family, model_name, seed, ops = scenario
    model = builtin_cost_model(model_name)
    run_both(build(graph, fragments, family, model, seed), model, ops)


def freeze_the_stack(monkeypatch) -> None:
    """Route every refiner through the frozen moves, tracker and funnel."""
    from repro.core import driver, e2h, gaincache, me2h, mv2h, parallel, v2h

    for module, names in (
        (e2h, ("emigrate", "split_migrate_edge")), (v2h, ("vmigrate", "vmerge")),
        # ESplit's move is e2h.split_edge and VMerge's V2H._promote in
        # both forms.
        (parallel, ("emigrate", "vmigrate")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, getattr(frozen, name))
    monkeypatch.setattr(me2h.ME2H, "_assign_unit", staticmethod(frozen.me2h_assign_unit))
    monkeypatch.setattr(mv2h.MV2H, "_assign_unit", staticmethod(frozen.mv2h_assign_unit))
    monkeypatch.setattr(driver, "CostTracker", frozen.PerEdgeTracker)
    monkeypatch.setattr(me2h, "CostTracker", frozen.PerEdgeTracker)
    monkeypatch.setattr(driver, "RescoringModel", frozen.ThreeFrameRescoringModel)
    monkeypatch.setattr(
        gaincache, "memoize_cost_model",
        lambda model, stats=None, max_entries=gaincache.DEFAULT_MAX_ENTRIES: (
            model  # idempotent, as the original
            if isinstance(model, gaincache.MemoizedCostModel)
            else frozen.ThreeFrameMemoizedCostModel(model, stats, max_entries)
        ),
    )


@pytest.mark.parametrize("refiner", ["e2h", "v2h", "me2h", "mv2h", "pare2h", "parv2h"])
@pytest.mark.parametrize("directed", [True, False])
def test_whole_passes_match_with_the_frozen_stack(refiner, directed, monkeypatch):
    from repro.core import ParE2H, ParV2H
    from repro.graph.generators import chung_lu_power_law

    graph = chung_lu_power_law(160, 5.0, exponent=2.1, directed=directed, seed=11)
    models = {name: builtin_cost_model(name) for name in ("pr", "tc", "wcc")}
    cut = make_edge_cut if "e2h" in refiner else make_vertex_cut

    def one_pass():
        base = cut(graph, 5, seed=2)
        worker = {
            "e2h": lambda: E2H(models["pr"]), "v2h": lambda: V2H(models["tc"]),
            "me2h": lambda: ME2H(models), "mv2h": lambda: MV2H(models),
            "pare2h": lambda: ParE2H(models["pr"]), "parv2h": lambda: ParV2H(models["tc"]),
        }[refiner]()
        out = worker.refine(base)
        out = out[0] if isinstance(out, tuple) else out
        parts = list(out.partitions.values()) if hasattr(out, "partitions") else [out]
        stats = worker.last_stats
        caches = stats.gain_cache
        caches = caches if isinstance(caches, dict) else {"": caches}
        return (
            [layout(part) for part in parts],
            [part.generation > 0 for part in parts],
            stats.rescoring_calls,
            {name: cache.as_dict() for name, cache in caches.items()},
            getattr(stats, "cost_after", 0.0).hex(),
        )

    got = one_pass()
    freeze_the_stack(monkeypatch)
    assert got == one_pass()


# ----------------------------------------------------------------------
# The traps of the transaction contract, one fixed case each
# ----------------------------------------------------------------------
MOVES = [(kind, v, b, c) for kind in (0, 1, 2, 3, 4, 5) for v in range(5)
         for b in (0, 1) for c in (0, 1, 2)]


def test_antiparallel_pairs_keep_their_per_edge_order():
    graph = Graph(5, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 4), (0, 0)], directed=True)
    base = HybridPartition.from_vertex_assignment(graph, [0, 1, 0, 1, 2], 3)
    run_both(base, builtin_cost_model("tc"), MOVES)


def test_noop_adds_and_kept_edges_touch_nobody():
    # Fragment 1 already replicates the star of 0; its neighbours compute at 0.
    graph = Graph(4, [(0, 1), (0, 2), (0, 3)], directed=False)
    base = HybridPartition.from_vertex_assignment(graph, [0, 0, 0, 0], 2)
    for edge in sorted(graph.edges()):
        base.add_edge_to(1, edge)
    live_part, frozen_part = base.copy(), base.copy()
    before = live_part.generation
    live.emigrate(live_part, 0, 0, 1)
    frozen.emigrate(frozen_part, 0, 0, 1)
    # Every add a no-op, every edge kept: only the master moved.
    assert live_part.mutations_since(before) == {0} == frozen_part.mutations_since(before)
    run_both(base, builtin_cost_model("pr"), MOVES)


def test_a_self_pruning_centre_drops_its_master_to_the_lowest_host():
    graph = Graph(4, [(1, 0), (2, 0), (3, 0)], directed=True)
    base = HybridPartition.from_vertex_assignment(graph, [2, 1, 1, 1], 3)
    run_both(base, builtin_cost_model("pr"), [(0, 0, 0, 0), (7, 0, 0, 0)] + MOVES)
    # No neighbour computes at fragment 2, so every edge leaves it and the
    # centre's copy there — the master — is pruned before the star is done.
    moved = base.copy()
    live.emigrate(moved, 0, 2, 0)
    assert not moved.fragments[2].has_vertex(0)
    assert moved.placement(0) == {0, 1} and moved.master(0) == 0


def test_isolated_candidates_move_as_bare_copies():
    graph = Graph(5, [(0, 1)], directed=True)
    base = HybridPartition.from_vertex_assignment(graph, [0, 0, 1, 1, 2], 3)
    run_both(base, builtin_cost_model("pr"), MOVES)


def test_a_star_rejects_edges_the_graph_lacks_before_moving_anything():
    graph = Graph(3, [(0, 1), (1, 2)], directed=False)
    partition = HybridPartition.from_vertex_assignment(graph, [0, 0, 1], 2)
    before = partition.generation
    with pytest.raises(ValueError, match="graph lacks"):
        partition.transfer_star(1, [(0, 1), (0, 2)], 1)
    with pytest.raises(ValueError, match="must differ"):
        partition.transfer_star(1, [(0, 1)], 1, src=1, keep="none")
    with pytest.raises(ValueError, match="keep rule"):
        partition.transfer_star(1, [(0, 1)], 1, keep="some")
    assert partition.generation == before
    assert not partition.fragments[1].has_edge((0, 1))

"""The four workloads: inputs from a seed, the timed line, the checks.

Every workload runs on 8 fragments on the simulated backend.  Sizes at
``--scale 1.0`` are chosen so one repetition of the timed line takes
2.3-3.3 s on the 2-core reference VM (3.5 s with its base build for a
lap of ``stream-maintain``): short enough for 6-10 repetitions inside the
26 s run window, long enough that every wall-clock end-to-end metric has
a floor of at least 0.25 s.
"""

from __future__ import annotations

import math
import random

import layers

FRAGMENTS = 8
PR_TOLERANCE = 1e-9


class Outcome:
    """What one repetition produced: objects to verify, counters to compare."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.edges = layers.num_edges(graph)
        self.replication_ratio = None
        self.parts = []  # final partitions
        self.passes = []  # refine counters, one dict per refinement pass
        self.runs = []  # simulated-clock counters, one dict per algorithm run
        self.results = []  # (algorithm, params, values) still to verify
        self.maintained = False  # parts[0] went through plan patching

    def refined(self, refiner) -> None:
        self.passes.append(layers.refine_counters(refiner))

    def ran(self, algorithm, params, result, verify=True) -> None:
        self.runs.append(layers.run_counters(result))
        if verify:
            self.results.append((algorithm, params, result.values))


def _sized(base: int, scale: float, least: int) -> int:
    return max(least, int(round(base * scale)))


def _written(rec, graph, prefix: str) -> str:
    path = prefix + "-graph.txt"
    rec.stage("write", layers.write_graph, graph, path)
    return path


def _matches(algorithm: str, got, want) -> bool:
    if algorithm != "pr":
        return got == want
    return got.keys() == want.keys() and all(
        abs(got[v] - want[v]) <= PR_TOLERANCE for v in want
    )


def verify_outcome(rec, checks, out, trained) -> None:
    """Invariants of every final partition; every kept result vs the reference."""
    for index, part in enumerate(out.parts):
        checks.check(
            rec.stage("validate", layers.is_valid, part, index=index),
            "check_partition on a final partition",
        )
    for index, (algorithm, params, values) in enumerate(out.results):
        want = rec.stage("reference", layers.reference, algorithm, out.graph,
                         index=index, **params)
        checks.check(
            _matches(algorithm, values, want),
            f"{algorithm}{params or ''} equals repro.algorithms.reference",
        )
    for algorithm, model in trained.items():
        cost = layers.model_cost(model, out.parts[0])
        checks.check(
            math.isfinite(cost) and cost > 0.0,
            f"trained {algorithm} cost model prices the final partition",
        )
    if out.maintained:
        checks.check(
            layers.patched_plan_matches_fresh_compile(out.parts[0]),
            "final patched plan equals a fresh FragmentPlan compile",
        )


class SingleAlgorithm:
    """read -> partition -> refine for one algorithm -> plan -> run it."""

    def __init__(self, name, why, vertices, directed, partitioner, refiner, algorithm):
        self.name, self.why = name, why
        self.vertices, self.directed = vertices, directed
        self.partitioner, self.refiner, self.algorithm = partitioner, refiner, algorithm
        self.algorithms = (algorithm,)

    def make_inputs(self, rec, seed, scale, prefix):
        n = _sized(self.vertices, scale, 64)
        graph = rec.stage("generate", layers.generate_powerlaw, n, self.directed, seed)
        return {"graph": _written(rec, graph, prefix)}

    def rep(self, rec, inputs) -> Outcome:
        out = Outcome(rec.stage("read", layers.read_graph, inputs["graph"]))
        part = rec.stage("partition", layers.partition, out.graph, self.partitioner,
                         FRAGMENTS)
        out.replication_ratio = layers.replication_ratio(part)
        refiner = self.refiner(self.algorithm)
        part = rec.stage("refine", layers.refine, refiner, part)
        out.refined(refiner)
        rec.stage("plan", layers.plan, part)
        out.ran(self.algorithm, {},
                rec.stage("run:" + self.algorithm, layers.run, self.algorithm, part))
        out.parts = [part]
        return out


class RoadBatch:
    """One composite partition amortised over a batch of three algorithms."""

    name = "road-batch-me2h"
    why = ("high-diameter grid, xtrapulp -> ME2H{sssp,wcc,pr}, 24 SSSP queries + WCC + PR:"
           " composite refiner path, superstep-overhead-bound runs")
    algorithms = ("sssp", "wcc", "pr")
    side = 70
    queries = (6, 4)  # one seeded source in each cell of a 6 x 4 tiling of the grid

    def make_inputs(self, rec, seed, scale, prefix):
        side = _sized(self.side, math.sqrt(scale), 12)
        graph = rec.stage("generate", layers.generate_road, side, seed)
        rng = random.Random(seed)
        cols, rows = self.queries
        sources = [
            rng.randrange(r * side // rows, (r + 1) * side // rows) * side
            + rng.randrange(c * side // cols, (c + 1) * side // cols)
            for r in range(rows)
            for c in range(cols)
        ]
        return {"graph": _written(rec, graph, prefix), "sources": sources}

    def rep(self, rec, inputs) -> Outcome:
        out = Outcome(rec.stage("read", layers.read_graph, inputs["graph"]))
        part = rec.stage("partition", layers.partition, out.graph, "xtrapulp", FRAGMENTS)
        out.replication_ratio = layers.replication_ratio(part)
        refiner = layers.me2h(self.algorithms)
        composite = rec.stage("refine", layers.refine_composite, refiner, part)
        out.refined(refiner)
        parts = {a: layers.composite_part(composite, a) for a in self.algorithms}
        for index, algorithm in enumerate(self.algorithms):
            rec.stage("plan", layers.plan, parts[algorithm], index=index)
        for index, source in enumerate(inputs["sources"]):
            params = {"source": source}
            out.ran("sssp", params, rec.stage(
                "run:sssp" if index else "run:sssp:cold",
                layers.run, "sssp", parts["sssp"], index=index, **params))
        for algorithm in ("wcc", "pr"):
            out.ran(algorithm, {},
                    rec.stage("run:" + algorithm, layers.run, algorithm, parts[algorithm]))
        out.parts = list(parts.values())
        return out


class StreamMaintain:
    """The write path: a refined base maintained through K mutation batches."""

    name = "stream-maintain"
    why = ("40 batches of 16 edge mutations on a refined base: apply_mutations, plan"
           " recompile, refine_incremental, plan patch, cold PR - the incremental twin"
           " of every bulk layer")
    algorithms = ("pr",)
    vertices = 2000
    batches = 40
    batch_size = 16

    def make_inputs(self, rec, seed, scale, prefix):
        n = _sized(self.vertices, scale, 64)
        graph = rec.stage("generate", layers.generate_powerlaw, n, True, seed)
        present = layers.edge_list(graph)
        index = set(present)
        rng = random.Random(seed)
        batches = []
        for _ in range(self.batches):
            lines = []
            for _ in range(self.batch_size // 2):
                i = rng.randrange(len(present))
                present[i], present[-1] = present[-1], present[i]
                edge = present.pop()
                index.discard(edge)
                lines.append("- %d %d" % edge)
            while len(lines) < self.batch_size:
                edge = (rng.randrange(n), rng.randrange(n))
                if edge[0] != edge[1] and edge not in index:
                    index.add(edge)
                    present.append(edge)
                    lines.append("+ %d %d" % edge)
            batches.append(layers.parse_mutations("\n".join(lines)))
        return {"graph": _written(rec, graph, prefix), "batches": batches}

    def rep(self, rec, inputs) -> Outcome:
        # One lap.  The base build is untimed (its floor goes to setup_s);
        # mutations change graph and partition in place, so every lap needs
        # a fresh base and replays the same batches against it.
        out = Outcome(rec.stage("base:read", layers.read_graph, inputs["graph"]))
        part = rec.stage("base:partition", layers.partition, out.graph, "fennel",
                         FRAGMENTS)
        out.replication_ratio = layers.replication_ratio(part)
        refiner = layers.e2h("pr")
        part = rec.stage("base:refine", layers.refine, refiner, part, capture_seed=True)
        rec.stage("base:plan", layers.plan, part)
        last = len(inputs["batches"]) - 1
        for k, batch in enumerate(inputs["batches"]):
            dirty = rec.stage("apply_mutations", layers.apply_mutations, part, batch,
                              index=k)
            rec.stage("plan", layers.plan, part, index=k)
            part = rec.stage("refine_incremental", layers.refine_incremental, refiner,
                             part, dirty, index=k)
            out.refined(refiner)
            rec.stage("plan_patch", layers.plan, part, incremental=True, index=k)
            out.ran("pr", {}, rec.stage("run:pr", layers.run, "pr", part, index=k),
                    verify=k == last)
        out.parts = [part]
        out.maintained = True
        return out


WORKLOADS = {
    w.name: w
    for w in (
        SingleAlgorithm(
            "powerlaw-ecut-pr",
            "skewed directed graph, fennel -> E2H(pr) -> PR: refinement is ~70% of the"
            " line, the dict-based partition state ROADMAP names as the bottleneck",
            10000, True, "fennel", layers.e2h, "pr",
        ),
        SingleAlgorithm(
            "powerlaw-vcut-tc",
            "skewed undirected graph, hdrf -> V2H(tc) -> TC: kernel- and memory-bound,"
            " so a refine-only gain must show no change here",
            3000, False, "hdrf", layers.v2h, "tc",
        ),
        RoadBatch(),
        StreamMaintain(),
    )
}

"""Composite refiners walk algorithms in ``cost_models`` order.

Under a step budget the composite guards share one ``exhausted`` flag:
once it flips, the outputs stepped after it stop counting.  Which outputs
those are must not depend on how Python hashes the algorithm names, so
the same run under two ``PYTHONHASHSEED`` values reports the same guard
steps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.core import ME2H
from repro.costmodel.library import builtin_cost_model
from repro.graph.generators import chung_lu_power_law
from repro.integrity.guard import GuardConfig
from repro.partitioners.base import get_partitioner

graph = chung_lu_power_law(300, 6.0, exponent=2.1, directed=True, seed=3)
base = get_partitioner("fennel").partition(graph, 4)
models = {name: builtin_cost_model(name) for name in ("pr", "wcc", "sssp", "tc", "cn")}
refiner = ME2H(models, guard_config=GuardConfig(max_steps=1000))
refiner.refine(base)
guard = refiner.last_stats.guard
print(json.dumps({name: [s.steps, s.early_stopped] for name, s in guard.items()}))
"""


def _guard_steps(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_me2h_guard_steps_do_not_depend_on_the_hash_seed():
    first = _guard_steps("0")
    assert any(early for _steps, early in first.values())  # the budget bites
    assert _guard_steps("1") == first

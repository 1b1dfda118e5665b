"""The random generators are pinned by ``Graph.digest()``.

``golden/generator_digests.json`` holds the digest of a few seeds and sizes
of each random generator, and the SHA-256 of the bytes
``write_edge_list`` writes for some of them: a generator's edge set and
the edge-list file format must not drift when their loops change.

The fixture is a pin, not an expectation to refresh: regenerate it
(``PYTHONPATH=src python -m tests.graph.test_generator_digests`` from the
repo root) only when a generator's sampling changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.graph.generators import chung_lu_power_law, erdos_renyi, rmat
from repro.graph.io import write_edge_list

GOLDEN = Path(__file__).parent / "golden" / "generator_digests.json"

GRAPHS = {
    "chung_lu-500-d": lambda: chung_lu_power_law(500, 6.0, directed=True, seed=1),
    "chung_lu-500-u": lambda: chung_lu_power_law(500, 6.0, directed=False, seed=2),
    "chung_lu-2000-d": lambda: chung_lu_power_law(2000, 8.0, exponent=2.1, seed=3),
    "chung_lu-40-u-dense": lambda: chung_lu_power_law(40, 30.0, directed=False, seed=4),
    "erdos_renyi-300-d": lambda: erdos_renyi(300, 1500, directed=True, seed=1),
    "erdos_renyi-300-u": lambda: erdos_renyi(300, 1500, directed=False, seed=2),
    "erdos_renyi-12-u-full": lambda: erdos_renyi(12, 100, directed=False, seed=3),
    "rmat-9-d": lambda: rmat(9, 8.0, directed=True, seed=1),
    "rmat-10-u": lambda: rmat(10, 6.0, directed=False, seed=2),
    "rmat-6-d-dense": lambda: rmat(6, 40.0, directed=True, seed=3),
}
WRITTEN = ("chung_lu-500-d", "erdos_renyi-300-u", "rmat-10-u")


def _capture(tmp: Path) -> dict:
    pins = {}
    for name, make in GRAPHS.items():
        graph = make()
        pins[name] = graph.digest()
        if name in WRITTEN:
            path = tmp / f"{name}.txt"
            write_edge_list(graph, path)
            pins[f"{name}-file"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return pins


def test_generators_and_written_files_match_the_pin(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _capture(tmp_path) == golden


if __name__ == "__main__":  # pragma: no cover - regenerates the pin
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_capture(Path(tmp)), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")

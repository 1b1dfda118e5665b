"""Evaluation framework: datasets, harness and the paper's experiments.

One module per experiment of Section 7 (plus the appendix), each able to
regenerate its table/figure on the scaled-down synthetic datasets:

* ``exp1`` — effectiveness of ParE2H/ParV2H (Fig. 9(a-j), Table 3);
* ``exp2`` — effectiveness of ParME2H/ParMV2H (Table 4, Fig. 10(a));
* ``exp3`` — efficiency of the refiners (Fig. 9(k));
* ``exp4`` — efficiency of the composite refiners (Fig. 10(b), space);
* ``exp5`` — scalability in |G| (Fig. 9(l));
* ``exp6`` — cost-model learning accuracy/time (Table 5);
* ``appendix`` — per-phase speedup decomposition (Fig. 11).

``python -m repro.eval.run_all`` runs everything and regenerates
EXPERIMENTS.md's measured numbers.
"""

from repro.eval.datasets import DATASETS, load_dataset
from repro.eval.harness import (
    BASELINES,
    refine_for,
    run_algorithm,
)

__all__ = [
    "DATASETS",
    "load_dataset",
    "BASELINES",
    "refine_for",
    "run_algorithm",
]

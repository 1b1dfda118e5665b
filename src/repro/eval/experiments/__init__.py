"""Experiment modules, one per table/figure group of Section 7.

Each table or figure is written once, as a traversal ``*_cells(source,
...)`` that asks a cell source for its cells and builds the table with
pure post-steps (``source.derive``).  ``run_all`` walks it over the
:class:`~repro.eval.engine.Planner` to declare the job graph and over a
:class:`~repro.eval.harness.Reader` to print; the public entry point is
``harness.reading`` of it.
"""

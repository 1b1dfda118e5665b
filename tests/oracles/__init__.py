"""Frozen reference implementations the differential suites compare against.

Code here is a verbatim copy of a route ``src/`` no longer takes, kept only
so a test can assert that its replacement gives the same answers.  Never
import it from ``src/``.

* ``per_copy_pricing`` — per-copy role classification and pricing
* ``per_edge_builders`` — per-edge partition construction / load
* ``per_edge_moves`` — per-edge moves and the three-frame pricing funnel
* ``plan_tables`` — ``FragmentPlan``'s per-vertex table builders and
  ``compute_edge_owners``
* ``master_sync`` — ``sync_by_master_arrays``, the per-superstep array
  sync the plan's masked ``SyncRoute`` replaced
* ``tc_pump`` — the half-batched triangle-counting kernel
* ``set_graph`` — the set-of-tuples ``Graph``
* ``scalar_runs`` — the five scalar BSP loops (``run(name, partition,
  **params)``) and the per-message ``sync_by_master``
* ``scalar_failover`` — ``ScalarFailoverState``, the dict/set failover pass
* ``barrier_charges`` — ``FrozenBarrier``, the plain / straggler /
  heterogeneous / degraded barrier charges and the out-of-superstep
  ``_op_time`` / ``_byte_time`` the one barrier formula replaced
* ``direct_scorer`` — ``DirectScorer``, the uncached scorer, and
  ``use_direct_scorer(monkeypatch)``, which puts a tracker answering
  through it, over an unmemoized model, where the driver builds them
"""

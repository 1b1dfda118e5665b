"""True-parallel shared-memory execution backend for the BSP runtime.

``backend="simulated"`` (the default) calls a kernel in-process, once
over the whole copy space.  ``backend="shm"`` calls *the same function*
(:mod:`repro.runtime.kernels`) in real worker processes, each on its
fragments' row slices of the tables the kernel declares, held in
shared memory (:mod:`repro.runtime.shm`) — one dispatch per
:meth:`ShmRunner.map` with a pipe-based barrier, the outputs stitched
back into the copy space in fragment order.

Workers execute *only* a kernel's ``compute``: deterministic array work
over one fragment's rows.  Which fragments run, and everything with an
ordering contract, stays in the parent: ``Cluster`` cost accounting,
``send_batch`` charges, the master sync (``SyncRoute``), checkpoint
snapshots, rollback recovery, failover.  Parent and worker import one
kernel table and outputs come back in the order asked for, so values,
makespans, and ``RunProfile`` dicts are those of ``backend="simulated"``
(``tests/runtime/test_shm_differential.py``).  The simulated
:class:`~repro.runtime.costclock.CostClock` remains the sole metrics
source; real wall-clock time is recorded separately
(``SuperstepRecord.wall_time_s``) and excluded from canonical dicts.

Worker pools are spawned lazily, cached per worker count, and reused
across runs (arena attach/detach is per run).  A run's arena is unlinked
on every way out of it: ``Algorithm.run`` closes its ``Cluster`` (and so
its runner) in a ``with``, and a worker failure — which condemns the whole
pool, pending pipe traffic being unrecoverable — unlinks before raising
:class:`ShmWorkerError`.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime import shm as shm_mod
from repro.runtime.kernels import KERNELS, Kernel

_BACKENDS = ("simulated", "shm")

#: process-wide defaults; ``--backend`` on run_all/sweep flips them
_BACKEND_DEFAULT = "simulated"
_SHM_WORKERS_DEFAULT: Optional[int] = None

#: stats of the most recently closed runner (bench skew table hook)
_LAST_STATS: Optional[Dict[str, Any]] = None

#: test hook: kill one worker mid-dispatch on the next runner dispatch
_CRASH_NEXT = False


class ShmWorkerError(RuntimeError):
    """A shm worker died or failed; the run cannot continue."""


def shm_available() -> bool:
    """Whether the shm backend can run here (POSIX shared memory)."""
    return sys.platform.startswith("linux") and shm_mod._shared_memory is not None


def backend_default() -> str:
    """Current process-wide default execution backend."""
    return _BACKEND_DEFAULT


def shm_workers_default() -> Optional[int]:
    """Process-wide default worker count (None = auto-size)."""
    return _SHM_WORKERS_DEFAULT


def _validated(
    backend: str, shm_workers: Optional[int]
) -> Tuple[str, Optional[int]]:
    """The pair, once both values are ones the backend can honour."""
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if shm_workers is not None and (type(shm_workers) is not int or shm_workers < 1):
        raise ValueError(
            f"shm_workers must be a positive integer, got {shm_workers!r}"
        )
    if backend == "shm" and not shm_available():
        raise RuntimeError(
            "backend='shm' needs POSIX shared memory (Linux); "
            "this platform only supports backend='simulated'"
        )
    return backend, shm_workers


def set_backend_default(
    backend: str, shm_workers: Optional[int] = None
) -> Tuple[str, Optional[int]]:
    """Set the process-wide backend default; returns the previous pair.

    ``run_all --backend shm`` uses this to select the backend without
    threading a flag through every call site.
    """
    global _BACKEND_DEFAULT, _SHM_WORKERS_DEFAULT
    previous = (_BACKEND_DEFAULT, _SHM_WORKERS_DEFAULT)
    _BACKEND_DEFAULT, _SHM_WORKERS_DEFAULT = _validated(backend, shm_workers)
    return previous


def resolve_backend(
    backend: Optional[str] = None, shm_workers: Optional[int] = None
) -> Tuple[str, int]:
    """Resolve per-run overrides against the process defaults."""
    backend, workers = _validated(
        _BACKEND_DEFAULT if backend is None else backend, shm_workers
    )
    if workers is None:
        workers = _SHM_WORKERS_DEFAULT or max(1, min(4, os.cpu_count() or 1))
    return backend, workers


def crash_next_dispatch() -> None:
    """Kill one worker mid-dispatch on the next runner dispatch (tests)."""
    global _CRASH_NEXT
    _CRASH_NEXT = True


def last_shm_stats() -> Optional[Dict[str, Any]]:
    """Measured wall-time stats of the most recently closed runner."""
    return _LAST_STATS


# ----------------------------------------------------------------------
# Worker side.  Arena keys per fragment (written by ``ShmRunner._publish``):
# ``{fid}/t/{name}`` tables, ``{fid}/s{slot}/{i}`` state, ``{fid}/o/{i}``
# outputs and ``{fid}/n`` how much of each output is filled.
# ----------------------------------------------------------------------
def _run_fragment(kernel: Kernel, view, fid: int, slot: int, args) -> None:
    """Worker side: the kernel table's own ``compute``, on arena views."""
    t = SimpleNamespace(**{name: view(f"{fid}/t/{name}") for name in kernel.reads})
    state = [view(f"{fid}/s{slot}/{i}") for i in range(len(kernel.state))]
    outs = kernel.compute(t, *state, *args)
    if len(kernel.out) == 1:
        outs = (outs,)
    lens = view(f"{fid}/n")
    for i, arr in enumerate(outs):
        lens[i] = arr.size
        view(f"{fid}/o/{i}")[: arr.size] = arr


def _collect_fragment(kernel: Kernel, view, fid: int):
    """Parent side: copies of what :func:`_run_fragment` left for ``fid``."""
    lens = view(f"{fid}/n").tolist()
    outs = tuple(view(f"{fid}/o/{i}")[:n].copy() for i, n in enumerate(lens))
    return outs[0] if len(outs) == 1 else outs


def _worker_main(conn) -> None:
    """Worker loop: attach arenas, run ops over shm views, report walls."""
    arenas: Dict[str, shm_mod.SharedArena] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            tag = msg[0]
            try:
                if tag == "attach":
                    arena = shm_mod.SharedArena.attach(msg[1])
                    arenas[arena.name] = arena
                    conn.send(("ok",))
                elif tag == "detach":
                    arena = arenas.pop(msg[1], None)
                    if arena is not None:
                        arena.close()
                    conn.send(("ok",))
                elif tag == "run":
                    _tag, name, kernel_name, fids, slot, args, crash = msg
                    if crash:
                        os._exit(17)
                    view = arenas[name].view
                    kernel = KERNELS[kernel_name]
                    walls: Dict[int, float] = {}
                    t_start = time.perf_counter()
                    for fid in fids:
                        t0 = time.perf_counter()
                        _run_fragment(kernel, view, fid, slot, args)
                        walls[fid] = time.perf_counter() - t0
                    conn.send(("done", walls, time.perf_counter() - t_start))
                elif tag == "exit":
                    conn.send(("ok",))
                    break
                else:  # pragma: no cover - protocol error
                    conn.send(("error", f"unknown message {tag!r}"))
            except SystemExit:  # pragma: no cover - os._exit bypasses this
                raise
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        for arena in arenas.values():
            arena.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class _Pool:
    """A spawn-based worker pool with one pipe per worker."""

    def __init__(self, num_workers: int) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self.num_workers = num_workers
        self.procs = []
        self.conns = []
        self.alive = True
        for i in range(num_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"repro-shm-worker-{i}",
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def broadcast(self, msg) -> None:
        """Send ``msg`` to every worker and wait for all acks."""
        for conn in self.conns:
            conn.send(msg)
        for conn in self.conns:
            reply = conn.recv()
            if reply[0] != "ok":
                raise ShmWorkerError(f"worker failed: {reply[1:]}")

    def shutdown(self) -> None:
        """Best-effort orderly exit, then force-terminate stragglers."""
        if not self.alive:
            return
        self.alive = False
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


_POOLS: Dict[int, _Pool] = {}


def _get_pool(num_workers: int) -> _Pool:
    pool = _POOLS.get(num_workers)
    if pool is None or not pool.alive or any(
        not p.is_alive() for p in pool.procs
    ):
        if pool is not None:
            pool.shutdown()
        pool = _Pool(num_workers)
        _POOLS[num_workers] = pool
    return pool


def _condemn_pool(num_workers: int) -> None:
    """Drop a pool whose pipe protocol is no longer trustworthy."""
    pool = _POOLS.pop(num_workers, None)
    if pool is not None:
        pool.shutdown()


def _shutdown_pools() -> None:  # pragma: no cover - exercised at exit
    for num_workers in list(_POOLS):
        _condemn_pool(num_workers)


atexit.register(_shutdown_pools)


# ----------------------------------------------------------------------
# Per-run dispatcher
# ----------------------------------------------------------------------
class ShmRunner:
    """Dispatches one run's kernel to the shared worker pool.

    :meth:`map` is the whole interface: its first dispatch publishes one
    arena for the run (every fragment's rows of the kernel's tables,
    double-buffered state, output buffers), every dispatch spreads the
    fragments round-robin over the pool and waits for every worker (the
    superstep barrier).
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.closed = False
        self._arena: Optional[shm_mod.SharedArena] = None
        self._kernel: Optional[Kernel] = None
        self._sizes: List[int] = []  # per fragment: its buffers' length
        self._epoch = 0
        self.dispatches = 0
        self.seconds_by_fragment: Dict[int, float] = {}
        self.seconds_by_worker: Dict[int, float] = {}

    # -- arena publication ---------------------------------------------
    def _publish(self, kernel: Kernel, tables) -> None:
        builder = shm_mod.ArenaBuilder()
        for fid, size in enumerate(self._sizes):
            t = kernel.rows(tables, fid)
            for name in kernel.reads:
                builder.add(f"{fid}/t/{name}", getattr(t, name))
            for i, dtype in enumerate(kernel.state):
                builder.add_zeros(f"{fid}/s0/{i}", size, dtype)
                builder.add_zeros(f"{fid}/s1/{i}", size, dtype)
            builder.add_zeros(f"{fid}/n", len(kernel.out), np.int64)
            for i, dtype in enumerate(kernel.out):
                builder.add_zeros(f"{fid}/o/{i}", size, dtype)
        self._arena = builder.seal()
        self._kernel = kernel
        pool = _get_pool(self.num_workers)
        try:
            pool.broadcast(("attach", self._arena.payload()))
        except (ShmWorkerError, EOFError, OSError, BrokenPipeError) as exc:
            self._abort()
            raise ShmWorkerError(f"shm worker attach failed: {exc}") from exc

    # -- dispatch / barrier --------------------------------------------
    def _dispatch(self, op: str, fids: List[int], slot: int, args) -> None:
        global _CRASH_NEXT
        crash = _CRASH_NEXT
        _CRASH_NEXT = False
        pool = _get_pool(self.num_workers)
        assignment = [
            (w, fids[w :: self.num_workers]) for w in range(self.num_workers)
        ]
        assignment = [(w, fl) for w, fl in assignment if fl]
        try:
            first = assignment[0][0]
            for w, fl in assignment:
                pool.conns[w].send(
                    ("run", self._arena.name, op, fl, slot, args, crash and w == first)
                )
            for w, fl in assignment:
                reply = pool.conns[w].recv()
                if reply[0] != "done":
                    raise ShmWorkerError(f"worker {w} failed: {reply[1:]}")
                _tag, walls, total = reply
                self.seconds_by_worker[w] = (
                    self.seconds_by_worker.get(w, 0.0) + total
                )
                for fid, secs in walls.items():
                    self.seconds_by_fragment[fid] = (
                        self.seconds_by_fragment.get(fid, 0.0) + secs
                    )
            self.dispatches += 1
        except (EOFError, OSError, BrokenPipeError) as exc:
            _condemn_pool(self.num_workers)
            self._abort()
            raise ShmWorkerError(
                f"shm worker died mid-dispatch ({op}): {exc}"
            ) from exc
        except ShmWorkerError:
            _condemn_pool(self.num_workers)
            self._abort()
            raise

    def _abort(self) -> None:
        """Unlink the arena without touching the (condemned) pool."""
        self.closed = True
        self._flush_stats()
        if self._arena is not None:
            self._arena.close(unlink=True)
            self._arena = None

    # -- the one entry point ---------------------------------------------
    def map(self, kernel: Kernel, tables, state, fids: List[int], args=()):
        """``kernel`` over fragments ``fids`` in the workers: publish every
        fragment's rows of ``tables`` on first use, write the rows of the
        declared copy-space ``state`` of ``fids`` into the live slot,
        dispatch, barrier, and stitch the outputs back into the copy space
        — the other fragments' rows hold ``kernel.fill``."""
        cuts = tables.cuts["copies"]
        if not self._sizes:
            self._sizes = [
                kernel.size(kernel.rows(tables, f)) for f in range(len(cuts) - 1)
            ]
        outs = {}
        if fids:
            if self._arena is None:
                self._publish(kernel, tables)
            assert self._kernel is kernel, "a run maps one kernel"
            view = self._arena.view
            slot = self._epoch & 1
            self._epoch += 1
            for i, flat in enumerate(state[: len(kernel.state)]):
                for f in fids:
                    view(f"{f}/s{slot}/{i}")[...] = flat[cuts[f] : cuts[f + 1]]
            self._dispatch(kernel.name, fids, slot, args)
            for f in fids:
                got = _collect_fragment(kernel, view, f)
                outs[f] = (got,) if len(kernel.out) == 1 else got
        stitched = tuple(
            np.concatenate(
                [
                    outs[f][i] if f in outs else np.full(size, kernel.fill, dtype)
                    for f, size in enumerate(self._sizes)
                ]
            )
            for i, dtype in enumerate(kernel.out)
        )
        return stitched[0] if len(stitched) == 1 else stitched

    # -- lifecycle ------------------------------------------------------
    def _flush_stats(self) -> None:
        global _LAST_STATS
        _LAST_STATS = {
            "num_workers": self.num_workers,
            "dispatches": self.dispatches,
            "seconds_by_worker": dict(self.seconds_by_worker),
            "seconds_by_fragment": dict(self.seconds_by_fragment),
        }

    def close(self) -> None:
        """Detach workers and unlink the arena (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._flush_stats()
        if self._arena is None:
            return
        pool = _POOLS.get(self.num_workers)
        if pool is not None and pool.alive:
            try:
                pool.broadcast(("detach", self._arena.name))
            except (ShmWorkerError, EOFError, OSError, BrokenPipeError):
                _condemn_pool(self.num_workers)
        self._arena.close(unlink=True)
        self._arena = None

"""True-parallel shared-memory execution backend for the BSP runtime.

``backend="simulated"`` (the default) runs every fragment's kernel
compute in-process, one after another — the historical path, kept as the
differential oracle.  ``backend="shm"`` runs the same compute in real
worker processes over zero-copy shared-memory views of the compiled
:class:`~repro.runtime.plan.FragmentPlan` tables
(:mod:`repro.runtime.shm`), one dispatch per superstep phase with a
pipe-based barrier.

Division of labor — and why results stay bit-identical
------------------------------------------------------
Workers execute *only* the deterministic per-fragment array compute (the
PageRank scatter, the WCC/SSSP relaxations, TC wedge membership, the CN
eligibility mask).  Everything with ordering or randomness contracts
stays in the parent: ``Cluster`` cost accounting, ``send_batch`` fate
draws from the seeded fault stream, ``sync_by_master_arrays``,
checkpoint snapshots, rollback recovery, and failover.  Each worker op
is a bit-exact twin of the in-process kernel statement it replaces
(same ``np.add.at``/``np.minimum.at`` sequential-update semantics over
identical arrays), and the parent folds outputs back in ascending
fragment order — so values, makespans, and ``RunProfile`` dicts are
bit-identical to ``backend="simulated"`` by construction.  The simulated
:class:`~repro.runtime.costclock.CostClock` remains the sole metrics
source; real wall-clock time is recorded separately
(``SuperstepRecord.wall_time_s``) and excluded from canonical dicts.

Worker pools are spawned lazily, cached per worker count, and reused
across runs (arena attach/detach is per run).  Any worker failure
condemns the whole pool — pending pipe traffic is unrecoverable — and
the runner unlinks its arena before raising :class:`ShmWorkerError`, so
crashes never leak ``/dev/shm`` segments.
"""

from __future__ import annotations

import atexit
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime import shm as shm_mod
from repro.runtime.plan import DUMMY, FragmentPlan, gather_segments

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


def set_backend_default(
    backend: str, shm_workers: Optional[int] = None
) -> Tuple[str, Optional[int]]:
    """Set the process-wide backend default; returns the previous pair.

    ``run_all --backend shm`` uses this to select the backend without
    threading a flag through every call site.
    """
    global _BACKEND_DEFAULT, _SHM_WORKERS_DEFAULT
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if backend == "shm" and not shm_available():
        raise RuntimeError(
            "backend='shm' needs POSIX shared memory (Linux); "
            "this platform only supports backend='simulated'"
        )
    previous = (_BACKEND_DEFAULT, _SHM_WORKERS_DEFAULT)
    _BACKEND_DEFAULT = backend
    _SHM_WORKERS_DEFAULT = int(shm_workers) if shm_workers else None
    return previous


def resolve_backend(
    backend: Optional[str] = None, shm_workers: Optional[int] = None
) -> Tuple[str, int]:
    """Resolve per-run overrides against the process defaults."""
    if backend is None:
        backend = _BACKEND_DEFAULT
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    workers = shm_workers if shm_workers else _SHM_WORKERS_DEFAULT
    if not workers:
        workers = max(1, min(4, os.cpu_count() or 1))
    if backend == "shm" and not shm_available():
        raise RuntimeError(
            "backend='shm' needs POSIX shared memory (Linux); "
            "use backend='simulated' on this platform"
        )
    return backend, max(1, int(workers))


def crash_next_dispatch() -> None:
    """Kill one worker mid-dispatch on the next runner dispatch (tests)."""
    global _CRASH_NEXT
    _CRASH_NEXT = True


def last_shm_stats() -> Optional[Dict[str, Any]]:
    """Measured wall-time stats of the most recently closed runner."""
    return _LAST_STATS


# ----------------------------------------------------------------------
# Worker-side ops: bit-exact twins of the in-process kernel statements
# ----------------------------------------------------------------------
_INF = float("inf")
_TRIU: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _triu_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    pair = _TRIU.get(k)
    if pair is None:
        pair = np.triu_indices(k, 1)
        _TRIU[k] = pair
    return pair


def _has_keys(stored: np.ndarray, a: np.ndarray, b: np.ndarray, kb: int) -> np.ndarray:
    """Worker twin of ``FragmentPlan.has_edges`` on published key arrays."""
    keys = a * kb + b
    if stored.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(stored, keys)
    pos = np.minimum(pos, stored.size - 1)
    return stored[pos] == keys


def _op_pr(view, fid: int, slot: int, args) -> None:
    local = view(f"st{slot}/{fid}")
    out = view(f"out/{fid}")
    out[:] = 0.0
    np.add.at(
        out,
        view(f"pr/{fid}/dst"),
        local[view(f"pr/{fid}/src")] / view(f"pr/{fid}/deg"),
    )


def _op_wcc(view, fid: int, slot: int, args) -> None:
    lab = view(f"st{slot}/{fid}")
    out = view(f"out/{fid}")
    out[:] = lab
    rel_v = view(f"wcc/{fid}/rel_v")
    if rel_v.size:
        np.minimum.at(out, rel_v, lab[view(f"wcc/{fid}/rel_u")])


def _op_sssp(view, fid: int, slot: int, args) -> None:
    local = view(f"st{slot}/{fid}")
    active = view(f"ac{slot}/{fid}")
    out = view(f"out/{fid}")
    out[:] = _INF
    sel = np.nonzero(active & view(f"sssp/{fid}/bearing"))[0]
    idx, lens = gather_segments(view(f"sssp/{fid}/indptr"), sel)
    np.minimum.at(
        out, view(f"sssp/{fid}/targets")[idx], np.repeat(local[sel], lens) + 1.0
    )


def _op_tc(view, fid: int, slot: int, args) -> None:
    kb, directed = args
    eslots = view(f"tc/{fid}/eslots")
    oindptr = view(f"tc/{fid}/oindptr")
    onbrs = view(f"tc/{fid}/onbrs")
    meta = view(f"out/{fid}/meta")
    meta[:] = 0
    wa_parts, wb_parts, wp_parts = [], [], []
    for s in eslots.tolist():
        start = int(oindptr[s])
        k = int(oindptr[s + 1]) - start
        if k < 2:
            continue
        seg = onbrs[start : start + k]
        ii, jj = _triu_pairs(k)
        wa_parts.append(seg[ii])
        wb_parts.append(seg[jj])
        wp_parts.append(np.full(ii.size, s, dtype=np.int64))
    if not wa_parts:
        return
    wa = np.concatenate(wa_parts)
    wb = np.concatenate(wb_parts)
    wp = np.concatenate(wp_parts)
    stored = view(f"tc/{fid}/ekeys")
    if directed:
        found = _has_keys(stored, wa, wb, kb) | _has_keys(stored, wb, wa, kb)
    else:
        found = _has_keys(stored, np.minimum(wa, wb), np.maximum(wa, wb), kb)
    miss = np.nonzero(~found)[0]
    meta[0] = int(found.sum())
    meta[1] = miss.size
    if miss.size:
        view(f"out/{fid}/wa")[: miss.size] = wa[miss]
        view(f"out/{fid}/wb")[: miss.size] = wb[miss]
        view(f"out/{fid}/wp")[: miss.size] = wp[miss]


def _op_cn(view, fid: int, slot: int, args) -> None:
    (theta,) = args
    out = view(f"out/{fid}")
    out[:] = (view(f"cn/{fid}/indeg") <= theta) & (
        view(f"cn/{fid}/roles") != DUMMY
    )


_OPS = {"pr": _op_pr, "wcc": _op_wcc, "sssp": _op_sssp, "tc": _op_tc, "cn": _op_cn}


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
                    _tag, name, op, fids, slot, args, crash = msg
                    if crash:
                        os._exit(17)
                    view = arenas[name].view
                    fn = _OPS[op]
                    walls: Dict[int, float] = {}
                    t_start = time.perf_counter()
                    for fid in fids:
                        t0 = time.perf_counter()
                        fn(view, fid, slot, args)
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
    """Dispatches one run's fragment compute to the shared worker pool.

    Lazily publishes one arena per run on the first per-algorithm call
    (plan tables + double-buffered state + output buffers), then each
    call writes the current state into the live buffer slot, dispatches
    the fragments round-robin over the pool, waits for every worker
    (the superstep barrier), and returns per-fragment output copies for
    the parent to fold in canonical ascending-fid order.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = max(1, int(num_workers))
        self.closed = False
        self._arena: Optional[shm_mod.SharedArena] = None
        self._algorithm: Optional[str] = None
        self._epoch = 0
        self._fids: List[int] = []
        self.dispatches = 0
        self.seconds_by_fragment: Dict[int, float] = {}
        self.seconds_by_worker: Dict[int, float] = {}

    # -- arena publication ---------------------------------------------
    def _publish(self, builder: shm_mod.ArenaBuilder, algorithm: str) -> None:
        self._arena = builder.seal()
        self._algorithm = algorithm
        pool = _get_pool(self.num_workers)
        try:
            pool.broadcast(("attach", self._arena.payload()))
        except (ShmWorkerError, EOFError, OSError, BrokenPipeError) as exc:
            self._abort()
            raise ShmWorkerError(f"shm worker attach failed: {exc}") from exc

    def _require(self, algorithm: str) -> bool:
        """True when the arena for ``algorithm`` is already published."""
        if self._algorithm is None:
            return False
        if self._algorithm != algorithm:
            raise ShmWorkerError(
                f"runner already bound to {self._algorithm!r}, "
                f"cannot serve {algorithm!r}"
            )
        return True

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
            first = assignment[0][0] if assignment else 0
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

    def _collect(self, fids: List[int]) -> Dict[int, np.ndarray]:
        return {f: self._arena.view(f"out/{f}").copy() for f in fids}

    # -- PageRank -------------------------------------------------------
    def pr_scatter(
        self, plan: FragmentPlan, ranks: Dict[int, np.ndarray], target_aware: bool
    ) -> Dict[int, np.ndarray]:
        """Per-fragment scatter sums, the twin of the in-process add.at."""
        if not self._require("pr"):
            builder = shm_mod.ArenaBuilder()
            fids = []
            for f in range(plan.num_fragments):
                sc = plan.pr_scatter(f, target_aware)
                size = plan.verts(f).size
                builder.add(f"pr/{f}/src", sc.src_slots)
                builder.add(f"pr/{f}/dst", sc.dst_slots)
                builder.add(f"pr/{f}/deg", sc.deg)
                builder.add_zeros(f"st0/{f}", size, np.float64)
                builder.add_zeros(f"st1/{f}", size, np.float64)
                builder.add_zeros(f"out/{f}", size, np.float64)
                if sc.src_slots.size:
                    fids.append(f)
            self._fids = fids
            self._publish(builder, "pr")
        slot = self._epoch & 1
        self._epoch += 1
        for f in self._fids:
            self._arena.view(f"st{slot}/{f}")[...] = ranks[f]
        self._dispatch("pr", self._fids, slot, ())
        return self._collect(self._fids)

    # -- WCC ------------------------------------------------------------
    def wcc_relax(
        self, plan: FragmentPlan, labels: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Per-fragment min-label relaxation (twin of minimum.at)."""
        if not self._require("wcc"):
            builder = shm_mod.ArenaBuilder()
            fids = []
            for f in range(plan.num_fragments):
                ent = plan.wcc_entries(f)
                size = plan.verts(f).size
                builder.add(f"wcc/{f}/rel_v", ent.rel_v)
                builder.add(f"wcc/{f}/rel_u", ent.rel_u)
                builder.add_zeros(f"st0/{f}", size, np.int64)
                builder.add_zeros(f"st1/{f}", size, np.int64)
                builder.add_zeros(f"out/{f}", size, np.int64)
                if size:
                    fids.append(f)
            self._fids = fids
            self._publish(builder, "wcc")
        slot = self._epoch & 1
        self._epoch += 1
        for f in self._fids:
            self._arena.view(f"st{slot}/{f}")[...] = labels[f]
        self._dispatch("wcc", self._fids, slot, ())
        return self._collect(self._fids)

    # -- SSSP -----------------------------------------------------------
    def sssp_relax(
        self,
        plan: FragmentPlan,
        dist: Dict[int, np.ndarray],
        active: Dict[int, np.ndarray],
    ) -> Dict[int, np.ndarray]:
        """Per-fragment relaxation for fragments with active frontier."""
        if not self._require("sssp"):
            builder = shm_mod.ArenaBuilder()
            for f in range(plan.num_fragments):
                t = plan.sssp_out(f)
                size = plan.verts(f).size
                builder.add(f"sssp/{f}/indptr", t.indptr)
                builder.add(f"sssp/{f}/targets", t.targets)
                builder.add(f"sssp/{f}/bearing", t.bearing)
                builder.add_zeros(f"st0/{f}", size, np.float64)
                builder.add_zeros(f"st1/{f}", size, np.float64)
                builder.add_zeros(f"ac0/{f}", size, bool)
                builder.add_zeros(f"ac1/{f}", size, bool)
                builder.add_zeros(f"out/{f}", size, np.float64)
            self._publish(builder, "sssp")
        # The frontier changes every superstep, so the dispatched set is
        # recomputed to mirror the in-process skip conditions exactly.
        fids = []
        for f in range(plan.num_fragments):
            if not active[f].any():
                continue
            t = plan.sssp_out(f)
            sel = active[f] & t.bearing
            if not sel.any():
                continue
            if int((t.indptr[1:] - t.indptr[:-1])[sel].sum()) == 0:
                continue
            fids.append(f)
        slot = self._epoch & 1
        self._epoch += 1
        for f in fids:
            self._arena.view(f"st{slot}/{f}")[...] = dist[f]
            self._arena.view(f"ac{slot}/{f}")[...] = active[f]
        if fids:
            self._dispatch("sssp", fids, slot, ())
        return self._collect(fids)

    # -- Triangle counting ---------------------------------------------
    def tc_wedges(
        self, plan: FragmentPlan, directed: bool
    ) -> Dict[int, Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Wedge enumeration + closing-edge membership per fragment.

        Returns ``{fid: (found_count, wa_miss, wb_miss, wp_miss)}`` for
        fragments with any e-cut wedge work; the parent counts the
        found triangles and regroups the misses per pivot slot.
        """
        if not self._require("tc"):
            from repro.runtime.plan import ECUT

            builder = shm_mod.ArenaBuilder()
            fids = []
            for f in range(plan.num_fragments):
                roles = plan.roles(f)
                t = plan.tc_tables(f)
                nondummy = np.nonzero(roles != DUMMY)[0]
                eslots = nondummy[roles[nondummy] == ECUT]
                ks = t.ocounts[eslots]
                bound = int((ks * (ks - 1) // 2).sum())
                builder.add(f"tc/{f}/eslots", eslots)
                builder.add(f"tc/{f}/oindptr", t.oindptr)
                builder.add(f"tc/{f}/onbrs", t.onbrs)
                builder.add(f"tc/{f}/ekeys", plan.edge_keys(f))
                builder.add_zeros(f"out/{f}/meta", 2, np.int64)
                builder.add_zeros(f"out/{f}/wa", bound, np.int64)
                builder.add_zeros(f"out/{f}/wb", bound, np.int64)
                builder.add_zeros(f"out/{f}/wp", bound, np.int64)
                if bound:
                    fids.append(f)
            self._fids = fids
            self._publish(builder, "tc")
        if self._fids:
            self._dispatch(
                "tc", self._fids, 0, (int(plan.key_base), bool(directed))
            )
        out = {}
        for f in self._fids:
            meta = self._arena.view(f"out/{f}/meta")
            found = int(meta[0])
            m = int(meta[1])
            out[f] = (
                found,
                self._arena.view(f"out/{f}/wa")[:m].copy(),
                self._arena.view(f"out/{f}/wb")[:m].copy(),
                self._arena.view(f"out/{f}/wp")[:m].copy(),
            )
        return out

    # -- Common neighbors ----------------------------------------------
    def cn_eligible(
        self, plan: FragmentPlan, theta: float
    ) -> Dict[int, np.ndarray]:
        """Per-fragment eligibility mask (twin of the in-process mask)."""
        if not self._require("cn"):
            builder = shm_mod.ArenaBuilder()
            fids = []
            in_degs = plan.in_degrees()
            for f in range(plan.num_fragments):
                verts = plan.verts(f)
                builder.add(f"cn/{f}/indeg", in_degs[verts])
                builder.add(f"cn/{f}/roles", plan.roles(f))
                builder.add_zeros(f"out/{f}", verts.size, bool)
                if verts.size:
                    fids.append(f)
            self._fids = fids
            self._publish(builder, "cn")
        if self._fids:
            self._dispatch("cn", self._fids, 0, (float(theta),))
        return self._collect(self._fids)

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

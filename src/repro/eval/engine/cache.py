"""Content-addressed on-disk artifact cache with self-healing reads.

Artifacts are JSON files stored under ``<root>/<key[:2]>/<key>.json``
where ``key`` is the cell's config digest (:mod:`repro.eval.engine.
keys`).  Writes are atomic (temp file + ``os.replace``), so concurrent
worker processes racing to store the same content-addressed artifact are
benign: last writer wins with identical bytes.

Every file is an *envelope* ``{"checksum": sha256(payload), "payload":
...}``.  Reads validate the checksum: truncated, unparseable, or
mismatching entries are **quarantined** — moved to
``<root>/quarantine/``, never over an earlier damaged copy — and
reported as a miss, so the cell is transparently recomputed instead of
poisoning the sweep.  ``verify``
audits a whole cache root (and, with ``repair``, quarantines bad
entries and removes orphaned temp files left by interrupted writes);
the ``repro cache verify --repair`` CLI wraps it.

The cache keeps hit / miss / byte / quarantine counters; the engine
snapshots them per experiment so ``run_all`` can report what the cache
saved (and healed).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.eval.engine.keys import canonical_json, payload_digest

PathLike = Union[str, "os.PathLike[str]"]

#: sidecar directory for damaged artifacts (never a shard: shards are
#: two hex characters)
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheStats:
    """Hit / miss / byte / quarantine counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    quarantined: int = 0

    def snapshot(self) -> "CacheStats":
        """A copy of the current counters (for per-experiment deltas)."""
        return CacheStats(
            self.hits,
            self.misses,
            self.bytes_read,
            self.bytes_written,
            self.quarantined,
        )

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter increments since ``since`` was snapshotted."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            bytes_read=self.bytes_read - since.bytes_read,
            bytes_written=self.bytes_written - since.bytes_written,
            quarantined=self.quarantined - since.quarantined,
        )

    def as_dict(self) -> Dict[str, int]:
        """JSON-serializable counter dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "quarantined": self.quarantined,
        }

    def describe(self) -> str:
        """One-line human-readable rendering."""
        text = (
            f"{self.hits} hits / {self.misses} misses, "
            f"{self.bytes_read / 1e6:.2f} MB read, "
            f"{self.bytes_written / 1e6:.2f} MB written"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


@dataclass
class CacheAudit:
    """Result of :meth:`ArtifactCache.verify` over a cache root."""

    scanned: int = 0
    ok: int = 0
    corrupt: List[str] = field(default_factory=list)
    quarantined: int = 0
    orphan_tmp: List[str] = field(default_factory=list)
    removed_tmp: int = 0

    @property
    def healthy(self) -> bool:
        """Whether the root held no damaged entries and no orphans."""
        return not self.corrupt and not self.orphan_tmp

    def as_dict(self) -> Dict:
        """JSON-serializable audit report."""
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "quarantined": self.quarantined,
            "orphan_tmp": list(self.orphan_tmp),
            "removed_tmp": self.removed_tmp,
        }


class ArtifactCache:
    """JSON artifact store addressed by config digest.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.
    memory_entries:
        Size of the in-process parsed-payload LRU sitting above the disk
        store (an artifact read five times in one sweep is parsed once).
        Memory hits and disk hits both count as cache hits — either way
        the cell was not recomputed.
    """

    def __init__(self, root: PathLike, memory_entries: int = 128) -> None:
        self.root = os.fspath(root)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        self._memory_entries = memory_entries

    def path_for(self, key: str) -> str:
        """On-disk location of the artifact stored under ``key``."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return key in self._memory or os.path.exists(self.path_for(key))

    def _remember(self, key: str, payload: Dict) -> None:
        if self._memory_entries <= 0:
            return
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    def forget(self, key: str) -> None:
        """Drop the in-memory copy of ``key`` (force the next read to disk)."""
        self._memory.pop(key, None)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """Return the payload stored under ``key``, or ``None`` on a miss.

        A miss is *not* counted here — the caller may still find the
        value elsewhere; :meth:`count_miss` charges the recomputation.
        A damaged entry (truncated, unparseable, checksum mismatch) is
        quarantined and reported as a miss.
        """
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return cached
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="ascii") as handle:
                text = handle.read()
        except OSError:
            return None
        payload = self._decode(key, text)
        if payload is None:
            self.quarantine(key)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(text)
        self._remember(key, payload)
        return payload

    def _decode(self, key: str, text: str) -> Optional[Dict]:
        """Unwrap and validate one artifact envelope; ``None`` if damaged."""
        try:
            envelope = json.loads(text)
            payload = envelope["payload"]
            checksum = envelope["checksum"]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None
        if payload_digest(payload) != checksum:
            return None
        return payload

    def count_miss(self) -> None:
        """Record that a cell had to be recomputed."""
        self.stats.misses += 1

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Dict) -> None:
        """Atomically store ``payload`` (wrapped in its envelope) under ``key``."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = canonical_json(
            {"checksum": payload_digest(payload), "payload": payload}
        )
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.bytes_written += len(text)
        self._remember(key, payload)

    # ------------------------------------------------------------------
    # Quarantine and audit
    # ------------------------------------------------------------------
    def quarantine(self, key: str) -> bool:
        """Move ``key``'s damaged file to the quarantine sidecar directory.

        Every damaged copy is kept: the first lands at ``<key>.json``,
        later ones at the first free ``<key>.N.json``.
        """
        path = self.path_for(key)
        slot = None
        try:
            slot = self._claim_quarantine_slot(key)
            os.replace(path, slot)
        except OSError:
            if slot is not None:
                os.unlink(slot)
            # Lost a race with another healer (or the file vanished):
            # either way it is no longer readable at its shard path.
            if os.path.exists(path):
                return False
        self.forget(key)
        self.stats.quarantined += 1
        return True

    def _claim_quarantine_slot(self, key: str) -> str:
        """Create (exclusively) and return the first free quarantine path."""
        directory = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(directory, exist_ok=True)
        n = 0
        while True:
            name = f"{key}.json" if n == 0 else f"{key}.{n}.json"
            slot = os.path.join(directory, name)
            try:
                os.close(os.open(slot, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return slot
            except FileExistsError:
                n += 1

    def _shard_dirs(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if len(name) == 2 and os.path.isdir(os.path.join(self.root, name))
        ]

    def verify(self, repair: bool = False) -> CacheAudit:
        """Audit every artifact under the root; optionally heal the store.

        Validates each entry's envelope and checksum.  With ``repair``,
        damaged entries are quarantined (so future reads recompute
        instead of failing) and orphaned ``.tmp-*`` files left by
        interrupted atomic writes are deleted.  Without ``repair`` the
        audit is read-only.
        """
        audit = CacheAudit()
        for shard in self._shard_dirs():
            for name in sorted(os.listdir(shard)):
                path = os.path.join(shard, name)
                if name.startswith(".tmp-"):
                    audit.orphan_tmp.append(path)
                    if repair:
                        try:
                            os.unlink(path)
                            audit.removed_tmp += 1
                        except OSError:
                            pass
                    continue
                if not name.endswith(".json"):
                    continue
                key = name[: -len(".json")]
                audit.scanned += 1
                try:
                    with open(path, "r", encoding="ascii") as handle:
                        text = handle.read()
                except OSError:
                    continue
                if self._decode(key, text) is None:
                    audit.corrupt.append(key)
                    if repair and self.quarantine(key):
                        audit.quarantined += 1
                else:
                    audit.ok += 1
        return audit

"""Failure traces: record/replay for the fault injector.

The repository injects failures into the BSP substrate
(:mod:`repro.runtime.faults`), drawing fates from seeded counter-keyed
hashes, which makes any faulty run reproducible *given the same
configuration*.  A :class:`FailureTrace` removes even that caveat:
while a run executes, every drawn fate that actually fires is appended
as a :class:`TraceEvent`; replaying the trace feeds those exact events
back to the injector, bypassing the seeded hash entirely.
A CI flake, a fuzzing hit, or a production incident thereby becomes a
small JSONL file that reproduces forever — and can be *minimized* by
greedily dropping events while the failure keeps reproducing
(:func:`minimize`).

Trace file format (JSONL, one object per line):

* line 1 — header: ``{"trace_format": 1, "meta": {...}}``.  ``meta``
  carries the recording command's argv (so ``repro trace replay`` can
  re-run it) and the serialized :class:`~repro.runtime.faults.FaultPlan`
  (stragglers are declarative, not drawn, so replay reconstructs them
  from the plan).  No timestamps: a recorded file is byte-stable.
* following lines — events: ``{"stream", "scope", "kind", "index",
  "payload"}``:

  ========== ========================= ======================== =======
  stream     scope                     kind / index             payload
  ========== ========================= ======================== =======
  runtime    algorithm name            ``message`` / msg counter ``{"fate": "drop"|"duplicate"}``
  runtime    algorithm name            ``crash`` / superstep     ``{"worker": w}``
  runtime    algorithm name            ``loss`` / superstep      ``{"worker": w}``
  ========== ========================= ======================== =======

Only non-benign fates are recorded (a delivered message produces no
event), so removing an event from a trace makes exactly that one
injection benign — which is what makes greedy minimization well-defined.

This module is dependency-free on purpose: the injector module imports
it, never the other way around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: current trace file format version
TRACE_FORMAT = 1


@dataclass(frozen=True)
class TraceEvent:
    """One recorded injection (a fate that actually fired)."""

    stream: str  # "runtime"
    scope: str  # algorithm name
    kind: str  # "message" | "crash" | "loss"
    index: int  # message counter / superstep
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (one trace file line)."""
        return {
            "stream": self.stream,
            "scope": self.scope,
            "kind": self.kind,
            "index": self.index,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            stream=str(data["stream"]),
            scope=str(data["scope"]),
            kind=str(data["kind"]),
            index=int(data["index"]),
            payload=dict(data.get("payload", {})),
        )


class FailureTrace:
    """An append-only event log with JSONL persistence and replay views."""

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        events: Optional[List[TraceEvent]] = None,
    ) -> None:
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.events: List[TraceEvent] = list(events) if events else []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event: TraceEvent) -> None:
        """Append one fired fate."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTrace):
            return NotImplemented
        return self.meta == other.meta and self.events == other.events

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the trace as JSONL (header line + one line per event)."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"trace_format": TRACE_FORMAT, "meta": self.meta}
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "FailureTrace":
        """Read a trace written by :meth:`save` (strict: bad lines raise)."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"trace file {path!r} is empty")
        header = json.loads(lines[0])
        if not isinstance(header, dict) or "trace_format" not in header:
            raise ValueError(f"trace file {path!r} has no trace_format header")
        version = header["trace_format"]
        if version != TRACE_FORMAT:
            raise ValueError(
                f"trace file {path!r} has format {version}, "
                f"this build reads format {TRACE_FORMAT}"
            )
        events = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"trace file {path!r} line {lineno}: malformed event ({exc})"
                ) from exc
        return cls(meta=header.get("meta", {}), events=events)

    # ------------------------------------------------------------------
    # Minimization support
    # ------------------------------------------------------------------
    def without(self, index: int) -> "FailureTrace":
        """A copy of this trace with event ``index`` dropped."""
        events = self.events[:index] + self.events[index + 1 :]
        return FailureTrace(meta=self.meta, events=events)

    # ------------------------------------------------------------------
    # Replay views
    # ------------------------------------------------------------------
    def runtime_replay(self, scope: str) -> "RuntimeReplay":
        """Replay cursor over this trace's runtime events for ``scope``."""
        return RuntimeReplay(
            [e for e in self.events if e.stream == "runtime" and e.scope == scope]
        )


class RuntimeReplay:
    """Per-run lookup of recorded BSP substrate fates."""

    def __init__(self, events: List[TraceEvent]) -> None:
        self.message_fates: Dict[int, str] = {}
        self._crashes: Dict[int, List[int]] = {}
        self._losses: Dict[int, List[int]] = {}
        for event in events:
            if event.kind == "message":
                self.message_fates[event.index] = str(event.payload["fate"])
            elif event.kind == "crash":
                self._crashes.setdefault(event.index, []).append(
                    int(event.payload["worker"])
                )
            elif event.kind == "loss":
                self._losses.setdefault(event.index, []).append(
                    int(event.payload["worker"])
                )

    def message_fate(self, index: int) -> Optional[str]:
        """Recorded fate name of message ``index`` (None = delivered)."""
        return self.message_fates.get(index)

    def crashed_workers(self, superstep: int) -> List[int]:
        """Workers recorded as crashing at the end of ``superstep``."""
        return list(self._crashes.get(superstep, ()))

    def lost_workers(self, superstep: int) -> List[int]:
        """Workers recorded as permanently lost at ``superstep``."""
        return list(self._losses.get(superstep, ()))


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def minimize(
    trace: FailureTrace, reproduces: Callable[[FailureTrace], bool]
) -> FailureTrace:
    """Greedy event-dropping: a sub-trace that still reproduces.

    ``reproduces(candidate)`` must return True when the candidate trace
    still triggers the failure of interest.  Events are tried for
    removal one at a time, last to first (later events usually depend on
    the state earlier ones created, so dropping from the tail first
    converges faster); every successful drop is kept.  The result is
    1-minimal: removing any single remaining event stops the failure
    from reproducing.

    Raises ``ValueError`` if the input trace does not reproduce at all —
    minimizing it would silently return garbage.
    """
    if not reproduces(trace):
        raise ValueError(
            "trace does not reproduce the failure; nothing to minimize"
        )
    current = trace
    index = len(current.events) - 1
    while index >= 0:
        candidate = current.without(index)
        if reproduces(candidate):
            current = candidate
        index -= 1
    return current


def replay_argv(meta: Dict[str, Any], trace_path: str) -> List[str]:
    """The recording command's argv rewritten to replay ``trace_path``.

    Strips any ``--trace-out``/``--trace-in`` pair from the recorded
    argv and appends ``--trace-in trace_path``.
    """
    recorded = [str(token) for token in meta.get("argv", [])]
    argv: List[str] = []
    skip_next = False
    for token in recorded:
        if skip_next:
            skip_next = False
            continue
        if token in ("--trace-out", "--trace-in"):
            skip_next = True
            continue
        if token.startswith("--trace-out=") or token.startswith("--trace-in="):
            continue
        argv.append(token)
    return argv + ["--trace-in", trace_path]

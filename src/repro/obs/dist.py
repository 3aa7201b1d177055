"""Cross-process observability for the parallel engine.

The ``engine="parallel"`` pool (:mod:`repro.par`) executes its real work
in worker processes, which a single-process :class:`~repro.obs.session.ObsSession`
cannot see. This module closes that gap with three pieces:

* **Trace-context propagation** — when a session is active, the executor
  stamps every task spec with a tiny picklable header
  (:func:`make_context`: batch correlation id, shard index, attempt)
  under :data:`CTX_KEY`. When no session is active the
  header is omitted entirely, so telemetry stays strictly zero-cost on
  the pickling path — the obs layer's no-op-when-disabled invariant,
  extended across process boundaries.
* **Worker-side capture** — a worker that receives a spec with a header
  runs it inside :class:`ShardObservation`: a lightweight worker-local
  :class:`~repro.obs.session.ObsSession` scoped to the one shard, so the
  permanent ``par.worker.*`` span points inside
  :func:`repro.par.worker.execute_spec` (``map_shm`` / ``plan`` /
  ``compute`` / ``checksum``) record locally. The result is a compact
  telemetry *blob* shipped back on the worker's pipe next to the
  completion message.
* **Parent-side merge** — :func:`merge_blob` folds a blob into the
  coordinator's session: spans are re-anchored onto the parent timeline
  (workers stamp :func:`time.monotonic`, the same timebase across
  processes on the platforms we target) and tagged with the worker's
  slot/pid so :func:`repro.obs.export.to_chrome_trace` renders one
  Perfetto timeline with a lane per worker; metrics roll up under
  ``par.worker.*`` with per-slot gauges/counters (shards served, busy
  seconds, plan-cache warmth) under ``par.slot.<k>.*``. The executor
  discards a stale shard's blob exactly as it discards its result
  (metered as ``par.telemetry.stale``).

See docs/OBSERVABILITY.md ("Cross-process tracing") and
:mod:`repro.obs.timeline` for the ``python -m repro timeline`` harness
built on top.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Iterable, List, Optional, Set

from repro.obs import session as session_mod
from repro.obs.export import LANE_NAME_KEY, LANE_PID_KEY
from repro.obs.session import ObsSession
from repro.obs.spans import SpanRecord

#: Task-spec key carrying the trace-context header. Present if and only
#: if an observability session was active when the batch was dispatched.
CTX_KEY = "ctx"

#: Telemetry blob schema version (bumped on incompatible layout change).
BLOB_VERSION = 1

_BATCH_IDS = itertools.count()


def next_batch_id() -> str:
    """A process-unique correlation id for one executor batch."""
    return f"batch-{os.getpid()}-{next(_BATCH_IDS)}"


def make_context(batch: str, shard: int, attempt: int = 1) -> Dict[str, object]:
    """The context header embedded in a task spec (tiny, picklable)."""
    return {"batch": batch, "shard": int(shard), "attempt": int(attempt)}


def refresh_context(spec: dict, attempt: int) -> None:
    """Re-stamp a spec's header before a re-dispatch (no-op without one).

    A fresh dict is installed rather than mutating in place, so other
    holders of the earlier attempt's spec keep its attempt number.
    """
    ctx = spec.get(CTX_KEY)
    if ctx is not None:
        spec[CTX_KEY] = dict(ctx, attempt=int(attempt))


class ShardObservation:
    """Worker-local telemetry capture scoped to one shard execution.

    Entering installs a fresh :class:`ObsSession` (restoring whatever
    was active on exit — normally nothing inside a worker), opens a
    ``par.worker.shard`` envelope span, and notes a monotonic anchor.
    Exiting — **also on exception**, so a shard that raises still ships
    the phases it completed — freezes everything into :attr:`blob`, the
    compact picklable dict the worker appends to its result message.
    """

    def __init__(self, ctx: Dict[str, object]) -> None:
        self.ctx = dict(ctx)
        self.blob: Optional[Dict[str, object]] = None
        self._previous: Optional[ObsSession] = None
        self._session: Optional[ObsSession] = None

    def __enter__(self) -> "ShardObservation":
        self._session = ObsSession()
        self._previous = session_mod._swap(self._session)
        self._mono0 = time.monotonic()
        self._started = time.perf_counter()
        self._root = self._session.spans.open("par.worker.shard", {})
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        local = self._session
        local.spans.close(self._root)
        wall_s = time.perf_counter() - self._started
        session_mod._swap(self._previous)
        counters: Dict[str, float] = {}
        for name in local.metrics.names():
            metric = local.metrics.get(name)
            if getattr(metric, "kind", None) == "counter":
                counters[name] = metric.value
        self.blob = {
            "v": BLOB_VERSION,
            "ctx": self.ctx,
            "pid": os.getpid(),
            "mono0": self._mono0,
            "wall_s": wall_s,
            "ok": exc_type is None,
            "spans": [
                (r.name, r.start_s, r.duration_s, dict(r.attrs))
                for r in local.spans.records
            ],
            "counters": counters,
        }
        return False  # never suppress the shard's exception


def merge_blob(session: ObsSession, blob: Dict[str, object], slot: int) -> None:
    """Fold one worker telemetry blob into the parent session.

    Spans are re-anchored from the worker's monotonic clock onto the
    parent sink's epoch (clamped at zero against cross-clock skew) and
    tagged with the shard's correlation ids plus the worker's slot/pid
    lane attributes; the ``par.worker.<phase>`` span durations (the
    ones :mod:`repro.obs.attrib` reads) additionally feed
    ``par.worker.<phase>_s`` histograms, and per-slot rollups (``par.slot.<k>.shards`` /
    ``.busy_s`` / ``.shard_wall_s`` / ``.cache.plans`` / ``.pid``) keep
    the straggler/imbalance summary cheap to derive.
    """
    ctx = dict(blob.get("ctx") or {})
    pid = blob.get("pid")
    sink = session.spans
    # perf_counter and monotonic share a timebase on Linux; the paired
    # read makes the mapping exact there and merely approximate on
    # platforms where they drift.
    offset = time.perf_counter() - time.monotonic()
    anchor = (float(blob.get("mono0", 0.0)) + offset) - sink.epoch_s
    lane = f"worker {slot} (pid {pid})"
    metrics = session.metrics
    for name, start_s, duration_s, attrs in blob.get("spans", ()):
        merged = dict(attrs)
        merged.update(ctx)
        merged["slot"] = slot
        merged[LANE_PID_KEY] = pid
        merged[LANE_NAME_KEY] = lane
        index = len(sink.records)
        sink.records.append(
            SpanRecord(
                name=name,
                start_s=max(0.0, anchor + float(start_s)),
                duration_s=float(duration_s),
                depth=0,
                parent=None,
                index=index,
                attrs=merged,
            )
        )
        if name.startswith("par.worker."):
            metrics.histogram(f"{name}_s").observe(float(duration_s))
    wall_s = float(blob.get("wall_s", 0.0))
    metrics.counter("par.telemetry.blobs").inc()
    metrics.counter(f"par.slot.{slot}.shards").inc()
    metrics.counter(f"par.slot.{slot}.busy_s").inc(wall_s)
    metrics.histogram(f"par.slot.{slot}.shard_wall_s").observe(wall_s)
    for name, value in (blob.get("counters") or {}).items():
        metrics.counter(f"par.worker.{name}").inc(value)
    cache = blob.get("cache")
    if cache:
        metrics.gauge(f"par.slot.{slot}.cache.plans").set(sum(cache.values()))
    if pid is not None:
        metrics.gauge(f"par.slot.{slot}.pid").set(pid)


def worker_lane_pids(spans: Iterable[SpanRecord]) -> Set[int]:
    """Distinct worker pids among merged spans (session-side lane count)."""
    return {
        int(record.attrs[LANE_PID_KEY])
        for record in spans
        if record.attrs.get(LANE_PID_KEY) is not None
    }


def slot_numbers(metrics) -> List[int]:
    """Worker slots that reported telemetry, from ``par.slot.*`` names."""
    slots = set()
    for name in metrics.names("par.slot."):
        part = name.split(".")[2]
        if part.isdigit():
            slots.add(int(part))
    return sorted(slots)

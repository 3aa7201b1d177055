"""The persistent, fault-tolerant worker pool behind ``engine="parallel"``.

:class:`ParallelExecutor` owns N long-lived worker processes (forked
when available, so they inherit the loaded library), each reached
through its own duplex pipe. Shard payloads travel through shared
memory (:mod:`repro.par.shm`); the pipes carry only small specs and
completion messages.

Placement and fault tolerance
-----------------------------

The coordinator places every shard itself: it sends a shard only to an
idle worker (the lowest idle slot first), at most one in flight per
worker, and keeps the batch's backlog as a plain list. It therefore
always knows which shard each worker holds, and it sleeps in
:func:`multiprocessing.connection.wait` on the worker pipes plus the
process sentinels, so a result or a death wakes it at once:

* a **crashed** worker (process exited) is replaced and its in-flight
  shard is re-sent under the executor's
  :class:`~repro.resil.policy.RetryPolicy` (bounded attempts,
  exponential backoff with deterministic jitter);
* a **hung** worker (shard in flight longer than ``task_timeout``) is
  killed, replaced, and its shard retried the same way;
* a shard whose shared-memory payload fails **checksum verification**
  on collection (:mod:`repro.resil.integrity`) is treated as a
  retryable fault and re-dispatched;
* a shard that exhausts its retry budget — or is still pending when
  the batch's :class:`~repro.resil.policy.Deadline` expires —
  **degrades gracefully**: the coordinator runs it in-process via the
  same :func:`~repro.par.worker.execute_spec` code path, so the batch
  still completes with correct results.

A shard is re-sent only once its previous run is resolved (its message
was read, or its worker died and the pipe was discarded), so no worker
message can belong to an older run of a pending shard. The one
straggler left is a shard the deadline sent to the fallback while its
worker kept running it: that worker's late message is read off its
pipe, discarded and metered (``par.stale_results``), and the slot gets
no new work until then.

A per-executor :class:`~repro.resil.policy.CircuitBreaker` watches
consecutive shard failures. While it is open, whole batches bypass the
pool and run in-process on the fast engine (``resil.degraded``); after
the cooldown one probe batch goes back through the pool, and its
outcome closes or re-opens the breaker. Pool-*start* failures
additionally notify :mod:`repro.resil.degrade`, so new
``engine="parallel"`` construction sites cascade to ``"fast"``.

Every decision is mirrored to ``par.*`` / ``resil.*`` observability
counters (``par.shards.dispatched``, ``par.retries``,
``par.fallbacks``, ``par.workers.restarted``, ``par.integrity.corrupt``,
``par.stale_results``, ``resil.degraded``, ``resil.breaker.*``, the
``par.shard.wall_s`` histogram) and the whole batch runs under a
``par.run`` span.

Entering the executor as a context manager installs it as the process
default, so ``engine="parallel"`` plans created inside the ``with``
block dispatch to it::

    with ParallelExecutor(workers=8) as pool:
        ring = RnsPolynomialRing(n, basis, backend, engine="parallel")
        product = ring.mul(f, g)   # residue channels sharded across 8 workers
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParallelExecutionError
from repro.obs import dist
from repro.obs.hooks import (
    count,
    observe,
    record_breaker_transition,
    record_par_worker_restart,
    record_shard_event,
    record_worker_blob,
)
from repro.obs.session import current as obs_current
from repro.obs.spans import span
from repro.par import shm
from repro.par.worker import execute_spec, worker_main
from repro.resil import degrade
from repro.resil.inject import Fault, FaultPlan, strip_transient_fault
from repro.resil.policy import CircuitBreaker, Deadline, RetryPolicy


def _shard_event(event: str, spec: dict, **fields: object) -> None:
    """Log one shard lifecycle event with its correlation ids.

    No-op for specs without a trace-context header (i.e. whenever no
    observability session was active at dispatch), so the event log
    costs nothing on the hot path.
    """
    ctx = spec.get(dist.CTX_KEY)
    if ctx is None:
        return
    record_shard_event(
        event,
        batch=ctx["batch"],
        shard=ctx["shard"],
        attempt=ctx["attempt"],
        **fields,
    )


def _segment_names(spec: dict) -> set:
    """The shared-memory segments a shard spec reads or writes."""
    keys = {"x", "y", "z", "out", "sums", *(spec.get("inputs") or ())}
    return {spec[key] for key in keys if isinstance(spec.get(key), str)}


def _pool_context():
    """Fork where available (workers inherit the loaded library)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ParallelExecutor:
    """A persistent pool of fast-engine workers with crash recovery.

    Args:
        workers: Pool size; defaults to ``os.cpu_count()``.
        task_timeout: Seconds a single shard may run in a worker before
            that worker is declared hung, killed and replaced.
        retries: Times a failed shard is re-sent before degrading
            to in-process execution (shorthand for a
            :class:`~repro.resil.policy.RetryPolicy` with
            ``max_attempts=retries + 1`` and no backoff).
        retry_policy: Full retry/backoff policy; overrides ``retries``.
        breaker: Circuit breaker guarding the pool; defaults to a fresh
            :class:`~repro.resil.policy.CircuitBreaker` (5 consecutive
            failures trip it, 30 s cooldown).
        batch_deadline_s: Default wall-clock budget per ``run`` batch;
            ``None`` (default) means unbounded. A per-call ``deadline``
            overrides it.
        integrity: Whether batches carry per-shard checksums that are
            verified on collection (see :mod:`repro.resil.integrity`).
        audit_fraction: Fraction of completed shards re-computed on the
            faithful engine after each batch (``0.0`` disables audit).
        audit_seed: Seed for the audit's shard sampling.
        adaptive: Whether :meth:`suggest_shards` may clamp a batch's
            shard count below the worker count when recorded
            ``par.worker.compute`` history says the shards would be too
            small to amortize dispatch overhead. Tests that assert
            one-shard-per-worker layouts disable this.
        min_shard_compute_s: Adaptive-sizing floor: target compute
            seconds per shard (shards predicted to run shorter are
            merged into fewer, larger ones).

    Workers are pinned round-robin to the available CPUs when the
    platform has the affinity syscalls and more than one CPU, and run
    unpinned otherwise.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: float = 60.0,
        retries: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        batch_deadline_s: Optional[float] = None,
        integrity: bool = True,
        audit_fraction: float = 0.0,
        audit_seed: int = 0,
        adaptive: bool = True,
        min_shard_compute_s: float = 0.002,
    ) -> None:
        self.workers = int(workers) if workers else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ParallelExecutionError("worker pool needs >= 1 worker")
        if task_timeout <= 0:
            raise ParallelExecutionError("task_timeout must be positive")
        if retries < 0:
            raise ParallelExecutionError("retries must be non-negative")
        if batch_deadline_s is not None and batch_deadline_s <= 0:
            raise ParallelExecutionError("batch_deadline_s must be positive")
        if not 0.0 <= audit_fraction <= 1.0:
            raise ParallelExecutionError("audit_fraction must be in [0, 1]")
        self.task_timeout = float(task_timeout)
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=retries + 1)
        self.retries = self.retry_policy.max_attempts - 1
        self.breaker = breaker or CircuitBreaker(
            on_transition=record_breaker_transition
        )
        if min_shard_compute_s < 0:
            raise ParallelExecutionError(
                "min_shard_compute_s must be non-negative"
            )
        self.batch_deadline_s = batch_deadline_s
        self.integrity = bool(integrity)
        self.audit_fraction = float(audit_fraction)
        self.audit_seed = int(audit_seed)
        self.adaptive = bool(adaptive)
        self.min_shard_compute_s = float(min_shard_compute_s)
        #: Pool-lifetime shm arena: batches lease staging segments here
        #: instead of creating/unlinking per call; ``close()`` drains it.
        self.arena = shm.ArenaPool()
        #: Lifetime tallies, mirrored to ``par.*`` / ``resil.*`` metrics
        #: when a session is active. ``completed`` counts worker-side
        #: completions only; ``fallbacks``/``degraded``/``deadline_expired``
        #: shards finish in-process.
        self.stats: Dict[str, int] = {
            "dispatched": 0,
            "completed": 0,
            "retries": 0,
            "fallbacks": 0,
            "restarts": 0,
            "hung": 0,
            "degraded": 0,
            "corrupt": 0,
            "stale": 0,
            "deadline_expired": 0,
            "audited": 0,
            "shm_reclaimed": 0,
            "arena_drained": 0,
            "adaptive_clamped": 0,
            "pinned": 0,
            "interrupted": 0,
        }
        self._ctx = _pool_context()
        self._procs: List[multiprocessing.Process] = []
        #: The parent's end of each worker's duplex pipe, by slot.
        self._conns: list = []
        #: slot -> (task_id, sent_at) of the one shard that worker runs.
        #: Outlives a batch only for a shard the deadline (or an
        #: interrupt) gave up on while its worker kept running it.
        self._inflight: Dict[int, Tuple[int, float]] = {}
        self._started = False
        self._closed = False
        self._next_id = 0
        self._inject_crashes = 0
        self._fault_plan: Optional[FaultPlan] = None
        self._fault_index = 0
        self._active_segments: set = set()
        self._previous_default: Optional["ParallelExecutor"] = None
        #: EWMA of per-item worker compute seconds, keyed by op signature
        #: (feeds adaptive shard sizing).
        self._compute_ewma: Dict[tuple, float] = {}
        self._pin_cpus = self._resolve_pins()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def started(self) -> bool:
        return self._started

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (introspection/tests)."""
        return [p.pid for p in self._procs if p.is_alive()]

    def start(self) -> "ParallelExecutor":
        """Spawn the pool (idempotent; ``run`` calls this lazily).

        A failed spawn notifies :mod:`repro.resil.degrade` — so new
        ``engine="parallel"`` plans cascade to ``"fast"`` — before
        re-raising; ``run`` additionally degrades the affected batch
        in-process instead of surfacing the error.
        """
        if self._closed:
            raise ParallelExecutionError("executor is closed")
        if self._started:
            return self
        try:
            for slot in range(self.workers):
                proc, conn = self._spawn(slot)
                self._procs.append(proc)
                self._conns.append(conn)
        except Exception:
            degrade.note_pool_start_failure()
            for proc in self._procs:
                proc.kill()
            for conn in self._conns:
                conn.close()
            self._procs, self._conns = [], []
            raise
        degrade.note_pool_start_success()
        self._started = True
        return self

    @staticmethod
    def _resolve_pins() -> List[int]:
        """CPUs to pin workers to (slot -> cpu, round-robin); [] = none.

        Empty on platforms without the Linux affinity syscalls (macOS
        has neither ``sched_getaffinity`` nor ``sched_setaffinity``) and
        with a single CPU, where pinning everything to it buys nothing
        and forbids the scheduler from doing better.
        """
        if not (
            hasattr(os, "sched_getaffinity")
            and hasattr(os, "sched_setaffinity")
        ):
            return []
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except OSError:
            return []
        return cpus if len(cpus) >= 2 else []

    def _spawn(self, slot: int):
        """Start the worker for ``slot``; returns ``(process, parent_end)``."""
        pin_cpu = (
            self._pin_cpus[slot % len(self._pin_cpus)]
            if self._pin_cpus
            else None
        )
        conn, child_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_end, pin_cpu),
            daemon=True,
            name=f"repro-par-worker-{slot}",
        )
        try:
            proc.start()
        finally:
            # The worker holds the only copy: its death reads as EOF and
            # a respawn leaks no descriptor in the parent.
            child_end.close()
        if pin_cpu is not None:
            self.stats["pinned"] += 1
            count("par.workers.pinned")
        return proc, conn

    def _replace(self, slot: int) -> None:
        """Kill (if need be) the worker in ``slot`` and start a fresh one.

        Its pipe is discarded with it, so nothing the old process wrote
        can reach the replacement's reader.
        """
        proc = self._procs[slot]
        proc.kill()
        proc.join(timeout=5.0)
        if proc.exitcode is not None:
            proc.close()
        self._conns[slot].close()
        self._inflight.pop(slot, None)
        self._procs[slot], self._conns[slot] = self._spawn(slot)
        self.stats["restarts"] += 1
        record_par_worker_restart()

    def close(self) -> None:
        """Stop the workers and close their pipes (idempotent).

        Also defensively unlinks any shared-memory segment that was
        named in this executor's task specs and is still live — a run
        aborted by a hard error (or a worker dying between a segment's
        registration and interpreter ``atexit``) must not leave
        ``/dev/shm`` dirty for the process's remaining lifetime.
        """
        if self._closed:
            return
        self._closed = True
        # Drain the arena first: its segments are registered in the shm
        # module registry, and draining removes them before the
        # defensive per-name reclaim below would misattribute them.
        drained = self.arena.drain()
        if drained:
            self.stats["arena_drained"] += drained
        self._reclaim_segments()
        if not self._started:
            return
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass  # that worker is already gone
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc, conn in zip(self._procs, self._conns):
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
            conn.close()
        self._procs, self._conns = [], []
        self._inflight.clear()

    def _reclaim_segments(self) -> None:
        reclaimed = 0
        for name in list(self._active_segments):
            if shm.release_by_name(name):
                reclaimed += 1
        self._active_segments.clear()
        if reclaimed:
            self.stats["shm_reclaimed"] += reclaimed
            count("par.shm.reclaimed", amount=reclaimed)

    def __enter__(self) -> "ParallelExecutor":
        self.start()
        self._previous_default = _swap_default(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _swap_default(self._previous_default)
        self._previous_default = None
        self.close()

    # ------------------------------------------------------------------
    # Fault injection (tests, chaos harness)
    # ------------------------------------------------------------------

    def inject(self, plan: Optional[FaultPlan]) -> None:
        """Arm a :class:`~repro.resil.inject.FaultPlan` (``None`` disarms).

        Plan indices count every shard this executor dispatches from
        now on, across batches, in dispatch order.
        """
        self._fault_plan = plan
        self._fault_index = 0

    def inject_crash(self, shards: int = 1) -> None:
        """Mark the next ``shards`` dispatched shard specs to kill their
        worker mid-task (every attempt crashes; only the in-process
        fallback, which ignores the flag, can complete them)."""
        self._inject_crashes += int(shards)

    def _next_fault(self) -> Optional[Fault]:
        fault = None
        if self._fault_plan is not None:
            fault = self._fault_plan.fault_for(self._fault_index)
            self._fault_index += 1
        if fault is None and self._inject_crashes > 0:
            self._inject_crashes -= 1
            fault = Fault("crash", sticky=True)
        return fault

    # ------------------------------------------------------------------
    # Adaptive shard sizing
    # ------------------------------------------------------------------

    @staticmethod
    def _op_signature(spec: dict) -> tuple:
        """History key for adaptive sizing: ``n``/``q`` plus the program.

        Each chain step contributes its kind and what sets its cost (an
        NTT's direction, a BLAS op), so two programs of equal length —
        say a forward NTT and a ``vector_mul`` — keep separate history.
        """
        program = tuple(
            (step.get("kind"), step.get("direction") or step.get("blas_op"))
            for step in spec.get("steps") or ()
        )
        return (spec.get("n"), spec.get("q"), program)

    def suggest_shards(self, meta: dict, total: int) -> int:
        """How many shards a batch of ``total`` items should dispatch.

        The ceiling is ``min(workers, total)`` (the historical fixed
        choice). With ``adaptive`` enabled and recorded compute history
        for this op signature, the count is clamped so each shard is
        predicted to run at least ``min_shard_compute_s`` of worker
        compute — a batch too small to amortize dispatch round trips
        collapses into fewer (possibly one) shards.
        """
        ceiling = max(1, min(self.workers, int(total)))
        if not self.adaptive or self.min_shard_compute_s <= 0:
            return ceiling
        per_item = self._compute_ewma.get(self._op_signature(meta))
        if per_item is None or per_item <= 0:
            return ceiling
        ideal = int(total * per_item / self.min_shard_compute_s)
        shards = max(1, min(ceiling, ideal))
        if shards < ceiling:
            self.stats["adaptive_clamped"] += 1
            count("par.adaptive.clamped")
            observe("par.adaptive.shards", shards)
            count("par.adaptive.saved_dispatches", amount=ceiling - shards)
        return shards

    def _note_compute(self, spec: dict, wall_s: float, blob) -> None:
        """Fold one completed shard into the per-item compute EWMA.

        Prefers the worker's ``par.worker.compute`` span durations from
        the telemetry blob (pure compute); falls back to the message's
        wall time (compute + plan + shm mapping) when no session was
        active — a coarser but still serviceable signal.
        """
        bounds = spec.get("rows") or spec.get("elems")
        if not bounds:
            return
        items = max(1, int(bounds[1]) - int(bounds[0]))
        seconds = None
        if blob:
            durations = [
                entry[2]
                for entry in blob.get("spans") or ()
                if entry[0] == "par.worker.compute"
            ]
            if durations:
                seconds = float(sum(durations))
        if seconds is None:
            seconds = float(wall_s)
        per_item = max(seconds, 0.0) / items
        key = self._op_signature(spec)
        previous = self._compute_ewma.get(key)
        self._compute_ewma[key] = (
            per_item if previous is None
            else 0.7 * previous + 0.3 * per_item
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self, specs: Sequence[dict], deadline: Optional[Deadline] = None
    ) -> None:
        """Execute all shard specs; returns once every shard completed.

        Results land in the shared-memory segments the specs name; this
        method only coordinates. Raises only for executor misuse or for
        errors that persist through the in-process fallback (e.g. a
        genuinely invalid operand) — engine-availability problems (pool
        won't start, breaker open) degrade the batch to in-process
        fast-engine execution instead.
        """
        if self._closed:
            raise ParallelExecutionError("executor is closed")
        specs = [dict(spec) for spec in specs]
        if not specs:
            return
        for spec in specs:
            fault = self._next_fault()
            if fault is not None:
                spec["fault"] = fault.to_spec()
        self._track_segments(specs)
        self.stats["dispatched"] += len(specs)
        count("par.shards.dispatched", amount=len(specs))
        if deadline is None and self.batch_deadline_s is not None:
            deadline = Deadline(self.batch_deadline_s)
        # A batch correlation id exists only while a session is active:
        # without one, specs carry no context header at all and the
        # telemetry path is never entered (zero pickling overhead).
        batch_id = dist.next_batch_id() if obs_current() is not None else None
        with span("par.run", shards=len(specs), batch=batch_id):
            if not self.breaker.allow():
                self._run_degraded(specs, "breaker_open")
                return
            try:
                self.start()
            except ParallelExecutionError:
                raise  # misuse (closed executor), not availability
            except Exception:
                self.breaker.record_failure()
                self._run_degraded(specs, "pool_start_failed")
                return
            try:
                self._event_loop(specs, deadline, batch_id)
            except KeyboardInterrupt:
                # Ctrl-C mid-batch: the shards still running were retired
                # from the arena, and the next batch reads their results
                # as stale.
                self.stats["interrupted"] += 1
                count("par.interrupted")
                raise

    def _track_segments(self, specs: Sequence[dict]) -> None:
        """Remember segment names so ``close()`` can reclaim leaks."""
        self._active_segments = {
            name for name in self._active_segments if shm.is_created(name)
        }
        for spec in specs:
            self._active_segments |= _segment_names(spec)

    def _run_degraded(self, specs: List[dict], reason: str) -> None:
        """Run a whole batch in-process on the fast engine (no pool)."""
        count("resil.degraded")
        count("resil.degraded.<reason>", reason)
        self.stats["degraded"] += len(specs)
        for spec in specs:
            execute_spec(spec, in_worker=False)

    def audit(self, specs: Sequence[dict]) -> int:
        """Faithful-engine audit of a completed batch (see resil docs).

        Called by the API layer after ``run`` while the batch's
        segments are still mapped; no-op unless ``audit_fraction > 0``.
        """
        if self.audit_fraction <= 0.0 or not specs:
            return 0
        from repro.resil.integrity import audit_shards

        audited = audit_shards(specs, self.audit_fraction, self.audit_seed)
        self.stats["audited"] += audited
        return audited

    def _verify(self, spec: dict) -> bool:
        """Recompute a collected shard's checksum against its sums slot."""
        if not self.integrity or spec.get("sums") is None:
            return True
        from repro.resil import integrity

        with shm.mapped(spec["out"]) as out_seg, shm.mapped(
            spec["sums"]
        ) as sums_seg:
            out_view = shm.segment_view(out_seg, spec["shape"])
            sums_view = shm.segment_view(sums_seg, (spec["sums_len"],))
            ok = integrity.verify_checksum(spec, out_view, sums_view)
            del out_view, sums_view
        return ok

    def _send(self, slot: int, task_id: int, spec: dict) -> None:
        """Hand ``spec`` to the idle worker in ``slot``."""
        try:
            self._conns[slot].send(spec)
        except OSError:
            # The worker died while idle: replace it and send again.
            self._replace(slot)
            self._conns[slot].send(spec)
        self._inflight[slot] = (task_id, time.monotonic())

    def _receive(self, slot: int):
        """``(task_id, message)`` for the shard ``slot`` just answered.

        ``message`` is ``None`` when the worker died before (or while)
        writing it, or the pipe broke.
        """
        task_id = self._inflight.pop(slot)[0]
        try:
            return task_id, self._conns[slot].recv()
        except (EOFError, OSError):
            return task_id, None

    def _event_loop(
        self,
        specs: List[dict],
        deadline: Optional[Deadline],
        batch_id: Optional[str] = None,
    ) -> None:
        pending: Dict[int, dict] = {}
        attempts: Dict[int, int] = {}
        backlog: List[int] = []  # task ids ready to send, in order
        delayed: List[Tuple[float, int]] = []  # (ready_at, task_id) heap

        def place() -> None:
            # The lowest idle slot first: placement is deterministic.
            for slot in range(self.workers):
                if not backlog:
                    return
                if slot not in self._inflight:
                    task_id = backlog.pop(0)
                    self._send(slot, task_id, pending[task_id])

        with span("par.dispatch", batch=batch_id, shards=len(specs)):
            for index, spec in enumerate(specs):
                task_id = self._next_id
                self._next_id += 1
                if batch_id is not None:
                    spec[dist.CTX_KEY] = dist.make_context(batch_id, index)
                pending[task_id] = spec
                attempts[task_id] = 0
                backlog.append(task_id)
                _shard_event("shard.dispatched", spec, task=task_id)
            place()

        def fallback(task_id: int) -> None:
            spec = pending.pop(task_id)
            self.stats["fallbacks"] += 1
            count("par.fallbacks")
            _shard_event("shard.fallback", spec, task=task_id)
            ctx = spec.get(dist.CTX_KEY)
            if ctx is not None:
                with span(
                    "par.fallback",
                    batch=ctx["batch"],
                    shard=ctx["shard"],
                    attempt=ctx["attempt"],
                ):
                    execute_spec(spec, in_worker=False)
            else:
                execute_spec(spec, in_worker=False)

        def fail(task_id: int, slot: int) -> None:
            self.breaker.record_failure()
            attempts[task_id] += 1
            if not self.retry_policy.should_retry(attempts[task_id]):
                fallback(task_id)
                return
            self.stats["retries"] += 1
            count("par.retries")
            count("par.slot.<slot>.retries", slot)
            spec = strip_transient_fault(pending[task_id])
            # Re-stamp the attempt so the retried execution's worker
            # spans carry the ids of the attempt that produced them.
            dist.refresh_context(spec, attempts[task_id] + 1)
            pending[task_id] = spec
            ctx = spec.get(dist.CTX_KEY)
            if ctx is not None:
                with span(
                    "par.retry",
                    batch=ctx["batch"],
                    shard=ctx["shard"],
                    attempt=ctx["attempt"],
                    from_slot=slot,
                ):
                    pass  # instant marker on the parent lane
                _shard_event("shard.retry", spec, task=task_id, from_slot=slot)
            delay = self.retry_policy.delay_s(attempts[task_id])
            if delay > 0.0:
                observe("resil.retry.backoff_s", delay)
                heapq.heappush(delayed, (time.monotonic() + delay, task_id))
            else:
                backlog.append(task_id)

        def collect(slot: int, task_id: int, message: tuple) -> None:
            kind, value = message[0], message[1]
            blob = message[2] if len(message) > 2 else None
            if task_id not in pending:
                # The deadline already ran this shard in process: the
                # worker's late result and telemetry are discarded.
                self.stats["stale"] += 1
                count("par.stale_results")
                if blob is not None:
                    count("par.telemetry.stale")
                return
            if blob is not None:
                record_worker_blob(blob, slot)
            spec = pending[task_id]
            if kind == "error":
                _shard_event(
                    "shard.error", spec, task=task_id, slot=slot, error=value
                )
                fail(task_id, slot)
            elif not self._verify(spec):
                # Payload corrupt in shared memory: a retryable fault,
                # not a completion.
                self.stats["corrupt"] += 1
                count("par.integrity.corrupt")
                _shard_event("shard.corrupt", spec, task=task_id, slot=slot)
                fail(task_id, slot)
            else:
                del pending[task_id]
                self.stats["completed"] += 1
                count("par.shards.completed")
                observe("par.shard.wall_s", value)
                self._note_compute(spec, value, blob)
                _shard_event(
                    "shard.done", spec, task=task_id, slot=slot, wall_s=value
                )
                self.breaker.record_success()

        def lost(slot: int, task_id: Optional[int]) -> None:
            # The worker died or hung: replace it; retry its shard.
            self._replace(slot)
            if task_id in pending:
                fail(task_id, slot)

        def poll(now: float) -> None:
            # Imported here so processes that never start a pool do not
            # load multiprocessing.connection.
            from multiprocessing.connection import wait

            # Sleep until a result, a death, a hung worker's timeout, a
            # backoff's end or the batch deadline, whichever comes first.
            wakeups = [
                sent_at + self.task_timeout - now
                for _, sent_at in self._inflight.values()
            ]
            if delayed:
                wakeups.append(delayed[0][0] - now)
            if deadline is not None:
                wakeups.append(deadline.remaining_s())
            watch = {self._conns[slot]: slot for slot in self._inflight}
            for slot, proc in enumerate(self._procs):
                watch[proc.sentinel] = slot
            timeout = max(0.0, min(wakeups)) if wakeups else None
            ready = wait(list(watch), timeout)
            replaced = set()
            answered = []
            # Messages before deaths: a worker that answered and then
            # died still delivers its result.
            for obj in sorted(ready, key=lambda obj: isinstance(obj, int)):
                slot = watch[obj]
                if slot in replaced:
                    continue
                if isinstance(obj, int):
                    entry = self._inflight.get(slot)
                    lost(slot, entry[0] if entry else None)
                    replaced.add(slot)
                    continue
                task_id, message = self._receive(slot)
                if message is None:
                    lost(slot, task_id)
                    replaced.add(slot)
                else:
                    answered.append((slot, task_id, message))
            # Refill the answering workers before verifying and merging
            # their results, so that parent-side work overlaps their next
            # shards instead of idling them.
            place()
            for slot, task_id, message in answered:
                collect(slot, task_id, message)
            now = time.monotonic()
            for slot, (task_id, sent_at) in list(self._inflight.items()):
                if now - sent_at > self.task_timeout:
                    # Hung: killed and replaced, metered apart from crashes.
                    self.stats["hung"] += 1
                    count("par.workers.hung")
                    lost(slot, task_id)

        with span("par.collect", batch=batch_id):
            try:
                while pending and not (deadline and deadline.expired()):
                    now = time.monotonic()
                    while delayed and delayed[0][0] <= now:
                        backlog.append(heapq.heappop(delayed)[1])
                    place()
                    poll(now)
            finally:
                # A worker still running a shard of this batch (deadline
                # or interrupt) may write into its segments at any time.
                for task_id, _ in self._inflight.values():
                    if task_id in pending:
                        self.arena.retire(_segment_names(pending[task_id]))
            if pending:
                # Batch deadline: short-circuit what's left to in-process
                # execution rather than waiting out further retries.
                self.stats["deadline_expired"] += len(pending)
                count("resil.deadline.expired")
                count("resil.deadline.shards", amount=len(pending))
                for task_id in list(pending):
                    fallback(task_id)


# ---------------------------------------------------------------------------
# Process-default executor (what engine="parallel" plans dispatch to)
# ---------------------------------------------------------------------------

_DEFAULT: Optional[ParallelExecutor] = None


def _swap_default(executor: Optional[ParallelExecutor]) -> Optional[ParallelExecutor]:
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, executor
    return previous


def default_executor() -> ParallelExecutor:
    """The process-default pool, created (not started) on first use."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT.closed:
        _DEFAULT = ParallelExecutor()
    return _DEFAULT


def shutdown_default_executor() -> None:
    """Close the process-default pool, if any."""
    previous = _swap_default(None)
    if previous is not None:
        previous.close()


atexit.register(shutdown_default_executor)

"""The persistent, fault-tolerant worker pool behind ``engine="parallel"``.

:class:`ParallelExecutor` owns N long-lived worker processes (forked
when available, so they inherit the loaded library), a task queue of
small shard specs, and a result queue. Shard payloads travel through
shared memory (:mod:`repro.par.shm`); the queues carry only metadata.

Fault tolerance
---------------

Each worker advertises the task it is currently executing in a shared
``current`` array — a direct memory write that, unlike a queue message,
cannot be lost in a buffered feeder thread when the worker dies. The
coordinator's event loop therefore knows exactly which shard a crashed
or killed worker was holding:

* a **crashed** worker (process exited) is replaced and its in-flight
  shard is re-enqueued under the executor's
  :class:`~repro.resil.policy.RetryPolicy` (bounded attempts,
  exponential backoff with deterministic jitter);
* a **hung** worker (shard in flight longer than ``task_timeout``) is
  terminated, which turns it into the crashed case;
* a shard whose shared-memory payload fails **checksum verification**
  on collection (:mod:`repro.resil.integrity`) is treated as a
  retryable fault and re-dispatched;
* a shard that exhausts its retry budget — or is still pending when
  the batch's :class:`~repro.resil.policy.Deadline` expires —
  **degrades gracefully**: the coordinator runs it in-process via the
  same :func:`~repro.par.worker.execute_spec` code path, so the batch
  still completes with correct results.

Every re-enqueue bumps the shard's *generation* counter, and workers
echo the generation in their result messages; a straggler completing a
superseded execution is discarded (``par.stale_results``) instead of
double-counting a shard that was already recovered.

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
import queue as queue_mod
import time
import warnings
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

#: Seconds between event-loop polls of the result queue.
_POLL_S = 0.02

#: ``current``-array value meaning "no task in flight".
_IDLE = -1

#: Process-wide once-guard for the "pinning unsupported here" warning.
_PIN_WARNED = False


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
            that worker is declared hung and terminated.
        retries: Times a failed shard is re-enqueued before degrading
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
        pin_workers: Worker CPU pinning via ``os.sched_setaffinity``.
            ``None`` (default) pins automatically when more than one CPU
            is available; ``True`` forces pinning; ``False`` disables.
            Best-effort and a no-op on platforms without affinity.
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
        pin_workers: Optional[bool] = None,
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
        self.pin_workers = pin_workers
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
            "stale_superseded": 0,
            "stale_recovered": 0,
            "limbo_requeues": 0,
            "deadline_expired": 0,
            "audited": 0,
            "shm_reclaimed": 0,
            "arena_drained": 0,
            "adaptive_clamped": 0,
            "pinned": 0,
            "pin_unsupported": 0,
            "interrupted": 0,
        }
        self._ctx = _pool_context()
        self._procs: List[multiprocessing.Process] = []
        self._tasks = None
        self._results = None
        self._current = None
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
        self._pin_cpus: Optional[List[int]] = None

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
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
            self._current = self._ctx.Array("q", [_IDLE] * self.workers)
            if self._pin_cpus is None:
                self._pin_cpus = self._resolve_pins()
            self._procs = [self._spawn(slot) for slot in range(self.workers)]
        except Exception:
            degrade.note_pool_start_failure()
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            self._procs = []
            raise
        degrade.note_pool_start_success()
        self._started = True
        return self

    def _resolve_pins(self) -> List[int]:
        """CPUs to pin workers to (slot -> cpu, round-robin); [] = none.

        Pinning is strictly best-effort: on platforms without the Linux
        affinity syscalls (macOS has neither ``sched_getaffinity`` nor
        ``sched_setaffinity``) an *explicit* ``pin_workers=True`` warns
        once, bumps ``par.workers.pin_unsupported``, and runs unpinned —
        it never raises. Auto mode (``None``) stays silent.
        """
        if self.pin_workers is False:
            return []
        if not (
            hasattr(os, "sched_getaffinity")
            and hasattr(os, "sched_setaffinity")
        ):
            self._note_pin_unsupported("platform lacks sched_setaffinity")
            return []
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except OSError:
            self._note_pin_unsupported("sched_getaffinity failed")
            return []
        if not cpus:
            return []
        if self.pin_workers is None and len(cpus) < 2:
            # Auto mode: pinning everything to the single available CPU
            # buys nothing and forbids the scheduler from doing better.
            return []
        return cpus

    def _note_pin_unsupported(self, why: str) -> None:
        """Meter (and warn once, if explicitly requested) a skipped pin."""
        if self.pin_workers is not True:
            return
        self.stats["pin_unsupported"] += 1
        count("par.workers.pin_unsupported")
        global _PIN_WARNED
        if not _PIN_WARNED:
            _PIN_WARNED = True
            warnings.warn(
                f"pin_workers=True ignored: {why}; workers run unpinned",
                RuntimeWarning,
                stacklevel=3,
            )

    def _spawn(self, slot: int) -> multiprocessing.Process:
        pin_cpu = (
            self._pin_cpus[slot % len(self._pin_cpus)]
            if self._pin_cpus
            else None
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(slot, self._current, self._tasks, self._results, pin_cpu),
            daemon=True,
            name=f"repro-par-worker-{slot}",
        )
        proc.start()
        if pin_cpu is not None:
            self.stats["pinned"] += 1
            count("par.workers.pinned")
        return proc

    def _respawn(self, slot: int) -> None:
        """Replace the dead worker in ``slot`` with a fresh process."""
        self._current[slot] = _IDLE
        self._procs[slot] = self._spawn(slot)
        self.stats["restarts"] += 1
        record_par_worker_restart()

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent).

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
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):
                break
        deadline = time.monotonic() + 2.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._tasks, self._results):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        self._procs = []

    def _reclaim_segments(self) -> None:
        reclaimed = 0
        for name in list(self._active_segments):
            if shm.release_by_name(name):
                reclaimed += 1
        self._active_segments.clear()
        if reclaimed:
            self.stats["shm_reclaimed"] += reclaimed
            count("par.shm.reclaimed", amount=reclaimed)

    def _abort_batch(self) -> None:
        """Quiesce the pool after an interrupt landed mid-batch.

        Three steps, all best-effort and bounded: (1) drain every
        still-queued task so no worker starts writing into segments the
        interrupted caller will release; (2) wait briefly for in-flight
        slots to go idle so nothing is mid-write when the caller tears
        down; (3) drain the result queue so late completions from this
        batch cannot be misread as results of the *next* batch. Workers
        stay alive — the pool remains usable after the interrupt is
        handled (or close() tears it down normally).
        """
        if not self._started:
            return
        while True:
            try:
                self._tasks.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
        quiet_until = time.monotonic() + min(self.task_timeout, 2.0)
        while time.monotonic() < quiet_until:
            busy = any(
                self._current[slot] != _IDLE
                for slot in range(self.workers)
                if slot < len(self._current)
            )
            if not busy:
                break
            time.sleep(_POLL_S)
        while True:
            try:
                self._results.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break

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
            for slot, proc in enumerate(self._procs):
                if not proc.is_alive():
                    self._respawn(slot)  # died between batches
            try:
                self._event_loop(specs, deadline, batch_id)
            except KeyboardInterrupt:
                # Ctrl-C mid-batch: quiesce before propagating so queued
                # tasks cannot scribble into arena segments the caller is
                # about to recycle, and close() finds nothing leaked.
                self.stats["interrupted"] += 1
                count("par.interrupted")
                self._abort_batch()
                raise

    def _track_segments(self, specs: Sequence[dict]) -> None:
        """Remember segment names so ``close()`` can reclaim leaks."""
        self._active_segments = {
            name for name in self._active_segments if shm.is_created(name)
        }
        for spec in specs:
            keys = {"x", "y", "z", "out", "sums"}
            keys.update(spec.get("inputs") or ())
            for key in keys:
                name = spec.get(key)
                if isinstance(name, str):
                    self._active_segments.add(name)

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

        out_seg = shm.attach_segment(spec["out"])
        sums_seg = shm.attach_segment(spec["sums"])
        try:
            out_view = shm.segment_view(out_seg, spec["shape"])
            sums_view = shm.segment_view(sums_seg, (spec["sums_len"],))
            ok = integrity.verify_checksum(spec, out_view, sums_view)
            del out_view, sums_view
        finally:
            shm.detach_segment(out_seg)
            shm.detach_segment(sums_seg)
        return ok

    def _event_loop(
        self,
        specs: List[dict],
        deadline: Optional[Deadline],
        batch_id: Optional[str] = None,
    ) -> None:
        pending: Dict[int, dict] = {}
        attempts: Dict[int, int] = {}
        gen: Dict[int, int] = {}
        with span("par.dispatch", batch=batch_id, shards=len(specs)):
            for index, spec in enumerate(specs):
                task_id = self._next_id
                self._next_id += 1
                if batch_id is not None:
                    spec[dist.CTX_KEY] = dist.make_context(batch_id, index)
                pending[task_id] = spec
                attempts[task_id] = 0
                gen[task_id] = 0
                self._tasks.put((task_id, 0, spec))
                _shard_event("shard.dispatched", spec, task=task_id)

        claimed_at: Dict[Tuple[int, int], float] = {}
        delayed: List[Tuple[float, int]] = []  # (ready_at, task_id) heap
        last_progress = time.monotonic()

        def clear_claims(task_id: int) -> None:
            for key in [k for k in claimed_at if k[1] == task_id]:
                del claimed_at[key]

        def fallback(task_id: int) -> None:
            spec = pending.pop(task_id)
            clear_claims(task_id)
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

        def fail(
            task_id: int,
            slot: Optional[int] = None,
            charge_breaker: bool = True,
        ) -> None:
            if task_id not in pending:
                return
            clear_claims(task_id)
            if charge_breaker:
                self.breaker.record_failure()
            attempts[task_id] += 1
            # A new generation supersedes every earlier execution of
            # this shard: stragglers completing the old copy are
            # discarded on arrival instead of double-counted.
            gen[task_id] += 1
            if self.retry_policy.should_retry(attempts[task_id]):
                self.stats["retries"] += 1
                count("par.retries")
                if slot is not None:
                    count("par.slot.<slot>.retries", slot)
                spec = strip_transient_fault(pending[task_id])
                # Re-stamp the context header (attempt, generation) so
                # the retried execution's worker spans carry the ids of
                # the attempt that actually produced them.
                dist.refresh_context(spec, attempts[task_id] + 1, gen[task_id])
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
                    _shard_event(
                        "shard.retry", spec, task=task_id, from_slot=slot
                    )
                delay = self.retry_policy.delay_s(attempts[task_id])
                if delay > 0.0:
                    observe("resil.retry.backoff_s", delay)
                    heapq.heappush(
                        delayed, (time.monotonic() + delay, task_id)
                    )
                else:
                    self._tasks.put((task_id, gen[task_id], pending[task_id]))
            else:
                fallback(task_id)

        with span("par.collect", batch=batch_id):
            while pending:
                now = time.monotonic()

                # Backoff queue: release retries whose delay has elapsed.
                while delayed and delayed[0][0] <= now:
                    _, task_id = heapq.heappop(delayed)
                    if task_id in pending:
                        self._tasks.put(
                            (task_id, gen[task_id], pending[task_id])
                        )

                # Batch deadline: short-circuit what's left to in-process
                # execution rather than waiting out further retries.
                if deadline is not None and deadline.expired():
                    remaining = list(pending)
                    self.stats["deadline_expired"] += len(remaining)
                    count("resil.deadline.expired")
                    count("resil.deadline.shards", amount=len(remaining))
                    for task_id in remaining:
                        fallback(task_id)
                    break

                try:
                    message = self._results.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    message = None
                now = time.monotonic()

                if message is not None:
                    kind, task_id, msg_gen = (
                        message[0],
                        message[1],
                        message[2],
                    )
                    from_slot = message[3]
                    blob = message[5] if len(message) > 5 else None
                    last_progress = now
                    # Two stale flavors: "superseded" — the task is
                    # still pending but this message carries an old
                    # generation (its re-enqueue won the race) — and
                    # "recovered" — the task already completed through
                    # a retry or fallback, so this straggler is the
                    # double execution the generation counters exist to
                    # surface. Both are discarded *and metered*.
                    superseded = (
                        task_id in pending and msg_gen != gen[task_id]
                    )
                    recovered = task_id not in pending
                    if blob is not None:
                        if superseded or recovered:
                            # Telemetry of a stale execution: discarded
                            # exactly as its result is, but metered.
                            count("par.telemetry.stale")
                        else:
                            record_worker_blob(blob, from_slot)
                    if superseded or recovered:
                        flavor = (
                            "superseded" if superseded else "recovered"
                        )
                        self.stats["stale"] += 1
                        self.stats[f"stale_{flavor}"] += 1
                        count("par.stale_results")
                        count(
                            "par.stale_results.superseded"
                            if superseded
                            else "par.stale_results.recovered"
                        )
                    elif kind == "done":
                        if task_id in pending:
                            if self._verify(pending[task_id]):
                                spec = pending.pop(task_id)
                                clear_claims(task_id)
                                self.stats["completed"] += 1
                                count("par.shards.completed")
                                observe("par.shard.wall_s", message[4])
                                self._note_compute(spec, message[4], blob)
                                _shard_event(
                                    "shard.done",
                                    spec,
                                    task=task_id,
                                    slot=from_slot,
                                    wall_s=message[4],
                                )
                                self.breaker.record_success()
                            else:
                                # Payload corrupt in shared memory: a
                                # retryable fault, not a completion.
                                self.stats["corrupt"] += 1
                                count("par.integrity.corrupt")
                                _shard_event(
                                    "shard.corrupt",
                                    pending[task_id],
                                    task=task_id,
                                    slot=from_slot,
                                )
                                fail(task_id, slot=from_slot)
                    elif kind == "error":
                        if task_id in pending:
                            _shard_event(
                                "shard.error",
                                pending[task_id],
                                task=task_id,
                                slot=from_slot,
                                error=message[4],
                            )
                        fail(task_id, slot=from_slot)

                # Police the pool on every pass, not only on a quiet
                # poll: under steady traffic the survivors keep the
                # result queue busy, and a worker killed while idle
                # would never be replaced.
                for slot, proc in enumerate(self._procs):
                    in_flight = self._current[slot]
                    if proc.is_alive():
                        if in_flight != _IDLE and in_flight in pending:
                            key = (slot, in_flight)
                            if key not in claimed_at:
                                claimed_at[key] = now
                                last_progress = now
                            elif now - claimed_at[key] > self.task_timeout:
                                # Hung: terminate once and clear the
                                # claim — re-signalling every poll tick
                                # until the OS reaps the process was
                                # pure noise. The dead-worker branch
                                # below handles recovery; metered apart
                                # from crashes.
                                del claimed_at[key]
                                self.stats["hung"] += 1
                                count("par.workers.hung")
                                proc.terminate()
                        continue
                    # Dead worker: replace it, recover its shard.
                    self._respawn(slot)
                    last_progress = now
                    if in_flight != _IDLE:
                        fail(in_flight, slot=slot)

                # Safety net: a worker that died between dequeuing a
                # task and advertising it leaves the shard in limbo.
                # After a quiet task_timeout, re-enqueue everything
                # unclaimed — skipping retries waiting out a backoff.
                # Limbo is a dispatch anomaly, not a worker failure:
                # the re-enqueue must not charge the circuit breaker,
                # or a batch of slow-but-healthy shards could trip it
                # and degrade the *next* batch with zero real faults.
                if now - last_progress > self.task_timeout:
                    advertised = {
                        self._current[s] for s in range(self.workers)
                    }
                    waiting = {task_id for _, task_id in delayed}
                    for task_id in list(pending):
                        if (
                            task_id not in advertised
                            and task_id not in waiting
                        ):
                            self.stats["limbo_requeues"] += 1
                            count("par.limbo.requeued")
                            fail(task_id, charge_breaker=False)
                    last_progress = now


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

"""Worker-side execution of sharded fast-engine tasks.

A worker is a long-lived process pulling task *specs* off a queue. The
pool speaks one task type: ``op="chain"``, a
:mod:`repro.fast.chain` program (its ``steps`` and ``inputs``), its
modular parameters (``q``; ``n``/``root`` for transforms, ``psi`` for
twists), shared-memory segment names, and the shard (row or element
range) to compute. Every parallel op — transforms, products, BLAS —
is such a chain. All heavy data stays in shared memory; the worker
maps it, runs :func:`repro.fast.chain.run_chain` on its slice, and
writes the result rows in place.

Per-worker caches keep :class:`~repro.fast.ntt.FastNtt` /
:class:`~repro.fast.ntt.FastNegacyclic` / :class:`~repro.fast.blas.FastBlasPlan`
plans (and, through :meth:`repro.ntt.twiddles.TwiddleTable.get`, their
twiddle tables) warm across calls, so a pool that serves a stream of
batches pays root-finding and table construction once per worker, not
once per shard.

Resilience hooks (see :mod:`repro.resil`):

* when the spec names a checksum segment, the worker stores a CRC-32
  of the payload it just wrote (:mod:`repro.resil.integrity`), which
  the executor re-verifies on collection;
* a ``fault`` entry in the spec (:class:`repro.resil.inject.Fault`
  serialized) makes the worker crash, hang, corrupt its payload after
  checksumming, or complete slowly — *only* inside a real worker
  process, so the in-process fallback always produces clean results;
* every queue message echoes the task's *generation* counter, letting
  the executor discard results from superseded executions.

:func:`execute_spec` is deliberately runnable in-process too
(``in_worker=False``): it is the graceful-degradation path the executor
falls back to when a shard's worker crashed or hung past its retry
budget, and the path batches take when the circuit breaker is open.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ParallelExecutionError
from repro.fast import chain as fast_chain
from repro.fast.blas import FastBlasPlan
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.ntt.twiddles import TwiddleTable
from repro.obs import dist
from repro.obs import session as obs_session
from repro.obs.hooks import count
from repro.obs.spans import span
from repro.par import shm
from repro.resil import integrity as resil_integrity

#: Exit code of a crash-injected worker (distinguishable in waitpid).
CRASH_EXIT_CODE = 86

#: XOR mask a ``corrupt`` fault applies to the first payload word.
CORRUPT_MASK = 0xDEADBEEF

#: Worker-side attachment cache capacity (segments stay mapped between
#: tasks). Arena-leased segments keep their names across batches, so in
#: steady state a handful of entries serves every task with zero
#: attach/detach syscalls per shard.
SEG_CACHE_CAPACITY = 32

_NTT_PLANS: Dict[Tuple[int, int, int], FastNtt] = {}
_NEG_PLANS: Dict[Tuple[int, int, int, int], FastNegacyclic] = {}
_BLAS_PLANS: Dict[int, FastBlasPlan] = {}

#: name -> attached SharedMemory, LRU-bounded (worker processes only).
_SEG_CACHE: "OrderedDict[str, object]" = OrderedDict()


def _attach_cached(name: str):
    """Attach a segment through the worker's LRU attachment cache.

    Segment names are never reused (see :func:`repro.par.shm._fresh_name`),
    so a cached mapping can never alias different backing pages. Evicted
    entries are unmapped; on Linux a mapping stays valid even if the
    creator has already unlinked the name, so caching is safe against
    the per-batch release path too.
    """
    seg = _SEG_CACHE.get(name)
    if seg is not None:
        _SEG_CACHE.move_to_end(name)
        count("seg_cache.hits")
        return seg
    seg = shm.attach_segment(name)
    _SEG_CACHE[name] = seg
    count("seg_cache.misses")
    while len(_SEG_CACHE) > SEG_CACHE_CAPACITY:
        _, evicted = _SEG_CACHE.popitem(last=False)
        shm.detach_segment(evicted)
    return seg


def seg_cache_size() -> int:
    """Entries in the worker attachment cache (introspection for tests)."""
    return len(_SEG_CACHE)


def ntt_plan(n: int, q: int, root: int) -> FastNtt:
    """The per-process cached fast NTT plan for ``(n, q, root)``."""
    key = (n, q, root)
    plan = _NTT_PLANS.get(key)
    if plan is None:
        plan = FastNtt(n, q, table=TwiddleTable.get(n, q, root))
        _NTT_PLANS[key] = plan
    return plan


def negacyclic_plan(n: int, q: int, psi: int, root: int) -> FastNegacyclic:
    """The per-process cached negacyclic plan for ``(n, q, psi, root)``."""
    key = (n, q, psi, root)
    plan = _NEG_PLANS.get(key)
    if plan is None:
        plan = FastNegacyclic(n, q, psi=psi, plan=ntt_plan(n, q, root))
        _NEG_PLANS[key] = plan
    return plan


def blas_plan(q: int) -> FastBlasPlan:
    """The per-process cached fast BLAS plan for modulus ``q``."""
    plan = _BLAS_PLANS.get(q)
    if plan is None:
        plan = FastBlasPlan(q)
        _BLAS_PLANS[q] = plan
    return plan


def plan_cache_sizes() -> Dict[str, int]:
    """Sizes of the per-process plan caches (introspection for tests)."""
    return {
        "ntt": len(_NTT_PLANS),
        "negacyclic": len(_NEG_PLANS),
        "blas": len(_BLAS_PLANS),
    }


def _slice(view: np.ndarray, bounds: Tuple[int, int], copy: bool) -> np.ndarray:
    start, stop = bounds
    # Chains never write their inputs, so a worker (whose attachments
    # stay mapped) reads the shared buffer in place, read-only so a
    # retry always sees the staged operands; the in-process fallback
    # copies so its per-call attachment can unmap at once.
    if copy:
        return np.array(view[start:stop], copy=True)
    rows = view[start:stop]
    rows.flags.writeable = False
    return rows


def execute_spec(spec: dict, in_worker: bool = False) -> None:
    """Compute one shard described by ``spec``, writing into its segment.

    Idempotent by construction (each shard owns a disjoint output
    range), so a shard that is retried — or executed both by a dying
    worker and by the fallback — converges to the same bytes.
    """
    fault: Optional[dict] = spec.get("fault") if in_worker else None
    if fault is not None:
        kind = fault["kind"]
        if kind == "crash":
            os._exit(CRASH_EXIT_CODE)  # fault injection: die mid-task
        elif kind in ("hang", "slow"):
            # "hang" sleeps past task_timeout (the executor terminates
            # us); "slow" completes late, racing the re-enqueue logic.
            time.sleep(fault.get("seconds", 0.0))

    op = spec["op"]
    if op != "chain":
        raise ParallelExecutionError(f"unknown parallel op {op!r}")
    bounds = resil_integrity.spec_bounds(spec)
    segments = []
    try:
        def attach(name: str):
            # Worker processes keep attachments mapped across tasks
            # (names are never reused); the in-process fallback path
            # attaches and detaches per call as before.
            if in_worker:
                return _attach_cached(name)
            seg = shm.attach_segment(name)
            segments.append(seg)
            return seg

        def view_of(key: str) -> np.ndarray:
            return shm.segment_view(attach(spec[key]), spec["shape"])

        steps = spec["steps"]
        with span("par.worker.plan", op=op):
            neg, plan = None, None
            if spec.get("psi") is not None:
                neg = negacyclic_plan(
                    spec["n"], spec["q"], spec["psi"], spec["root"]
                )
                plan = neg.plan
            elif spec.get("n") is not None:
                plan = ntt_plan(spec["n"], spec["q"], spec["root"])
            bl = blas_plan(spec["q"])
        with span("par.worker.map_shm", role="in"):
            regs = {
                name: _slice(view_of(name), bounds, copy=not in_worker)
                for name in spec["inputs"]
            }
        with span("par.worker.compute", op=op, steps=len(steps)):
            # BLAS chains carry no transform plan and run on the flat
            # element axis; everything else stays resident on the
            # plan's transform kernel (GEMM or r52) across its steps.
            result = fast_chain.run_chain(steps, regs, plan, neg=neg, blas=bl)
        with span("par.worker.map_shm", role="out"):
            out_view = shm.segment_view(attach(spec["out"]), spec["shape"])
            out_view[bounds[0] : bounds[1]] = result
        if spec.get(resil_integrity.SUMS_KEY) is not None:
            with span("par.worker.checksum"):
                sums_seg = attach(spec[resil_integrity.SUMS_KEY])
                sums_view = shm.segment_view(sums_seg, (spec["sums_len"],))
                resil_integrity.write_checksum(spec, out_view, sums_view)
                del sums_view
        if fault is not None and fault["kind"] == "corrupt":
            # Flip payload bits *after* the checksum write: models
            # in-flight corruption that only verification can catch.
            flat = out_view[bounds[0] : bounds[1]].reshape(-1)
            flat[0] ^= np.uint64(CORRUPT_MASK)
        del out_view
    finally:
        for seg in segments:
            shm.detach_segment(seg)


def worker_main(
    slot: int, current, task_queue, result_queue, pin_cpu: Optional[int] = None
) -> None:
    """Worker process entry: serve task specs until the ``None`` sentinel.

    Before computing, the worker advertises the task id in
    ``current[slot]`` — a shared array owned by the executor. Unlike a
    queue message (buffered through a feeder thread that dies with the
    process), this direct write survives a crash, so the executor can
    always attribute in-flight work to a dead worker. Completion is
    reported on ``result_queue`` as ``("done", task_id, gen, slot,
    wall_s)`` or, when the spec itself raised (bad operands, unknown
    op), ``("error", task_id, gen, slot, message)`` — ``gen`` echoes
    the generation counter from the task message so the executor can
    discard results of superseded executions.

    Telemetry (:mod:`repro.obs.dist`): a spec carrying a trace-context
    header under :data:`repro.obs.dist.CTX_KEY` is executed inside a
    worker-local :class:`~repro.obs.dist.ShardObservation`, and the
    resulting blob is appended as a sixth message element. Specs without
    a header — every spec dispatched while no parent session is active —
    take the original five-element path with zero extra work.
    """
    # Forked workers inherit the parent's process-global session object;
    # capturing into it here would be writes nobody reads. Drop it so
    # instrumentation inside the worker is a no-op unless a shard
    # explicitly scopes a local session via ShardObservation.
    obs_session.disable()
    if pin_cpu is not None and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {pin_cpu})
        except (OSError, ValueError):
            pass  # pinning is best-effort; an invalid CPU just skips it
    while True:
        try:
            item = task_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        task_id, gen, spec = item
        current[slot] = task_id
        ctx = spec.get(dist.CTX_KEY)
        started = time.perf_counter()
        observation = None
        try:
            if ctx is not None:
                with dist.ShardObservation(ctx) as observation:
                    execute_spec(spec, in_worker=True)
            else:
                execute_spec(spec, in_worker=True)
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # report, never kill the worker
            message = ("error", task_id, gen, slot, f"{type(exc).__name__}: {exc}")
            if observation is not None and observation.blob is not None:
                message += (observation.blob,)
            result_queue.put(message)
        else:
            message = ("done", task_id, gen, slot, time.perf_counter() - started)
            if observation is not None and observation.blob is not None:
                observation.blob["cache"] = plan_cache_sizes()
                message += (observation.blob,)
            result_queue.put(message)
        current[slot] = -1


def reset_plan_caches() -> None:
    """Drop the per-process plan and attachment caches (tests)."""
    _NTT_PLANS.clear()
    _NEG_PLANS.clear()
    _BLAS_PLANS.clear()
    for seg in _SEG_CACHE.values():
        shm.detach_segment(seg)
    _SEG_CACHE.clear()

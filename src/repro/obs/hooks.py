"""Instrumentation hooks called from the library's hot layers.

Each hook is a module-level function with an immediate ``is None`` bail
when no observability session is active, so the permanent call sites in
:mod:`repro.isa.trace`, :mod:`repro.machine.scheduler` and
:mod:`repro.machine.cache` cost one global read + one call when disabled.
Crucially, none of the hooks sits *inside* a per-instruction loop:

* :func:`record_trace` fires once per traced region (on ``tracing()``
  exit), deriving per-mnemonic counts and load/store bytes from
  :meth:`repro.isa.trace.Tracer.summary` — the ``emit`` path itself is
  untouched, which is what the overhead guard in
  ``tests/test_obs_overhead.py`` asserts.
* :func:`record_schedule` fires once per scheduled block with the port
  occupancies and critical path.
* :func:`record_cache_access` / :func:`record_cache_traffic` fire once
  per cache-model query with the serving level and bytes moved.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.session import current
from repro.obs.spans import span


def engine_run_span(engine: str, op: str, elements: int = 0, **attrs):
    """Span context for one execution-engine entry point call.

    The fast engine's counters (:func:`record_engine_call`) say *how
    often* it ran but give it no presence on the trace timeline, so an
    engine-vs-engine comparison (``engine.fast.run`` next to ``par.run``)
    could not land in one Perfetto view. Wrapping the NTT/BLAS entry
    points in this span fixes that; when no session is active the
    returned :func:`~contextlib.nullcontext` keeps the call sites at one
    global read, same as every other hook here.

    Extra keyword attributes land on the span unchanged — the fast
    engine passes ``mode="r52"``/``"dw"`` so a trace shows which
    arithmetic substrate served each call.
    """
    if current() is None:
        return nullcontext()
    return span(f"engine.{engine}.run", op=op, elements=elements, **attrs)


def record_r52_call(op: str, elements: int) -> None:
    """Count one fast-engine call served by the r52 (52-bit) substrate.

    Sibling of :func:`record_engine_call` under ``engine.fast.r52.*``:
    the pair shows how much fast-engine traffic the redundant-limb path
    actually carried versus the double-word schoolbook path.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter(f"engine.fast.r52.calls.{op}").inc()
    m.counter(f"engine.fast.r52.elements.{op}").inc(elements)


def record_r52_carry_flush(flushes: int) -> None:
    """Count batched carry-propagation passes run by the r52 NTT.

    Incremented once per transform with that transform's flush count
    (one normalize per stage plus the final lazy reduction), so the
    counter divided by ``engine.fast.r52.calls.ntt.*`` exposes the
    carry cadence the deferred-limb design promises.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("engine.fast.r52.carry_flushes").inc(flushes)


def record_fastmod_eviction() -> None:
    """Count one FastModulus evicted from the bounded process-wide cache."""
    session = current()
    if session is None:
        return
    session.metrics.counter("fastmod.evictions").inc()


def record_trace(tracer) -> None:
    """Account one finished traced region into the metrics registry.

    ``tracer`` is duck-typed (anything with a ``summary()`` shaped like
    :meth:`repro.isa.trace.Tracer.summary`) so this module never imports
    the ISA layer.
    """
    session = current()
    if session is None:
        return
    summary = tracer.summary()
    m = session.metrics
    for op, count in summary["op_counts"].items():
        m.counter(f"isa.ops.{op}").inc(count)
    m.counter("isa.instructions").inc(summary["entries"])
    m.counter("isa.loads").inc(summary["loads"])
    m.counter("isa.stores").inc(summary["stores"])
    m.counter("isa.load_bytes").inc(summary["load_bytes"])
    m.counter("isa.store_bytes").inc(summary["store_bytes"])
    m.counter("isa.traced_regions").inc()


def record_schedule(result) -> None:
    """Account one block-scheduling result (port pressure, chains)."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("sched.blocks").inc()
    m.histogram("sched.instructions_per_block").observe(result.instructions)
    m.histogram("sched.uops_per_block").observe(result.uops)
    m.histogram("sched.critical_path_cycles").observe(result.critical_path)
    bound = result.port_bound
    for port, occupancy in result.port_pressure.items():
        m.histogram(f"sched.port.{port}").observe(occupancy)
        if bound > 0:
            m.histogram(f"sched.util.{port}").observe(occupancy / bound)


def record_engine_call(engine: str, op: str, elements: int) -> None:
    """Count one execution-engine entry point call and its element volume.

    ``engine`` is ``"fast"`` (the NumPy-vectorized engine),
    ``"parallel"`` (the sharded process pool of :mod:`repro.par`) or
    ``"faithful"`` (the ISA-simulated backends); ``op`` is a dotted
    operation name (``"ntt.forward"``, ``"blas.vector_mul"``, ...). The
    pair of counters — calls and elements processed — is what lets a
    profile show which engine actually computed the results and at what
    data volume.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter(f"engine.{engine}.calls.{op}").inc()
    m.counter(f"engine.{engine}.elements.{op}").inc(elements)


def record_par_dispatch(shards: int) -> None:
    """Count shards handed to the worker pool for one parallel batch."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.shards.dispatched").inc(shards)


def record_par_shard_done(wall_s: float) -> None:
    """Account one shard completed by a worker (count + wall-clock)."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("par.shards.completed").inc()
    m.histogram("par.shard.wall_s").observe(wall_s)


def record_par_retry() -> None:
    """Count one shard re-enqueued after a worker crash or hang."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.retries").inc()


def record_par_fallback() -> None:
    """Count one shard degraded to in-process execution after retries."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.fallbacks").inc()


def record_par_worker_restart() -> None:
    """Count one replacement worker spawned after a crash or kill."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.workers.restarted").inc()
    flight = session.flight
    if flight is not None:
        flight.note("worker_restart")


def record_par_stale_result(flavor: str = "superseded") -> None:
    """Count one worker message discarded for being stale.

    Two flavors, both incrementing the aggregate ``par.stale_results``
    plus a per-flavor sibling: ``"superseded"`` — the task is still
    pending but the message carries an old generation (it was
    re-enqueued; the straggler lost the race to its own retry) — and
    ``"recovered"`` — the task already completed through another path
    (retry or in-process fallback), so the straggler's late result is
    the double-execution the generation counters exist to make visible.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("par.stale_results").inc()
    m.counter(f"par.stale_results.{flavor}").inc()


def record_par_worker_hung() -> None:
    """Count one worker terminated for exceeding the task timeout.

    Distinct from ``par.workers.restarted`` (which also covers crashes):
    a hang means the policing loop had to SIGTERM a live-but-silent
    worker, which usually points at oversized shards or a blocked
    syscall rather than a fault.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("par.workers.hung").inc()


def record_par_limbo_requeue() -> None:
    """Count one shard re-enqueued by the quiet-timeout safety net.

    These requeues recover shards in dispatch limbo (no worker ever
    advertised them); they are *not* worker failures and do not charge
    the circuit breaker.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("par.limbo.requeued").inc()


def record_arena_lease(reused: bool, nbytes: int) -> None:
    """Count one arena segment lease and the bytes it serves.

    ``reused`` distinguishes free-list recycling (the steady state —
    zero syscalls) from a fresh shm create (cold start or a new size
    class). The reuse ratio is the arena's whole value proposition, so
    both flavors are first-class counters.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("par.arena.leases").inc()
    m.counter("par.arena.leased_bytes").inc(nbytes)
    if reused:
        m.counter("par.arena.reuses").inc()
    else:
        m.counter("par.arena.creates").inc()


def record_arena_high_water(total_bytes: int, segments: int) -> None:
    """Record a new arena high-water mark (bytes held, segment count)."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.gauge("par.arena.high_water_bytes").set(total_bytes)
    m.gauge("par.arena.high_water_segments").set(segments)


def record_arena_drained(segments: int) -> None:
    """Count arena segments destroyed by a pool drain (executor close)."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.arena.drained").inc(segments)


def record_fused_chain(steps: int, shards: int) -> None:
    """Count one fused multi-op chain dispatched to the pool.

    ``steps`` is the chain length (e.g. 5 for NTT→NTT→pointwise→INTT
    composed as a negacyclic product), ``shards`` how many tasks carried
    it. ``par.fused.steps`` minus ``par.fused.chains`` is the number of
    dispatch round trips fusion removed.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("par.fused.chains").inc(shards)
    m.counter("par.fused.steps").inc(steps * shards)


def record_adaptive_shards(shards: int, ceiling: int) -> None:
    """Record one adaptive shard-sizing decision.

    Emitted only when the recorded compute history clamped the shard
    count below the worker-count ceiling (the interesting case: the
    batch was too small to amortize per-shard dispatch overhead).
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("par.adaptive.clamped").inc()
    m.histogram("par.adaptive.shards").observe(shards)
    m.counter("par.adaptive.saved_dispatches").inc(max(0, ceiling - shards))


def record_par_worker_pinned() -> None:
    """Count one pool worker pinned to a dedicated CPU at spawn."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.workers.pinned").inc()


def record_worker_blob(blob, slot: int) -> None:
    """Merge one worker telemetry blob into the parent session.

    Thin hook over :func:`repro.obs.dist.merge_blob` (lazy import keeps
    :mod:`repro.obs.hooks` a dependency leaf): re-anchors the worker's
    spans onto the parent timeline with slot/pid lane tags and rolls its
    counters up under ``par.worker.*`` / ``par.slot.<k>.*``.
    """
    session = current()
    if session is None:
        return
    from repro.obs.dist import merge_blob

    merge_blob(session, blob, slot)


def record_telemetry_stale() -> None:
    """Count one worker telemetry blob discarded as stale.

    Mirrors :func:`record_par_stale_result`: telemetry attached to a
    superseded generation (or to a task the executor no longer tracks)
    must not pollute the merged timeline, but its arrival is metered so a
    retry storm is visible in the blob accounting too.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("par.telemetry.stale").inc()


def record_shard_event(event: str, **fields: object) -> None:
    """Append one shard lifecycle event to the structured event log.

    The executor calls this with the shard's correlation ids (``batch``,
    ``shard``, ``attempt``) at each parent-side transition — dispatched,
    done, retry, fallback, corrupt — producing the JSONL stream that
    joins against worker-side span attributes.
    """
    session = current()
    if session is None:
        return
    session.event(event, **fields)


def record_slot_retry(slot: int) -> None:
    """Attribute one retry to the worker slot whose shard failed."""
    session = current()
    if session is None:
        return
    session.metrics.counter(f"par.slot.{slot}.retries").inc()


def record_integrity_corrupt() -> None:
    """Count one shard whose shm payload failed checksum verification."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.integrity.corrupt").inc()


def record_integrity_audit(shards: int) -> None:
    """Count shards re-verified against the faithful engine (audit mode)."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.integrity.audited").inc(shards)


def record_integrity_divergence() -> None:
    """Count one audited shard whose faithful recomputation diverged."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.integrity.divergent").inc()


def record_shm_reclaimed(segments: int) -> None:
    """Count shm segments defensively unlinked by executor close()."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.shm.reclaimed").inc(segments)


def record_resil_degraded(requested: str, resolved: str, reason: str) -> None:
    """Count one engine degradation (``parallel``→``fast``, or a serve batch).

    Emits the aggregate ``resil.degraded`` counter plus a per-reason
    sibling (``resil.degraded.breaker_open``, ``.pool_start_failed``,
    ``.deadline``, ``.disabled``...), so a
    profile shows both how often and *why* traffic left an engine.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("resil.degraded").inc()
    m.counter(f"resil.degraded.{reason}").inc()


#: Numeric encoding of breaker states for the ``resil.breaker.state_code``
#: gauge (dashboards need a single scrapable level, not three counters).
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


def record_breaker_transition(state: str) -> None:
    """Count one circuit-breaker state transition (by target state).

    Also sets the ``resil.breaker.state_code`` gauge (closed=0,
    half_open=1, open=2) — the live level ``repro top`` renders — and,
    when the breaker *opens*, raises the flight recorder's
    ``breaker_open`` incident trigger.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter(f"resil.breaker.{state}").inc()
    m.gauge("resil.breaker.state_code").set(
        BREAKER_STATE_CODES.get(state, -1)
    )
    flight = session.flight
    if flight is not None:
        flight.note("breaker", state=state)


def record_deadline_expired(shards: int) -> None:
    """Count shards short-circuited in-process by an expired batch deadline."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("resil.deadline.expired").inc()
    m.counter("resil.deadline.shards").inc(shards)


def record_retry_backoff(delay_s: float) -> None:
    """Observe one retry's backoff delay (histogram, seconds)."""
    session = current()
    if session is None:
        return
    session.metrics.histogram("resil.retry.backoff_s").observe(delay_s)


def record_par_pin_unsupported() -> None:
    """Count one pin request skipped because the platform cannot pin.

    Emitted when ``pin_workers=True`` was asked for explicitly but the
    host lacks ``os.sched_setaffinity`` (macOS, some BSDs): the executor
    warns once and runs unpinned instead of raising.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("par.workers.pin_unsupported").inc()


def record_par_interrupted() -> None:
    """Count one batch aborted mid-flight by SIGINT/KeyboardInterrupt.

    The executor quiesces the pool (drains queued tasks, waits for
    in-flight slots, discards late results) before re-raising, so every
    interrupt that is metered here left the arena reclaimable.
    """
    session = current()
    if session is None:
        return
    session.metrics.counter("par.interrupted").inc()


def record_serve_admitted(op: str) -> None:
    """Count one client request admitted past quota + queue-depth checks."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.requests.admitted").inc()
    m.counter(f"serve.admitted.{op}").inc()


def record_serve_shed(reason: str) -> None:
    """Count one request shed by admission control (by reason).

    Every :class:`~repro.errors.ServeOverloadError` the service raises
    passes through here exactly once, so ``serve.shed`` equals the total
    number of rejections and the ``serve.shed.<reason>`` siblings
    (``queue_full``, ``quota``, ``breaker_open``, ``shutting_down``)
    account for every one of them — overload is never silent.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.shed").inc()
    m.counter(f"serve.shed.{reason}").inc()
    flight = session.flight
    if flight is not None:
        flight.note("shed", reason=reason)


def record_serve_completed(op: str, latency_s: float) -> None:
    """Account one request completed successfully (count + end-to-end latency)."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.requests.completed").inc()
    m.histogram("serve.request.latency_s").observe(latency_s)
    m.histogram(f"serve.latency_s.{op}").observe(latency_s)


def record_serve_latency_slices(
    op: str,
    tenant: str,
    total_s: float,
    coalesce_wait_s: float,
    queue_wait_s: float,
    compute_s: float,
) -> None:
    """Decompose one completed request's end-to-end latency into stages.

    The tentpole decomposition (docs/OBSERVABILITY.md): *coalesce wait*
    (enqueue → the batch left the coalescer), *queue wait* (dispatcher
    backlog: batch handoff → compute start), and *compute* (engine
    execution → resolution). Sliced per op and per tenant so a tail
    blowup is attributable — a fat ``serve.queue_wait_s`` p99 means the
    dispatcher is the bottleneck (raise workers/shed earlier), a fat
    ``coalesce_wait_s`` means the window is too wide for the traffic.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.histogram(f"serve.coalesce_wait_s.{op}").observe(coalesce_wait_s)
    m.histogram(f"serve.queue_wait_s.{op}").observe(queue_wait_s)
    m.histogram(f"serve.compute_s.{op}").observe(compute_s)
    m.histogram(f"serve.tenant.{tenant}.latency_s").observe(total_s)


def record_serve_failed(op: str, kind: str) -> None:
    """Count one admitted request that finished with an error.

    ``kind`` distinguishes ``deadline`` (expired before dispatch),
    ``shutdown`` (service closed with the request still queued) and
    ``error`` (the engine raised); together with
    ``serve.requests.completed`` these account for every admitted
    request, which is the invariant the load generator asserts.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.requests.failed").inc()
    m.counter(f"serve.failed.{kind}").inc()
    if kind == "deadline":
        flight = session.flight
        if flight is not None:
            flight.note("deadline_failure", op=op)


def record_serve_batch(op: str, size: int, wait_s: float) -> None:
    """Account one coalesced batch dispatched to an engine.

    ``size`` is how many client requests rode the batch; ``wait_s`` is
    the oldest request's coalesce-queue wait. ``serve.batch.size`` over
    ``serve.batches`` is the realized coalescing factor — the number the
    throughput win depends on.
    """
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.batches").inc()
    m.histogram("serve.batch.size").observe(size)
    m.histogram("serve.coalesce.batch_size").observe(size)
    m.histogram("serve.batch.wait_s").observe(wait_s)
    m.counter(f"serve.batched.{op}").inc(size)


def record_serve_degraded(reason: str) -> None:
    """Count one serve batch degraded off the requested engine."""
    session = current()
    if session is None:
        return
    m = session.metrics
    m.counter("serve.degraded").inc()
    m.counter(f"serve.degraded.{reason}").inc()


def record_serve_queue_depth(depth: int) -> None:
    """Record the coalescer's total queued-request depth (gauge)."""
    session = current()
    if session is None:
        return
    session.metrics.gauge("serve.queue.depth").set(depth)


def record_twiddle_eviction() -> None:
    """Count one TwiddleTable evicted from the bounded process-wide cache."""
    session = current()
    if session is None:
        return
    session.metrics.counter("twiddle.evictions").inc()


def record_cache_access(level: str) -> None:
    """Count one cache-model query served by ``level`` (L1/L2/L3/DRAM)."""
    session = current()
    if session is None:
        return
    session.metrics.counter(f"cache.access.{level}").inc()


def record_cache_traffic(total_bytes: float) -> None:
    """Account the bytes one memory-cycles query moved through the model."""
    session = current()
    if session is None:
        return
    session.metrics.counter("cache.bytes_modeled").inc(total_bytes)


def cache_hit_rates(metrics) -> dict:
    """Fraction of cache-model accesses served at each level.

    Derived view over the ``cache.access.*`` counters: the "hit rate" at
    level X is the share of queries whose working set fit in X (and not
    in any faster level) — the simulation analogue of a hit-ratio PMU
    counter. Returns ``{}`` when no accesses were recorded.
    """
    levels = ("L1", "L2", "L3", "DRAM")
    counts = {}
    for level in levels:
        metric = metrics.get(f"cache.access.{level}")
        counts[level] = metric.value if metric is not None else 0.0
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {level: counts[level] / total for level in levels}

"""Instrumentation hooks called from the library's hot layers.

Every hook starts with an immediate ``is None`` bail when no
observability session is active, so a permanent call site costs one
global read and one call when disabled.

Most metrics are emitted through the three generic emitters —
:func:`count`, :func:`observe` and :func:`set_gauge` — which take a
pattern from :mod:`repro.obs.catalog` plus the values of its ``<label>``
segments, and build the concrete name only after the ``None`` check::

    count("serve.shed.<reason>", reason)
    observe("serve.latency_s.<op>", latency_s, op)

A new metric is a new catalogue entry, not a new hook. The named hooks
below are the ones that do more than name a metric: open a span, feed
the flight recorder, merge a worker blob, or summarise a trace or a
schedule. None of them sits *inside* a per-instruction loop:
:func:`record_trace` fires once per traced region (on ``tracing()``
exit) from :meth:`repro.isa.trace.Tracer.summary`, leaving the ``emit``
path untouched, which is what ``tests/test_obs_overhead.py`` asserts.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.session import current
from repro.obs.spans import span


def _fill(pattern: str, labels: tuple) -> str:
    """``pattern`` with its ``<label>`` segments replaced, in order."""
    for label in labels:
        head, _, tail = pattern.partition("<")
        pattern = f"{head}{label}{tail[tail.index('>') + 1:]}"
    return pattern


def count(pattern: str, *labels: object, amount: float = 1) -> None:
    """Add ``amount`` to the counter a catalogue pattern names."""
    session = current()
    if session is None:
        return
    session.metrics.counter(_fill(pattern, labels)).inc(amount)


def observe(pattern: str, value: float, *labels: object) -> None:
    """Observe ``value`` in the histogram a catalogue pattern names."""
    session = current()
    if session is None:
        return
    session.metrics.histogram(_fill(pattern, labels)).observe(value)


def set_gauge(pattern: str, value: float, *labels: object) -> None:
    """Set the gauge a catalogue pattern names to ``value``."""
    session = current()
    if session is None:
        return
    session.metrics.gauge(_fill(pattern, labels)).set(value)


def engine_run_span(engine: str, op: str, elements: int = 0, **attrs):
    """Count one execution-engine entry point call and open its span.

    Counts ``engine.<engine>.calls.<op>`` and its element volume, and
    opens an ``engine.<engine>.run`` span so an engine-vs-engine
    comparison (``engine.fast.run`` next to ``par.run``) lands in one
    Perfetto view. With no session active the returned
    :func:`~contextlib.nullcontext` keeps the call site at one global
    read. Extra keyword attributes land on the span unchanged: the fast
    engine passes ``mode="gemm"``/``"r52"``/``"dw"`` so a trace shows
    which kernel served each call.
    """
    session = current()
    if session is None:
        return nullcontext()
    metrics = session.metrics
    metrics.counter(f"engine.{engine}.calls.{op}").inc()
    metrics.counter(f"engine.{engine}.elements.{op}").inc(elements)
    return span(f"engine.{engine}.run", op=op, elements=elements, **attrs)


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


def record_par_worker_restart() -> None:
    """Count one replacement worker spawned after a crash or kill."""
    session = current()
    if session is None:
        return
    session.metrics.counter("par.workers.restarted").inc()
    flight = session.flight
    if flight is not None:
        flight.note("worker_restart")


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

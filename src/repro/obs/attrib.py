"""Overhead attribution for parallel-engine batches.

ROADMAP item 1 says the pool runs at 0.88-0.96x the fast engine and that
the telemetry to explain the missing speedup already exists; this module
is the analysis layer that turns one merged cross-process session
(:mod:`repro.obs.dist`: ``par.*`` parent spans, merged ``par.worker.*``
lanes, ``par.slot.*`` rollups, shard lifecycle events) into the paper's
kind of accounting — Table 1 attributes cycles to ADC chains, Figure 7
measures distance to a speed-of-light bound; here every slot-second of a
batch is attributed to a named cause and the batch is measured against
its own ideal-speedup bound.

**The ledger.** A batch of wall time ``W`` on ``S`` worker slots has a
budget of ``W x S`` slot-seconds. Every slot-second is attributed to
exactly one category:

* ``worker.compute`` — time inside the fast-engine kernels proper
  (``par.worker.compute`` spans);
* ``worker.shm`` — mapping shared-memory segments plus checksum
  writes (``par.worker.map_shm`` + ``par.worker.checksum``);
* ``worker.plan`` — plan/twiddle construction on cold worker caches
  (``par.worker.plan``);
* ``worker.overhead`` — the rest of each shard's worker-side envelope
  (spec decode, telemetry capture, queue handshakes);
* ``idle`` — slot-seconds no merged shard accounts for: workers
  waiting on the queue, imbalance tails, crashed attempts whose
  telemetry died with them, and the dispatch/collect windows when the
  coordinator is running Python instead of the pool.

Dividing each bucket by ``S`` expresses it in wall-equivalent seconds,
so the ledger sums to the measured wall time (the ``attrib`` CLI prints
the residual; tests pin it under 5%). Parent-side costs that *overlap*
slot time — dispatch/serialization spans, per-shard queue wait between
the dispatch event and the worker's envelope span, retry backoff, and
in-process fallback execution — are reported alongside as shard-level
diagnostics rather than double-booked into the ledger.

**The bound.** Summing ``par.worker.compute`` across slots estimates the
serial compute the batch really contained; dividing by ``S`` gives the
ideal wall (perfect overlap, zero coordination). Measured speedup
``compute / wall`` vs the ideal bound ``S`` ranks exactly how much of
ROADMAP item 1's "missing 1.2x" each category owes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.dist import slot_numbers
from repro.obs.reader import MetricsView, serve_summary
from repro.obs.session import ObsSession

#: Ledger categories, display order. Values are wall-equivalent seconds.
LEDGER_CATEGORIES = (
    "worker.compute",
    "worker.shm",
    "worker.plan",
    "worker.overhead",
    "idle",
)

#: Ledger-sum tolerance the CLI reports against (fraction of wall).
SUM_TOLERANCE = 0.05


@dataclass
class Attribution:
    """Decomposition of one observed parallel session."""

    wall_s: float
    slots: int
    shards: int
    batches: int
    #: Wall-equivalent seconds per category (sums to ~``wall_s``).
    ledger: Dict[str, float] = field(default_factory=dict)
    #: The same categories in raw slot-seconds (ledger x slots).
    slot_seconds: Dict[str, float] = field(default_factory=dict)
    #: Overlapping/parent-side costs, not part of the exclusive ledger.
    diagnostics: Dict[str, float] = field(default_factory=dict)
    #: Serve-layer accounting (requests, coalesce fill, queue-wait
    #: decomposition); empty when the session saw no serve traffic.
    serve: Dict[str, object] = field(default_factory=dict)
    serial_compute_s: float = 0.0

    @property
    def ideal_wall_s(self) -> float:
        """Speed-of-light wall: total compute spread perfectly over slots."""
        return self.serial_compute_s / self.slots if self.slots else 0.0

    @property
    def measured_speedup(self) -> float:
        """Serial-compute estimate over the measured batch wall."""
        return self.serial_compute_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def ideal_speedup(self) -> float:
        """The bound: with zero overhead the batch would speed up by S."""
        return float(self.slots)

    @property
    def efficiency(self) -> float:
        """Measured speedup as a fraction of the ideal bound."""
        return (
            self.measured_speedup / self.ideal_speedup
            if self.slots
            else 0.0
        )

    @property
    def ledger_sum_s(self) -> float:
        return sum(self.ledger.values())

    @property
    def ledger_residual(self) -> float:
        """Signed relative gap between the ledger sum and the wall."""
        if self.wall_s <= 0:
            return 0.0
        return self.ledger_sum_s / self.wall_s - 1.0


# ---------------------------------------------------------------------------
# Input normalization (live session objects and JSONL exports alike)
# ---------------------------------------------------------------------------


def _span_tuples(spans: Iterable) -> List[Tuple[str, float, float, dict]]:
    """Normalize SpanRecord objects / JSONL dicts to (name, start, dur, attrs)."""
    out = []
    for record in spans:
        if isinstance(record, dict):
            out.append(
                (
                    str(record.get("name", "")),
                    float(record.get("start_s", 0.0)),
                    float(record.get("duration_s", 0.0)),
                    dict(record.get("attrs") or {}),
                )
            )
        else:
            out.append(
                (record.name, record.start_s, record.duration_s, record.attrs)
            )
    return out


# ---------------------------------------------------------------------------
# Attribution proper
# ---------------------------------------------------------------------------


def attribute(
    spans: Iterable,
    metrics,
    events: Optional[Iterable[dict]] = None,
    wall_s: Optional[float] = None,
    slots: Optional[int] = None,
) -> Attribution:
    """Attribute one observed session's slot-time budget to categories.

    ``spans``/``metrics``/``events`` accept the live session objects
    (:class:`~repro.obs.spans.SpanRecord` list, ``MetricsRegistry``) or
    their JSONL-exported dict forms interchangeably. ``wall_s`` defaults
    to the summed duration of the session's ``par.run`` spans; ``slots``
    defaults to the worker slots that reported telemetry.
    """
    span_rows = _span_tuples(spans)
    view = MetricsView(metrics)
    event_rows = [dict(e) for e in (events or [])]

    run_spans = [row for row in span_rows if row[0] == "par.run"]
    if wall_s is None:
        if not run_spans:
            raise ObservabilityError(
                "attribution needs a par.run span (or an explicit wall_s); "
                "was the batch executed under an observability session?"
            )
        wall_s = sum(row[2] for row in run_spans)
    wall_s = float(wall_s)

    slot_ids = slot_numbers(view)
    if slots is None:
        slots = len(slot_ids)
    if slots < 1:
        raise ObservabilityError(
            "attribution needs >= 1 worker slot with merged telemetry "
            "(no par.slot.* rollups found)"
        )

    # --- the exclusive slot-second ledger ------------------------------
    compute = view.stat("par.worker.compute_s", "sum")
    shm = view.stat("par.worker.map_shm_s", "sum") + view.stat(
        "par.worker.checksum_s", "sum"
    )
    plan = view.stat("par.worker.plan_s", "sum")

    busy_total = 0.0
    idle = 0.0
    for slot in slot_ids:
        busy = view.value(f"par.slot.{slot}.busy_s")
        busy_total += busy
        idle += max(0.0, wall_s - busy)
    # Slots the caller knows about but that never reported telemetry
    # (crashed before finishing a single shard) are pure idle time.
    idle += max(0, slots - len(slot_ids)) * wall_s

    overhead = max(0.0, busy_total - compute - shm - plan)
    slot_seconds = {
        "worker.compute": compute,
        "worker.shm": shm,
        "worker.plan": plan,
        "worker.overhead": overhead,
        "idle": idle,
    }
    ledger = {name: value / slots for name, value in slot_seconds.items()}

    # --- overlapping / parent-side diagnostics -------------------------
    dispatch = sum(row[2] for row in span_rows if row[0] == "par.dispatch")
    fallback = sum(row[2] for row in span_rows if row[0] == "par.fallback")
    queue_wait = _queue_wait_s(span_rows, event_rows)
    diagnostics = {
        "dispatch_s": dispatch,
        "queue_wait_s": queue_wait,
        "backoff_s": view.stat("resil.retry.backoff_s", "sum"),
        "fallback_s": fallback,
        "retries": view.value("par.retries"),
        "fallbacks": view.value("par.fallbacks"),
        "stale_blobs": view.value("par.telemetry.stale"),
        "merged_blobs": view.value("par.telemetry.blobs"),
        "arena_leases": view.value("par.arena.leases"),
        "arena_reuses": view.value("par.arena.reuses"),
        "arena_creates": view.value("par.arena.creates"),
        "arena_high_water_bytes": view.value("par.arena.high_water_bytes"),
        "fused_chains": view.value("par.fused.chains"),
        "fused_steps": view.value("par.fused.steps"),
        "saved_dispatches": view.value("par.adaptive.saved_dispatches"),
        "seg_cache_hits": view.value("par.worker.seg_cache.hits"),
        "seg_cache_misses": view.value("par.worker.seg_cache.misses"),
    }

    shards = int(view.value("par.shards.dispatched"))
    if not shards:
        shards = sum(
            1 for row in span_rows if row[0] == "par.worker.shard"
        )
    serve = serve_summary(view)
    return Attribution(
        wall_s=wall_s,
        slots=int(slots),
        shards=shards,
        batches=len(run_spans),
        ledger=ledger,
        slot_seconds=slot_seconds,
        diagnostics=diagnostics,
        serve=serve if serve["admitted"] or serve["shed"] else {},
        serial_compute_s=compute,
    )


def _queue_wait_s(
    span_rows: List[Tuple[str, float, float, dict]],
    event_rows: List[dict],
) -> float:
    """Sum, over worker-executed shard attempts, of dispatch-to-start lag.

    Joins each ``par.worker.shard`` envelope span against the parent's
    ``shard.dispatched`` / ``shard.retry`` event for the same
    (batch, shard, attempt) triple; attempts with no matching event (or
    that never reached a worker) contribute nothing.
    """
    dispatched: Dict[Tuple[object, object, object], float] = {}
    for event in event_rows:
        if event.get("event") not in ("shard.dispatched", "shard.retry"):
            continue
        key = (event.get("batch"), event.get("shard"), event.get("attempt"))
        t_s = float(event.get("t_s", 0.0))
        previous = dispatched.get(key)
        dispatched[key] = t_s if previous is None else min(previous, t_s)
    total = 0.0
    for name, start_s, _, attrs in span_rows:
        if name != "par.worker.shard":
            continue
        key = (attrs.get("batch"), attrs.get("shard"), attrs.get("attempt"))
        if key in dispatched:
            total += max(0.0, start_s - dispatched[key])
    return total


def attribute_session(
    session: ObsSession,
    wall_s: Optional[float] = None,
    slots: Optional[int] = None,
) -> Attribution:
    """Attribute a live (or just-closed) observability session."""
    return attribute(
        session.spans.records,
        session.metrics,
        session.events,
        wall_s=wall_s,
        slots=slots,
    )


def attribute_jsonl(records: Iterable[dict], **kwargs) -> Attribution:
    """Attribute a session re-read from its JSONL export.

    ``records`` is the output of :func:`repro.obs.export.from_jsonl`;
    span/metric/event rows are recognized by their ``kind`` tag.
    """
    spans: List[dict] = []
    metrics: Dict[str, dict] = {}
    events: List[dict] = []
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            spans.append(record)
        elif kind == "metric":
            metrics[str(record.get("name"))] = record
        elif kind == "event":
            events.append(record)
    return attribute(spans, metrics, events, **kwargs)


# ---------------------------------------------------------------------------
# Rendering + machine-readable export
# ---------------------------------------------------------------------------


def format_attribution(report: Attribution) -> str:
    """Render the ledger, diagnostics, and the speedup-vs-bound summary."""
    lines = [
        f"-- overhead attribution (wall {report.wall_s * 1e3:.1f} ms, "
        f"{report.slots} slots, {report.shards} shards, "
        f"{report.batches} batches) --"
    ]
    header = ["category", "wall-eq ms", "slot-s ms", "share %"]
    rows = [header]
    for name in LEDGER_CATEGORIES:
        wall_eq = report.ledger.get(name, 0.0)
        share = wall_eq / report.wall_s * 100 if report.wall_s > 0 else 0.0
        rows.append(
            [
                name,
                f"{wall_eq * 1e3:.2f}",
                f"{report.slot_seconds.get(name, 0.0) * 1e3:.2f}",
                f"{share:.1f}",
            ]
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    lines.append(
        f"ledger sum {report.ledger_sum_s * 1e3:.1f} ms vs wall "
        f"{report.wall_s * 1e3:.1f} ms "
        f"({report.ledger_residual * 100:+.1f}%)"
    )

    d = report.diagnostics
    lines.append("")
    lines.append("-- shard diagnostics (overlap the ledger; not additive) --")
    lines.append(f"dispatch/serialization (parent): {d.get('dispatch_s', 0.0) * 1e3:9.2f} ms")
    lines.append(f"queue wait (sum over shards):    {d.get('queue_wait_s', 0.0) * 1e3:9.2f} ms")
    lines.append(f"retry backoff:                   {d.get('backoff_s', 0.0) * 1e3:9.2f} ms")
    lines.append(f"fallback execution (in-process): {d.get('fallback_s', 0.0) * 1e3:9.2f} ms")
    lines.append(
        f"retries {int(d.get('retries', 0))}  "
        f"fallbacks {int(d.get('fallbacks', 0))}  "
        f"stale blobs {int(d.get('stale_blobs', 0))}  "
        f"merged blobs {int(d.get('merged_blobs', 0))}"
    )
    leases = int(d.get("arena_leases", 0))
    if leases:
        reuses = int(d.get("arena_reuses", 0))
        line = (
            f"arena: {leases} leases ({reuses} reused, "
            f"{int(d.get('arena_creates', 0))} created; "
            f"{reuses / leases * 100:.0f}% hit)"
        )
        high_water = int(d.get("arena_high_water_bytes", 0))
        if high_water:  # only grows during the observed window
            line += f", high water {high_water / 1024:.0f} KiB"
        lines.append(line)
    cache_hits = int(d.get("seg_cache_hits", 0))
    cache_misses = int(d.get("seg_cache_misses", 0))
    if cache_hits or cache_misses:
        total = cache_hits + cache_misses
        lines.append(
            f"worker attach cache: {cache_hits}/{total} hits "
            f"({cache_hits / total * 100:.0f}%)"
        )
    chains = int(d.get("fused_chains", 0))
    if chains:
        lines.append(
            f"fused chains: {chains} shards x "
            f"{d.get('fused_steps', 0) / chains:.1f} steps avg"
        )
    saved = int(d.get("saved_dispatches", 0))
    if saved:
        lines.append(f"adaptive sizing: {saved} dispatches saved")

    if report.serve:
        s = report.serve
        lines.append("")
        lines.append("-- serve front door (coalescer + dispatcher) --")
        lines.append(
            f"requests: {int(s.get('admitted', 0))} admitted, "
            f"{int(s.get('completed', 0))} completed, "
            f"{int(s.get('failed', 0))} failed, "
            f"{int(s.get('shed', 0))} shed, "
            f"{int(s.get('degraded', 0))} degraded"
        )
        lines.append(
            f"coalescing: {int(s.get('batches', 0))} batches, "
            f"fill {float(s.get('coalesce_fill', 0.0)):.1f} req/batch, "
            f"batch wait p99 "
            f"{float(s.get('batch_wait_p99_s', 0.0)) * 1e3:.2f} ms"
        )
        lines.append(
            f"backlog depth (last): {int(s.get('backlog_depth', 0))}  "
            f"end-to-end p99 "
            f"{float(s.get('latency_p99_s', 0.0)) * 1e3:.2f} ms"
        )
        ops = s.get("ops") or {}
        for op in sorted(ops):
            row = ops[op]
            lines.append(
                f"  {op}: coalesce p99 "
                f"{row['coalesce_wait_p99_s'] * 1e3:.2f} ms | queue p99 "
                f"{row['queue_wait_p99_s'] * 1e3:.2f} ms | compute p99 "
                f"{row['compute_p99_s'] * 1e3:.2f} ms | total p99 "
                f"{row['latency_p99_s'] * 1e3:.2f} ms"
            )

    lines.append("")
    lines.append(
        f"speedup: measured {report.measured_speedup:.2f}x vs ideal "
        f"{report.ideal_speedup:.2f}x bound "
        f"(efficiency {report.efficiency * 100:.0f}%)"
    )
    lines.append(
        f"ideal wall (total compute / slots): "
        f"{report.ideal_wall_s * 1e3:.1f} ms; overhead gap "
        f"{(report.wall_s - report.ideal_wall_s) * 1e3:.1f} ms"
    )
    return "\n".join(lines)


def attribution_to_json(report: Attribution) -> Dict[str, object]:
    """Machine-readable form (the ``attrib.json`` CI artifact)."""
    return {
        "format": "repro.obs.attrib/v1",
        "wall_s": report.wall_s,
        "slots": report.slots,
        "shards": report.shards,
        "batches": report.batches,
        "ledger_wall_eq_s": dict(report.ledger),
        "ledger_slot_seconds": dict(report.slot_seconds),
        "ledger_sum_s": report.ledger_sum_s,
        "ledger_residual": report.ledger_residual,
        "diagnostics": dict(report.diagnostics),
        "serve": dict(report.serve),
        "serial_compute_s": report.serial_compute_s,
        "ideal_wall_s": report.ideal_wall_s,
        "measured_speedup": report.measured_speedup,
        "ideal_speedup": report.ideal_speedup,
        "efficiency": report.efficiency,
    }


# ---------------------------------------------------------------------------
# The `python -m repro attrib` driver
# ---------------------------------------------------------------------------


def run_attrib(
    workers: int = 2,
    logn: int = 10,
    batch: int = 8,
    limbs: int = 4,
    rounds: int = 2,
    seed: int = 0,
    json_path: Optional[str] = "attrib.json",
    output_dir: str = ".",
    input_path: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Run (or load) a parallel batch and print its attribution.

    With ``input_path`` the session is re-read from a JSONL export
    (``python -m repro timeline --export jsonl``); otherwise the same
    RNS-mul + batched-NTT workload the timeline harness uses is executed
    on a fresh pool under observation. Returns a process exit code.
    """
    import time

    if input_path is not None:
        from repro.obs.export import from_jsonl

        try:
            records = from_jsonl(Path(input_path).read_text())
            report = attribute_jsonl(records)
        except (OSError, ObservabilityError) as exc:
            emit(f"attrib: {exc}")
            return 2
        emit(f"attribution of {input_path}:")
    else:
        import random

        from repro.kernels import get_backend
        from repro.obs.session import observing
        from repro.obs.timeline import _workload
        from repro.par.api import ParNtt
        from repro.par.executor import ParallelExecutor
        from repro.rns.basis import RnsBasis
        from repro.rns.poly import RnsPolynomialRing

        n = 1 << logn
        rng = random.Random(seed)
        basis = RnsBasis.generate(limbs, 62, 2 * n)
        q = basis.primes[0]
        emit(
            f"attrib: n=2^{logn}, batch={batch}, {limbs} limbs, "
            f"{workers} workers, rounds={rounds}, seed={seed}"
        )
        with ParallelExecutor(workers=workers) as pool:
            ring = RnsPolynomialRing(
                n, basis, get_backend("mqx"), engine="parallel"
            )
            plan = ParNtt(n, q, executor=pool)
            # Warm the pool (fork, plan/twiddle caches) outside timing.
            _workload(ring, plan, rng, n, q, batch, rounds=1)
            with observing() as session:
                started = time.perf_counter()
                _workload(ring, plan, rng, n, q, batch, rounds)
                wall_s = time.perf_counter() - started
            try:
                report = attribute_session(session, wall_s=wall_s)
            except ObservabilityError as exc:
                emit(f"attrib: {exc}")
                return 2

    emit("")
    emit(format_attribution(report))
    if abs(report.ledger_residual) > SUM_TOLERANCE:
        emit(
            f"note: ledger residual {report.ledger_residual * 100:+.1f}% "
            f"exceeds the +/-{SUM_TOLERANCE * 100:.0f}% accounting target"
        )
    if json_path is not None:
        path = Path(output_dir) / json_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(attribution_to_json(report), indent=2) + "\n")
        emit(f"wrote {path}")
    return 0

"""Deterministic load generator + latency benchmark for the serve layer.

Three phases, all seeded and all inside one ``observing()`` session so
the run leaves a single merged trace:

1. **Batched** — drive ``requests`` concurrent client submissions per
   op through a coalescing service (``max_batch``, ``max_wait_s``),
   recording per-request p50/p99 latency and throughput, and verifying
   every response bit-exact against a direct fast-engine reference.
2. **Baseline** — the same traffic one-request-at-a-time (``max_batch=1``,
   sequential closed loop). ``coalesce_gain`` is batched throughput
   over baseline throughput; the CI gate demands >= 3x.
3. **Overload** — an open-loop burst at 2x the measured batched
   capacity against a deliberately small admission queue. Asserts the
   service sheds (typed, metered), that *every* submitted request is
   accounted (completed + failed + shed == submitted — overload is
   never silent), and that the p99 of *admitted* requests stays bounded
   by the queue-depth cap rather than growing with offered load.

Results land in ``BENCH_serve.json`` via the snapshot store (p50/p99 as
``_ms`` keys, so ``python -m repro perfgate`` trend-gates them;
ratios/rates as ungated keys), and the merged trace exports to
``trace_serve.json`` with the usual worker lanes.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arith.primes import find_ntt_prime
from repro.errors import ServeOverloadError
from repro.serve.service import ReproService, ServeConfig

#: Ops the default loadgen mix drives (one transform-ish, one BLAS).
DEFAULT_OPS: Tuple[str, ...] = ("polymul", "blas.vector_mul")

#: Snapshot keys gated by the in-process tail check (p99 <= tail x p50).
GATE_SUFFIXES = ("p50_ms", "p99_ms")


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _payloads(
    op: str, n: int, q: int, count: int, rng: random.Random
) -> List[Tuple[List[int], List[int]]]:
    return [
        (
            [rng.randrange(q) for _ in range(n)],
            [rng.randrange(q) for _ in range(n)],
        )
        for _ in range(count)
    ]


def _reference(op: str, n: int, q: int, payloads) -> List[List[int]]:
    """Direct fast-engine results to verify served responses against."""
    from repro.fast import FastBlasPlan, FastNegacyclic

    if op == "polymul":
        plan = FastNegacyclic(n, q)
        return plan.multiply([p[0] for p in payloads], [p[1] for p in payloads])
    if op.startswith("blas."):
        plan = FastBlasPlan(q)
        method = getattr(plan, op[len("blas."):])
        return method([p[0] for p in payloads], [p[1] for p in payloads])
    raise ValueError(f"loadgen has no reference for op {op!r}")


async def _drive_concurrent(
    service: ReproService, op: str, n: int, q: int, payloads, tenants: int = 1
) -> Tuple[List[object], List[float], float]:
    """Submit all payloads concurrently; returns (results, latencies, wall_s).

    Requests rotate round-robin over ``tenants`` synthetic tenant names
    (``t0``..) so the per-tenant latency histograms and SLO windows see
    a multi-tenant mix instead of one aggregate stream.
    """
    latencies: List[float] = []

    async def one(idx, payload):
        started = time.perf_counter()
        result = await service.submit(
            op, payload, n, q, tenant=f"t{idx % tenants}"
        )
        latencies.append(time.perf_counter() - started)
        return result

    started = time.perf_counter()
    results = await asyncio.gather(
        *(one(i, p) for i, p in enumerate(payloads))
    )
    await service.flush()
    await service.join()
    wall_s = time.perf_counter() - started
    return list(results), latencies, wall_s


async def _drive_sequential(
    service: ReproService, op: str, n: int, q: int, payloads
) -> Tuple[List[object], float]:
    """One-request-at-a-time closed loop (the un-coalesced baseline)."""
    results = []
    started = time.perf_counter()
    for payload in payloads:
        results.append(await service.submit(op, payload, n, q))
    wall_s = time.perf_counter() - started
    return results, wall_s


async def _drive_overload(
    service: ReproService, op: str, n: int, q: int, payloads, rate_rps: float
) -> Dict[str, object]:
    """Open-loop submission at ``rate_rps``; classify every outcome."""
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    outcomes = {"completed": 0, "shed": 0, "failed": 0}

    async def one(payload):
        started = time.perf_counter()
        try:
            await service.submit(op, payload, n, q)
        except ServeOverloadError:
            outcomes["shed"] += 1
        except Exception:
            outcomes["failed"] += 1
        else:
            outcomes["completed"] += 1
            latencies.append(time.perf_counter() - started)

    interval = 1.0 / rate_rps if rate_rps > 0 else 0.0
    tasks = []
    next_at = loop.time()
    for payload in payloads:
        tasks.append(loop.create_task(one(payload)))
        next_at += interval
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
    await asyncio.gather(*tasks)
    await service.flush()
    await service.join()
    return {"outcomes": outcomes, "latencies": latencies}


def run_loadgen(
    ops: Sequence[str] = DEFAULT_OPS,
    logn: int = 8,
    requests: int = 192,
    baseline_requests: int = 48,
    workers: int = 2,
    seed: int = 0,
    engine: str = "parallel",
    max_batch: int = 32,
    max_wait_s: float = 0.005,
    tenants: int = 4,
    slo_p99_ms: Optional[float] = None,
    overload_queue_depth: int = 64,
    overload_factor: float = 2.0,
    overload_duration_s: float = 0.75,
    min_gain: float = 3.0,
    gate_tail: Optional[float] = 50.0,
    snapshot: Optional[str] = None,
    export_formats: Sequence[str] = (),
    output_dir: str = ".",
    emit: Callable[[str], None] = print,
) -> int:
    """Run the full loadgen gauntlet; returns a process exit code."""
    from repro.obs import observing
    from repro.obs.export import to_chrome_trace

    n = 1 << logn
    q = find_ntt_prime(60, 2 * n)
    rng = random.Random(seed)
    failures: List[str] = []
    values: Dict[str, float] = {}

    emit(
        f"loadgen: n=2^{logn}, q={q.bit_length()}-bit, engine={engine}, "
        f"{workers} workers, {requests} reqs/op batched "
        f"(max_batch={max_batch}, max_wait={max_wait_s * 1e3:g}ms), "
        f"{baseline_requests} baseline, seed={seed}"
    )

    with observing() as session:
        asyncio.run(
            _run_phases(
                ops, n, q, rng, requests, baseline_requests, workers, engine,
                max_batch, max_wait_s, tenants, slo_p99_ms,
                overload_queue_depth, overload_factor,
                overload_duration_s, min_gain, gate_tail, values, failures,
                emit,
            )
        )
        if "chrome" in export_formats:
            out = Path(output_dir)
            out.mkdir(parents=True, exist_ok=True)
            trace = to_chrome_trace(session.spans.records, "repro:serve")
            path = out / "trace_serve.json"
            path.write_text(json.dumps(trace, indent=1))
            emit(f"trace: {path} ({len(trace['traceEvents'])} events)")

    if snapshot:
        from repro.obs.snapshot import SnapshotStore

        SnapshotStore(snapshot).record(values, label="loadgen")
        emit(f"snapshot: {snapshot} ({len(values)} keys)")

    for failure in failures:
        emit(f"FAIL: {failure}")
    emit("loadgen: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


async def _run_phases(
    ops, n, q, rng, requests, baseline_requests, workers, engine,
    max_batch, max_wait_s, tenants, slo_p99_ms,
    overload_queue_depth, overload_factor,
    overload_duration_s, min_gain, gate_tail, values, failures, emit,
) -> None:
    from repro.obs.reader import MetricsView
    from repro.obs.session import current
    from repro.par.executor import ParallelExecutor

    metrics = MetricsView(current().metrics)
    executor = (
        ParallelExecutor(workers=workers) if engine == "parallel" else None
    )
    try:
        capacity_rps = 0.0
        for op in ops:
            slug = op.replace(".", "_")
            payloads = _payloads(op, n, q, requests, rng)
            expected = _reference(op, n, q, payloads)

            # Phase 1: batched, with tenant rotation so the per-tenant
            # histograms and (when slo_p99_ms is set) the SLO windows
            # see a realistic multi-tenant mix.
            service = ReproService(
                executor=executor,
                config=ServeConfig(
                    engine=engine,
                    max_batch=max_batch,
                    max_wait_s=max_wait_s,
                    slo_p99_ms=slo_p99_ms,
                ),
            )
            await service.start()
            # Warm plans/pool outside the timed window.
            await service.submit(op, payloads[0], n, q)
            results, latencies, wall_s = await _drive_concurrent(
                service, op, n, q, payloads, tenants=max(1, tenants)
            )
            await service.close()
            if list(map(list, results)) != list(map(list, expected)):
                failures.append(f"{op}: batched responses diverge from reference")
            p50 = _percentile(latencies, 50) * 1e3
            p99 = _percentile(latencies, 99) * 1e3
            rps = len(payloads) / wall_s if wall_s > 0 else 0.0
            capacity_rps = max(capacity_rps, rps)
            batches = max(1, service.stats["batches"])
            emit(
                f"{op}: batched {len(payloads)} reqs in {wall_s * 1e3:7.1f} ms "
                f"({rps:8.1f} rps, {len(payloads) / batches:.1f} reqs/batch) "
                f"p50 {p50:6.2f} ms  p99 {p99:6.2f} ms"
            )
            values[f"serve.{slug}.p50_ms"] = p50
            values[f"serve.{slug}.p99_ms"] = p99
            values[f"serve.{slug}.throughput_rps"] = rps

            # Where the time went: the dispatcher-side decomposition of
            # phase 1 (read now, before the baseline phase re-runs the
            # same op and mixes its samples in).
            queue_wait_p99 = metrics.stat(f"serve.queue_wait_s.{op}", "p99") * 1e3
            service_p99 = metrics.stat(f"serve.compute_s.{op}", "p99") * 1e3
            coalesce_p99 = metrics.stat(f"serve.coalesce_wait_s.{op}", "p99") * 1e3
            values[f"serve.{slug}.queue_wait_p99_ms"] = queue_wait_p99
            values[f"serve.{slug}.service_p99_ms"] = service_p99
            emit(
                f"{op}: decomposition p99 — coalesce {coalesce_p99:6.2f} ms, "
                f"queue wait {queue_wait_p99:6.2f} ms, "
                f"service {service_p99:6.2f} ms"
            )

            if gate_tail is not None and p50 > 0 and p99 > gate_tail * p50:
                failures.append(
                    f"{op}: p99 {p99:.2f} ms > {gate_tail:g}x p50 {p50:.2f} ms"
                )

            # Phase 2: one-request-at-a-time baseline.
            service = ReproService(
                executor=executor,
                config=ServeConfig(engine=engine, max_batch=1, max_wait_s=0.0),
            )
            await service.start()
            await service.submit(op, payloads[0], n, q)  # warm
            base_payloads = payloads[:baseline_requests]
            base_results, base_wall_s = await _drive_sequential(
                service, op, n, q, base_payloads
            )
            await service.close()
            if list(map(list, base_results)) != list(
                map(list, expected[: len(base_payloads)])
            ):
                failures.append(f"{op}: baseline responses diverge from reference")
            base_rps = (
                len(base_payloads) / base_wall_s if base_wall_s > 0 else 0.0
            )
            gain = rps / base_rps if base_rps > 0 else float("inf")
            emit(
                f"{op}: baseline {len(base_payloads)} reqs "
                f"({base_rps:8.1f} rps) -> coalesce gain {gain:5.2f}x"
            )
            values[f"serve.{slug}.baseline_rps"] = base_rps
            values[f"serve.{slug}.coalesce_gain"] = gain
            if gain < min_gain:
                failures.append(
                    f"{op}: coalesce gain {gain:.2f}x < required {min_gain:g}x"
                )

        # Per-tenant tails over the batched mix (rotated tenants only;
        # the baseline and overload phases run under "default").
        tenant_bits = []
        for t in range(max(1, tenants)):
            p99_t = metrics.stat(f"serve.tenant.t{t}.latency_s", "p99") * 1e3
            if p99_t > 0:
                values[f"serve.tenant.t{t}.p99_ms"] = p99_t
                tenant_bits.append(f"t{t} {p99_t:.2f}")
        if tenant_bits:
            emit("tenant p99 ms: " + "  ".join(tenant_bits))

        # Phase 3: overload at overload_factor x measured capacity.
        op = ops[0]
        offered_rps = max(capacity_rps, 1.0) * overload_factor
        total = max(overload_queue_depth * 2, int(offered_rps * overload_duration_s))
        service = ReproService(
            executor=executor,
            config=ServeConfig(
                engine=engine,
                max_batch=max_batch,
                max_wait_s=max_wait_s,
                max_queue_depth=overload_queue_depth,
            ),
        )
        await service.start()
        overload_payloads = _payloads(op, n, q, min(total, 4096), rng)
        report = await _drive_overload(
            service, op, n, q, overload_payloads, offered_rps
        )
        await service.close()
        outcomes = report["outcomes"]
        submitted = service.stats["submitted"]
        accounted = (
            service.stats["completed"]
            + service.stats["failed"]
            + service.stats["shed"]
        )
        unaccounted = submitted - accounted
        shed_fraction = (
            outcomes["shed"] / len(overload_payloads) if overload_payloads else 0.0
        )
        admitted_p99 = _percentile(report["latencies"], 99) * 1e3
        emit(
            f"overload: offered {offered_rps:8.1f} rps "
            f"({overload_factor:g}x capacity, queue cap {overload_queue_depth}) "
            f"-> {outcomes['completed']} ok, {outcomes['shed']} shed, "
            f"{outcomes['failed']} failed; admitted p99 {admitted_p99:6.2f} ms"
        )
        values["serve.overload.offered_rps"] = offered_rps
        values["serve.overload.shed_fraction"] = shed_fraction
        values["serve.overload.admitted_p99_ms"] = admitted_p99
        values["serve.overload.unaccounted"] = float(unaccounted)
        if outcomes["shed"] == 0:
            failures.append(
                "overload: no requests shed at "
                f"{overload_factor:g}x capacity (admission control inert)"
            )
        if unaccounted != 0:
            failures.append(
                f"overload: {unaccounted} requests dropped without being "
                f"accounted (submitted={submitted}, accounted={accounted})"
            )
        if outcomes["failed"]:
            failures.append(
                f"overload: {outcomes['failed']} admitted requests errored"
            )
    finally:
        if executor is not None:
            executor.close()

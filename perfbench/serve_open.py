"""``serve-open``: an open loop of seeded Poisson arrivals into ``ReproService``.

Four tenants send a mix of 40% ``polymul`` (n=1024), 20% ``ntt``
(n=4096) and 40% ``blas.vector_mul`` (n=4096), all over one 60-bit NTT
prime, to ``ReproService(engine="parallel")`` with the default
configuration and a pool of ``nproc`` workers. Phases run back to back,
each drained before the next: a short warm-up, two fixed sub-capacity
rates ``low`` and ``high``, then a fixed saturating rate.

Latency is timed from each request's due time, so a stalled generator
or event loop shows up as latency; how late the generator issued each
request is reported separately. Every response is checked outside the
timed windows.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from perfbench import common, inputs, reference

#: Layers this workload exercises (the others report 0 when traced).
LAYERS = ("serve", "par")

LOW_RPS = 30.0
HIGH_RPS = 55.0
#: Saturating rate: at least twice the parent's capacity (90-115 rps on
#: a 2-core host), measured directly rather than by a rate ladder. The
#: backlog reaches the default admission queue and sheds the excess.
SAT_RPS = 240.0
#: Share of ``--seconds`` each phase's arrivals span, and its rate. The
#: saturating phase gets the most: capacity is the bounded metric, and
#: a short window reads the host's second-to-second speed swings.
PHASE_PLAN = (
    ("warmup", 0.04, LOW_RPS),
    ("low", 0.14, LOW_RPS),
    ("high", 0.20, HIGH_RPS),
    ("saturate", 0.62, SAT_RPS),
)
#: Capacity counts completions from the first shed of the saturating
#: phase until it has drained. The admission queue is full from that
#: shed until the last arrival and still holds a backlog while it
#: drains, so the service is busy throughout the window; the drain
#: (about 1024 requests, as long again as the loaded part) doubles the
#: window at no extra cost. The fill before the first shed is left out:
#: the backlog of pending payloads slows the service as it grows. When
#: nothing is shed the window starts ``SAT_RAMP_S`` into the phase.
SAT_RAMP_S = 0.4
#: The stated latency limit on the ``high``-rate tail (met at this
#: commit on a 2-core host, where that tail reads 60-150 ms).
TAIL_LIMIT_MS = 250.0


@dataclass
class Record:
    late_s: float = 0.0
    latency_s: float = 0.0
    done_at: float = 0.0
    outcome: str = "pending"
    result: Any = None


def phase_counts(seconds: float) -> Dict[str, int]:
    return {
        phase: max(1, round(share * seconds * rate))
        for phase, share, rate in PHASE_PLAN
    }


async def _drive(service, arrivals, operands, q, tracer=None) -> tuple:
    """Issue ``arrivals`` on schedule and wait for all; returns (t0, records)."""
    from repro.errors import ServeOverloadError

    loop = asyncio.get_running_loop()
    records = [Record() for _ in arrivals]

    async def one(i: int, arrival, due: float) -> None:
        rec = records[i]
        rec.late_s = loop.time() - due
        payload = tuple(vec.tolist() for vec in operands[i])
        if tracer is not None:
            key = f"{arrival.phase}:{arrival.index}"
            tracer.owners[id(payload[0])] = key
            started = time.perf_counter()
        try:
            rec.result = await service.submit(
                arrival.op, payload, arrival.n, q, tenant=arrival.tenant
            )
            rec.outcome = "ok"
        except ServeOverloadError:
            rec.outcome = "shed"
        except Exception as exc:  # noqa: BLE001 — every failure is counted
            rec.outcome = f"error:{type(exc).__name__}"
        rec.done_at = loop.time()
        rec.latency_s = rec.done_at - due
        if tracer is not None:
            tracer.owners.pop(id(payload[0]), None)
            tracer.record(
                "serve.request", "serve", started, time.perf_counter(),
                req=key, op=arrival.op, outcome=rec.outcome,
            )

    tasks = []
    t0 = loop.time() + 0.005
    for i, arrival in enumerate(arrivals):
        due = t0 + arrival.offset_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(i, arrival, due)))
    await asyncio.gather(*tasks)
    return t0, records


def _check_phase(seed, phase, arrivals, operands, records, q, pending) -> int:
    """Check a drained phase's responses; returns how many are wrong.

    ``ntt`` and ``blas.vector_mul`` are checked here; ``polymul``
    responses are digested into ``pending``, keyed by the reference task
    computed out of process later.
    """
    wrong = 0
    ntt_check = None
    for arrival, vecs, rec in zip(arrivals, operands, records):
        if rec.outcome != "ok":
            continue
        if arrival.op == "polymul":
            task = ("polymul", seed, arrival.phase, arrival.index, arrival.n, q)
            pending[task] = reference.digest(rec.result)
        elif arrival.op == "ntt":
            if ntt_check is None:
                ntt_check = reference.NttCheck(
                    arrival.n, q, inputs.check_point(seed, phase, q)
                )
            if not ntt_check.ok(vecs[0].tolist(), rec.result):
                wrong += 1
        else:
            x, y = (v.tolist() for v in vecs)
            if reference.vector_mul(x, y, q) != rec.result:
                wrong += 1
        rec.result = None
    return wrong


async def _setup(seed: int, workers: int, q: int):
    """Pool start, service, plans and the first call per op key (timed)."""
    from repro.par.executor import ParallelExecutor
    from repro.serve.service import ReproService, ServeConfig

    arrivals = inputs.setup_arrivals()
    operands = [inputs.serve_operands(seed, a, q) for a in arrivals]
    started = time.perf_counter()
    executor = ParallelExecutor(workers=workers)
    executor.start()
    service = ReproService(
        executor=executor, config=ServeConfig(engine="parallel", workers=workers)
    )
    await service.start()
    _, records = await _drive(service, arrivals, operands, q)
    setup_s = time.perf_counter() - started
    return executor, service, setup_s, arrivals, operands, records


def setup_probe(seed: int, workers: int) -> float:
    """Set-up time in a fresh process (run by ``run.py --setup-probe``)."""
    q = inputs.serve_prime()

    async def go():
        executor, service, setup_s, *_ = await _setup(seed, workers, q)
        await service.close()
        executor.close()
        return setup_s

    return asyncio.run(go())


def run(seed, seconds, workers, tracer=None, session=None, host=None) -> common.Outcome:
    q = inputs.serve_prime()
    return asyncio.run(_run(seed, seconds, workers, q, tracer, session))


async def _run(seed, seconds, workers, q, tracer, session) -> common.Outcome:
    out = common.Outcome()
    executor, service, out.setup_s, s_arr, s_ops, s_recs = await _setup(seed, workers, q)
    counts = phase_counts(seconds)
    pending: Dict[tuple, str] = {}
    phases: Dict[str, dict] = {}
    wrong = attempted = 0
    failures = [r.outcome for r in s_recs if r.outcome != "ok"]
    wrong += _check_phase(seed, "setup", s_arr, s_ops, s_recs, q, pending)
    attempted += len(s_arr)
    if tracer is not None:
        from perfbench import tracing

        tracing.install(tracer, LAYERS)
    try:
        for phase, _, rate in PHASE_PLAN:
            arrivals = inputs.schedule(seed, phase, rate, counts[phase])
            operands = [inputs.serve_operands(seed, a, q) for a in arrivals]
            t0, records = await _drive(
                service, arrivals, operands, q, tracer
            )
            phases[phase] = {
                "t0": t0,
                "last_due": t0 + arrivals[-1].offset_s,
                "records": records,
                "drained_at": max(r.done_at for r in records),
            }
            attempted += len(records)
            for rec in records:
                if rec.outcome == "ok" or (phase == "saturate" and rec.outcome == "shed"):
                    continue
                failures.append(rec.outcome)
            wrong += _check_phase(seed, phase, arrivals, operands, records, q, pending)
        rss_pids = [os.getpid(), *executor.worker_pids()]
        out.detail("rss_mb", common.peak_rss_mb(rss_pids), "MB")
    finally:
        if tracer is not None:
            tracer.restore()
        stats = dict(service.stats)
        par_stats = dict(executor.stats)
        await service.close()
        executor.close()
    digests = reference.reference_digests(list(pending), workers)
    wrong += sum(1 for task, got in pending.items() if digests.get(task) != got)

    out.attempted = attempted
    out.wrong = wrong
    out.failed = len(failures) + wrong
    _metrics(out, phases, stats)
    if tracer is not None:
        _layer_metrics(
            out, tracer, session, phases, stats, par_stats, workers,
            service.config.max_batch,
        )
    return out


def _latencies_ms(records) -> List[float]:
    return [r.latency_s * 1e3 for r in records if r.outcome == "ok"]


def _metrics(out: common.Outcome, phases: Dict[str, dict], stats: Dict[str, int]) -> None:
    for phase in ("low", "high"):
        lat = _latencies_ms(phases[phase]["records"])
        p = common.tail_percentile(len(lat))
        tail = common.tail_stats(lat, p)
        out.detail(f"p50_ms.{phase}", common.percentile(lat, 50), "ms", f"n={len(lat)}")
        note = f"n={len(lat)}, {tail['beyond']} beyond"
        if phase == "high":
            met = tail["value"] <= TAIL_LIMIT_MS
            note += f", limit {TAIL_LIMIT_MS:g} ms {'met' if met else 'MISSED'}"
        out.detail(f"p{p:g}_ms.{phase}", tail["value"], "ms", note)
        out.samples[phase] = {
            "rate_rps": dict((name, r) for name, _, r in PHASE_PLAN)[phase],
            "requests": len(phases[phase]["records"]),
            "completed": len(lat),
            "tail": tail,
            "percentiles_ms": {f"p{q:g}": common.percentile(lat, q) for q in (50, 90, 95, 98, 99)},
        }
    sat = phases["saturate"]
    shed_at = [r.done_at for r in sat["records"] if r.outcome == "shed"]
    window_start = min(shed_at) if shed_at else sat["t0"] + SAT_RAMP_S
    window_end = sat["drained_at"]
    done = [
        r for r in sat["records"]
        if r.outcome == "ok" and r.done_at >= window_start
    ]
    capacity = len(done) / (window_end - window_start)
    loaded = sum(1 for r in done if r.done_at <= sat["last_due"])
    shed = len(shed_at)
    out.detail(
        "capacity_rps", capacity, "1/s",
        f"offered {SAT_RPS:g} rps, {len(done)} completions in "
        f"{window_end - window_start:.2f} s from the first shed to drained "
        f"({loaded} before the last arrival), {shed} shed",
    )
    out.samples["saturate"] = {
        "rate_rps": SAT_RPS,
        "requests": len(sat["records"]),
        "counted_completions": len(done),
        "counted_before_last_arrival": loaded,
        "window_s": window_end - window_start,
        "window_from_s": window_start - sat["t0"],
        "loaded_s": sat["last_due"] - window_start,
        "shed": shed,
    }
    late = [
        r.late_s * 1e3
        for phase in ("low", "high", "saturate")
        for r in phases[phase]["records"]
    ]
    out.detail("gen_late_ms.p99", common.percentile(late, 99), "ms", f"n={len(late)}")
    out.samples["generator_late"] = common.tail_stats(late, 99.0)
    out.samples["service_stats"] = stats
    out.e2e["work_per_s"] = capacity
    out.e2e["rss_mb"] = next(v for n, v, *_ in out.details if n == "rss_mb")


def _pooled(session, prefix: str) -> List[float]:
    """All samples of the per-op histograms ``<prefix>.<op>``, pooled (ms)."""
    values: List[float] = []
    if session is None:
        return values
    for name in session.metrics.names(prefix + "."):
        values.extend(v * 1e3 for v in session.metrics.histogram(name).values)
    return values


def _layer_metrics(out, tracer, session, phases, stats, par_stats, workers, max_batch) -> None:
    from perfbench import layers

    wall = phases["saturate"]["drained_at"] - phases["warmup"]["t0"]
    busy = sum(r.duration_s for r in tracer.session_spans(session, "serve.batch"))
    coalesce = _pooled(session, "serve.coalesce_wait_s")
    queue = _pooled(session, "serve.queue_wait_s")
    batch = session.metrics.histogram("serve.batch.size") if session is not None else None
    mean_batch = batch.mean if batch is not None and batch.count else 0.0
    engine_s: Dict[str, float] = {}
    for span in tracer.spans:
        if span.layer == "par" and "reqs" in span.attrs:
            for req in span.attrs["reqs"]:
                engine_s[req] = span.duration
    self_ms = [
        (span.duration - engine_s[span.attrs["req"]]) * 1e3
        for span in tracer.by_name("serve.request")
        if span.attrs["req"] in engine_s
    ]
    late = [
        r.late_s * 1e3
        for phase in ("low", "high", "saturate")
        for r in phases[phase]["records"]
    ]
    m = out.layer
    m["serve.coalesce_wait_ms.p50"] = common.percentile(coalesce, 50)
    m["serve.coalesce_wait_ms.p99"] = common.percentile(coalesce, 99)
    m["serve.queue_wait_ms.p99"] = common.percentile(queue, 99)
    m["serve.batch_size.mean"] = mean_batch
    m["serve.batch_fill"] = mean_batch / max_batch
    m["serve.dispatcher_busy_frac"] = busy / wall if wall > 0 else 0.0
    m["serve.self_ms.p50"] = common.percentile(self_ms, 50)
    m["serve.shed"] = float(stats["shed"])
    m["serve.failed"] = float(stats["failed"])
    m["serve.degraded"] = float(stats["degraded"])
    m["bench.gen_late_ms.p99"] = common.percentile(late, 99)
    layers.par_metrics(out, tracer, session, par_stats, workers)
    extra = [{
        "layer": "serve",
        "name": "serve.request (self)",
        "calls": len(self_ms),
        "total_ms": sum(s.duration for s in tracer.by_name("serve.request")) * 1e3,
        "self_ms": sum(self_ms),
    }]
    layers.finish(out, tracer, session, "repro: serve-open", extra)

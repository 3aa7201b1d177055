"""Per-layer metrics of a traced pass, computed from the benchmark's spans.

Every per-layer metric ``BENCHMARK.json`` declares is reported on every
workload; a layer a workload bypasses reports 0 (no calls, no time).
"""

from __future__ import annotations

from typing import Dict, List

from perfbench import ceiling, common, tracing

#: Par entry points and the op label their call-latency metric carries.
PAR_CALLS = {
    "par.polymul": "polymul",
    "par.ntt": "ntt",
    "par.vector_mul": "vector_mul",
    "par.axpy": "axpy",
}

#: Fast-layer kernels with a work model: metric label -> span name.
FAST_KERNELS = {
    "ntt": "fast.ntt",
    "pointwise": "fast.pointwise",
    "blas": "fast.blas.vector_add",
}


def layer_of(metric: str) -> str:
    """The layer a per-layer metric belongs to (its first name component)."""
    return "serve" if metric.startswith("bench.gen_late") else metric.split(".")[0]


def fill_bypassed(values: Dict[str, float], exercised) -> None:
    """Report 0 for every declared metric of a layer the workload bypasses."""
    for spec in common.declared_metrics(trace=True):
        name = spec["name"]
        if name not in values and layer_of(name) not in exercised:
            values[name] = 0.0


def _ms(spans) -> List[float]:
    return [s.duration * 1e3 for s in spans]


def par_metrics(out: common.Outcome, tracer, session, par_stats: Dict[str, int], workers: int) -> None:
    kids = tracer.children()
    calls = [s for s in tracer.spans if s.name in PAR_CALLS or s.name.startswith("par.vector_")]
    runs = tracer.by_name("par.executor.run")
    m = out.layer
    for name, label in PAR_CALLS.items():
        m[f"par.call_ms.p50.{label}"] = common.percentile(_ms(tracer.by_name(name)), 50)
    stage, shards = [], []
    for call in calls:
        inner = [c for c in kids.get(call.sid, ()) if c.name == "par.executor.run"]
        stage.append((call.duration - sum(c.duration for c in inner)) * 1e3)
        shards.append(sum(c.attrs["shards"] for c in inner))
    arena_leases = arena_reuses = 0.0
    compute_s = sum(r.duration_s for r in tracer.session_spans(session, "par.worker.compute"))
    if session is not None:
        if "par.arena.leases" in session.metrics:
            arena_leases = session.metrics.counter("par.arena.leases").value
        if "par.arena.reuses" in session.metrics:
            arena_reuses = session.metrics.counter("par.arena.reuses").value
    run_s = sum(r.duration for r in runs)
    m["par.stage_ms.p50"] = common.percentile(stage, 50)
    m["par.run_ms.p50"] = common.percentile(_ms(runs), 50)
    m["par.worker_compute_ms.sum"] = compute_s * 1e3
    m["par.slot_busy_frac"] = compute_s / (run_s * workers) if run_s > 0 else 0.0
    m["par.shards_per_call.mean"] = common.mean(shards)
    m["par.arena_reuse_frac"] = arena_reuses / arena_leases if arena_leases else 0.0
    m["par.retries"] = float(par_stats.get("retries", 0))
    m["par.fallbacks"] = float(par_stats.get("fallbacks", 0))
    m["par.restarts"] = float(par_stats.get("restarts", 0))


def fast_metrics(out: common.Outcome, tracer, host: Dict[str, float], n: int) -> None:
    kids = tracer.children()
    m = out.layer
    polymuls = tracer.by_name("fast.polymul")
    blas = [s for s in tracer.spans if s.name.startswith("fast.blas.")]
    m["fast.polymul_ms.p50"] = common.percentile(_ms(polymuls), 50)
    m["fast.ntt_ms.p50"] = common.percentile(_ms(tracer.by_name("fast.ntt")), 50)
    m["fast.pointwise_ms.p50"] = common.percentile(_ms(tracer.by_name("fast.pointwise")), 50)
    m["fast.blas_ms.p50"] = common.percentile(_ms(blas), 50)
    repack_calls = [
        sum(1 for d in tracer.descendants(p, kids) if d.layer == "repack")
        for p in polymuls
    ]
    m["fast.repack_calls_per_polymul"] = common.mean(repack_calls)
    # Fast-layer time: outermost fast spans (a polymul's inner NTTs are
    # part of it). Repack time: every repack call inside them.
    by_sid = {s.sid: s for s in tracer.spans}
    top = [
        s for s in tracer.spans
        if s.layer == "fast" and (s.parent is None or by_sid[s.parent].layer != "fast")
    ]
    fast_s = sum(s.duration for s in top)
    repack_s = sum(
        d.duration for s in top for d in tracer.descendants(s, kids)
        if d.layer == "repack" and by_sid[d.parent].layer != "repack"
    )
    m["fast.repack_frac"] = repack_s / fast_s if fast_s > 0 else 0.0
    for label, span_name in FAST_KERNELS.items():
        work = ceiling.kernel_work(label, n)
        p50_s = common.percentile([s.duration for s in tracer.by_name(span_name)], 50)
        m[f"fast.{label}.elem_ops"] = work["elem_ops"]
        m[f"fast.{label}.bytes"] = work["bytes"]
        m[f"fast.{label}.sol_frac"] = ceiling.sol_frac(work, host, p50_s) if p50_s else 0.0


def rns_metrics(out: common.Outcome, tracer) -> None:
    kids = tracer.children()
    muls = tracer.by_name("rns.mul")
    m = out.layer
    m["rns.mul_ms.p50"] = common.percentile(_ms(muls), 50)
    m["rns.add_ms.p50"] = common.percentile(_ms(tracer.by_name("rns.add")), 50)
    self_ms = [
        (s.duration - sum(c.duration for c in kids.get(s.sid, ()) if c.layer == "fast")) * 1e3
        for s in muls
    ]
    m["rns.self_ms.p50"] = common.percentile(self_ms, 50)


def host_metrics(out: common.Outcome, host: Dict[str, float]) -> None:
    m = out.layer
    m["host.mul_per_s"] = host["mul_per_s"]
    m["host.add_per_s"] = host["add_per_s"]
    m["host.stream_mul_per_s"] = host["stream_mul_per_s"]
    m["host.copy_bytes_per_s"] = host["copy_bytes_per_s"]
    out.samples["host_ceiling"] = host


def finish(out: common.Outcome, tracer, session, process_name: str, extra_rows=()) -> None:
    """Self-time table and Perfetto trace of the traced pass."""
    out.selftime, out.selftime_text = tracing.self_time_table(tracer, extra_rows)
    out.trace = tracing.export(tracer, session, process_name)

"""``wide-batch``: large pool batches on a 124-bit prime (dw substrate).

A closed loop cycles ``ParNtt.forward``, ``ParBlasPlan.vector_mul`` and
``ParBlasPlan.axpy`` at n=4096, batch 32, list-of-int rows, through a
pool of ``nproc`` workers; every call carries its own operands. Nothing
here can fuse, so time goes to worker compute and to the parent's
int <-> limb staging. The loop measures ``--seconds`` of time inside the
calls; operand generation and checks run between calls, untimed.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from perfbench import common, inputs, reference

#: Layers this workload exercises (the others report 0 when traced).
LAYERS = ("par",)

BATCH = 32


def _check(op, x, y, a, result, q, ntt_check) -> bool:
    if op == "ntt":
        return isinstance(result, list) and len(result) == len(x) and all(
            ntt_check.ok(row, got) for row, got in zip(x, result)
        )
    if op == "vector_mul":
        return result == [reference.vector_mul(u, v, q) for u, v in zip(x, y)]
    return result == [reference.axpy(a, u, v, q) for u, v in zip(x, y)]


def _call(ntt, blas, op, x, y, a):
    if op == "ntt":
        return ntt.forward(x)
    if op == "vector_mul":
        return blas.vector_mul(x, y)
    return blas.axpy(a, x, y)


def _setup(seed, workers, q):
    """Pool start, plans, twiddles and the first call per op (timed)."""
    from repro.par.api import ParBlasPlan, ParNtt
    from repro.par.executor import ParallelExecutor

    calls = [inputs.wide_operands(seed, inputs.SETUP_INDEX + i, q, BATCH) for i in range(3)]
    started = time.perf_counter()
    executor = ParallelExecutor(workers=workers)
    executor.start()
    ntt = ParNtt(inputs.N_LARGE, q, executor=executor)
    blas = ParBlasPlan(q, executor=executor)
    results = [_call(ntt, blas, *call) for call in calls]
    return executor, ntt, blas, time.perf_counter() - started, calls, results


def setup_probe(seed: int, workers: int) -> float:
    executor, *_, setup_s, _, _ = _setup(seed, workers, inputs.wide_prime())
    executor.close()
    return setup_s


def run(seed, seconds, workers, tracer=None, session=None, host=None) -> common.Outcome:
    q = inputs.wide_prime()
    out = common.Outcome()
    executor, ntt, blas, out.setup_s, calls, results = _setup(seed, workers, q)
    ntt_check = reference.NttCheck(inputs.N_LARGE, q, inputs.check_point(seed, "wide-batch", q))
    wrong = sum(
        1 for (op, x, y, a), result in zip(calls, results)
        if not _check(op, x, y, a, result, q, ntt_check)
    )
    if tracer is not None:
        from perfbench import tracing

        tracing.install(tracer, LAYERS)
    call_s: List[float] = []
    op_s: Dict[str, List[float]] = {op: [] for op in inputs.WIDE_OPS}
    failures = 0
    try:
        busy = 0.0
        index = 0
        while busy < seconds or index < len(inputs.WIDE_OPS):
            op, x, y, a = inputs.wide_operands(seed, index, q, BATCH)
            started = time.perf_counter()
            try:
                result = _call(ntt, blas, op, x, y, a)
            except Exception:  # noqa: BLE001 — counted, never fatal
                failures += 1
                result = None
            elapsed = time.perf_counter() - started
            busy += elapsed
            call_s.append(elapsed)
            op_s[op].append(elapsed)
            if result is not None and not _check(op, x, y, a, result, q, ntt_check):
                wrong += 1
            index += 1
        out.detail("rss_mb", common.peak_rss_mb([os.getpid(), *executor.worker_pids()]), "MB")
    finally:
        if tracer is not None:
            tracer.restore()
        par_stats = dict(executor.stats)
        executor.close()

    lat = [s * 1e3 for s in call_s]
    tail = common.tail_stats(lat, common.tail_percentile(len(lat)))
    # rows completed over the time spent in calls (ops in turn): a plain
    # mean, since the host's speed shifts in spells a median would pick one of
    rows_per_s = BATCH * len(call_s) / sum(call_s)
    out.detail("p50_ms", common.percentile(lat, 50), "ms", f"n={len(lat)} calls")
    out.detail(f"p{tail['percentile']:g}_ms", tail["value"], "ms", f"{tail['beyond']} beyond")
    for op, times in op_s.items():
        out.detail(f"p50_ms.{op}", common.percentile([t * 1e3 for t in times], 50), "ms", f"n={len(times)}")
    out.detail("rows_per_s", rows_per_s, "1/s", f"{BATCH} rows of n={inputs.N_LARGE} per call, ops in turn, over time in calls")
    out.samples["calls"] = {"count": len(lat), "tail": tail}
    out.samples["executor_stats"] = par_stats
    out.attempted = len(call_s) + len(calls)
    out.wrong = wrong
    out.failed = failures + wrong
    out.e2e.update(work_per_s=rows_per_s, rss_mb=out.details[0][1])
    if tracer is not None:
        from perfbench import layers

        layers.par_metrics(out, tracer, session, par_stats, workers)
        layers.finish(out, tracer, session, "repro: wide-batch")
    return out

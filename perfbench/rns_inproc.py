"""``rns-inproc``: the FHE-style multiply-accumulate, in process, no pool.

One thread runs a closed loop of ``ring.add(ring.mul(a_i, b_i), c_i)``
on ``RnsPolynomialRing(n=4096, 4 x 60-bit primes, engine="fast")`` with
list-of-int residues; every step carries its own operands. The loop
measures ``--seconds`` of time inside the steps (operand generation and
result digests run between steps, untimed). Every row is checked
afterwards against the Kronecker-substitution reference, computed in
spawned processes.
"""

from __future__ import annotations

import os
import time
from typing import List

from perfbench import common, inputs, reference

#: Layers this workload exercises (the others report 0 when traced).
LAYERS = ("fast", "rns")

ROWS_PER_STEP = 4


def _setup(seed, primes):
    """Ring, per-prime plans and twiddles, and the first step (timed)."""
    from repro.kernels import get_backend
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

    a, b, c = inputs.rns_operands(seed, inputs.SETUP_INDEX, primes)
    started = time.perf_counter()
    ring = RnsPolynomialRing(
        inputs.N_LARGE, RnsBasis(primes), get_backend("avx512"), engine="fast"
    )
    result = ring.add(
        ring.mul(RnsPolynomial(ring, a), RnsPolynomial(ring, b)),
        RnsPolynomial(ring, c),
    )
    return ring, time.perf_counter() - started, result


def setup_probe(seed: int, workers: int) -> float:
    return _setup(seed, inputs.rns_primes())[1]


def run(seed, seconds, workers, tracer=None, session=None, host=None) -> common.Outcome:
    from repro.rns.poly import RnsPolynomial

    primes = inputs.rns_primes()
    out = common.Outcome()
    ring, out.setup_s, first = _setup(seed, primes)
    digests = {("rns", seed, inputs.SETUP_INDEX, tuple(primes)): reference.digest(first.residues)}
    if tracer is not None:
        from perfbench import tracing

        tracing.install(tracer, LAYERS)
    step_s: List[float] = []
    failures = 0
    try:
        busy = 0.0
        step = 0
        while busy < seconds:
            a, b, c = (
                RnsPolynomial(ring, rows)
                for rows in inputs.rns_operands(seed, step, primes)
            )
            started = time.perf_counter()
            try:
                result = ring.add(ring.mul(a, b), c)
            except Exception:  # noqa: BLE001 — counted, never fatal
                failures += 1
                result = None
            elapsed = time.perf_counter() - started
            busy += elapsed
            step_s.append(elapsed)
            if result is not None:
                digests[("rns", seed, step, tuple(primes))] = reference.digest(result.residues)
            step += 1
    finally:
        if tracer is not None:
            tracer.restore()
    out.detail("rss_mb", common.peak_rss_mb([os.getpid()]), "MB")
    expected = reference.reference_digests(list(digests), workers)
    wrong = sum(1 for task, got in digests.items() if expected.get(task) != got)

    lat = [s * 1e3 for s in step_s]
    tail = common.tail_stats(lat, common.tail_percentile(len(lat)))
    # rows completed over the time spent in steps: a plain mean, since
    # the host's speed shifts in spells a per-run median would pick one of
    rows_per_s = ROWS_PER_STEP * len(step_s) / sum(step_s)
    out.detail("p50_ms", common.percentile(lat, 50), "ms", f"n={len(lat)} steps")
    out.detail(f"p{tail['percentile']:g}_ms", tail["value"], "ms", f"{tail['beyond']} beyond")
    out.detail("rows_per_s", rows_per_s, "1/s", f"{ROWS_PER_STEP} rows of n={inputs.N_LARGE} per step, over time in steps")
    out.samples["steps"] = {"count": len(lat), "tail": tail}
    out.attempted = len(step_s) + 1
    out.wrong = wrong
    out.failed = failures + wrong
    out.e2e.update(work_per_s=rows_per_s, rss_mb=out.details[0][1])
    if tracer is not None:
        from perfbench import layers

        layers.fast_metrics(out, tracer, host, inputs.N_LARGE)
        layers.rns_metrics(out, tracer)
        layers.finish(out, tracer, session, "repro: rns-inproc")
    return out

"""The ``python -m repro chaos`` harness: injected faults, exact results.

Runs the parallel batch engine through a gauntlet of deterministic fault
scenarios — worker crashes, hangs past ``task_timeout``, payload
corruption behind a valid checksum, slow stragglers, a tripped circuit
breaker, an instantly-expired batch deadline — and verifies after every
one that the results are **bit-identical** to an independent reference
(the in-process fast engine for transforms and BLAS, the schoolbook
negacyclic product for polynomial multiplies, plus a faithful-engine
spot check), that the breaker recovers, and that no
shared-memory segment leaks. Every scenario derives its fault placement
from the ``--seed``, so a failing run is replayable from its command
line alone.

This is the acceptance harness for :mod:`repro.resil` (see
docs/RESILIENCE.md) and runs as a CI smoke job.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.resil.inject import Fault, FaultPlan
from repro.resil.policy import CircuitBreaker

#: Scenario registry order (reporting only).
SCENARIOS = (
    "ntt.roundtrip",
    "negacyclic.multiply",
    "blas.ops",
    "rns.fused_mul",
    "chain.multiply_add",
    "stale.stragglers",
    "telemetry.merged_trace",
    "breaker.trip_recover",
    "deadline.short_circuit",
    "serve.breaker_live_load",
    "serve.kill_worker",
    "interrupt.during_batch",
)


def _merged_plan(seed: int, slots: int, forced: Dict[int, Fault], **rates) -> FaultPlan:
    """A seeded random plan with deterministic faults forced on top."""
    plan = FaultPlan.random(seed, slots, **rates)
    faults = {index: plan.fault_for(index) for index in plan}
    faults.update(forced)
    return FaultPlan(faults)


def run_chaos(
    workers: int = 2,
    seed: int = 0,
    logn: int = 8,
    batch: int = 8,
    limbs: int = 3,
    crash: float = 0.2,
    hang: float = 0.0,
    corrupt: float = 0.2,
    slow: float = 0.15,
    task_timeout: float = 3.0,
    audit: float = 0.25,
    rounds: int = 2,
    export: str = "none",
    output_dir: str = ".",
    incident_dir: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> int:
    """Run every chaos scenario; returns a process exit code (0 = pass).

    With ``incident_dir`` set, a :class:`~repro.obs.flight.FlightRecorder`
    rides along for the whole gauntlet and the breaker-trip scenarios
    additionally assert that tripping the breaker under live load dumped
    an ``incident-*.json`` whose trace slice reaches back before the
    trigger (the flight recorder's whole point: the lead-up is captured).
    """
    import numpy as np  # noqa: F401  (the engines under test need it)

    from repro.fast.blas import FastBlasPlan
    from repro.fast.ntt import FastNtt
    from repro.kernels import get_backend
    from repro.ntt.reference import negacyclic_schoolbook_polymul
    from repro.ntt.simd import SimdNtt
    from repro.obs import observing
    from repro.obs.reader import MetricsView
    from repro.par import shm
    from repro.par.api import ParBlasPlan, ParNegacyclic, ParNtt
    from repro.par.executor import ParallelExecutor
    from repro.rns.basis import RnsBasis
    from repro.rns.poly import RnsPolynomialRing

    n = 1 << logn
    arena_base = shm.arena_segments()  # other live pools' arenas
    rng = random.Random(seed)
    basis = RnsBasis.generate(limbs, 62, 2 * n)
    q = basis.primes[0]
    scalar = get_backend("scalar")
    results: List[Tuple[str, bool, str]] = []

    def scenario(name: str, fn: Callable[[], None]) -> None:
        started = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # a failed scenario must not stop the rest
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))
        status = "PASS" if results[-1][1] else "FAIL"
        emit(
            f"  [{status}] {name:24s} ({time.perf_counter() - started:5.2f}s)"
            + (f" — {results[-1][2]}" if results[-1][2] else "")
        )

    def expect(condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(message)

    def schoolbook(f_rows: list, g_rows: list) -> list:
        # The pool's products run the same fused chain as the in-process
        # fast engine, so the reference must not: a chain bug would
        # cancel out of the comparison.
        return [
            negacyclic_schoolbook_polymul(f, g, q)
            for f, g in zip(f_rows, g_rows)
        ]

    rates = dict(
        crash=crash, hang=hang, corrupt=corrupt, slow=slow,
        hang_s=task_timeout + 1.0, slow_s=0.05,
    )
    shards_per_call = min(workers, batch)

    emit(
        f"chaos: n=2^{logn}, batch={batch}, {workers} workers, seed={seed}, "
        f"rates crash={crash} hang={hang} corrupt={corrupt} slow={slow}"
    )

    flight = None
    if incident_dir is not None:
        from repro.obs.flight import FlightRecorder

        # cooldown_s=0: the gauntlet trips the breaker in two separate
        # scenarios minutes of real time apart from nothing — each must
        # produce its own dump rather than being rate-limited away.
        flight = FlightRecorder(
            out_dir=incident_dir, cooldown_s=0.0, post_trigger_s=0.2
        )

    with observing() as session:
        metrics = MetricsView(session.metrics)
        if flight is not None:
            flight.attach(session)
        # adaptive=False: scenarios seed fault plans against a known
        # shards-per-call, so shard counts must stay deterministic.
        with ParallelExecutor(
            workers=workers,
            task_timeout=task_timeout,
            audit_fraction=audit,
            audit_seed=seed,
            adaptive=False,
        ) as pool:

            def ntt_roundtrip() -> None:
                plan = ParNtt(n, q, executor=pool)
                reference = FastNtt(n, q, table=plan.plan.table)
                faithful = SimdNtt(n, q, scalar, root=plan.plan.table.root)
                pool.inject(_merged_plan(
                    seed,
                    rounds * 2 * shards_per_call,
                    {0: Fault("crash"), 1: Fault("corrupt"),
                     2: Fault("slow", seconds=0.05)},
                    **rates,
                ))
                for _ in range(rounds):
                    data = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    spectra = plan.forward(data)
                    expect(
                        spectra == reference.forward(data),
                        "forward diverged from the fast engine",
                    )
                    expect(
                        spectra[0] == faithful.forward(data[0]),
                        "forward diverged from the faithful engine",
                    )
                    expect(
                        plan.inverse(spectra) == data,
                        "inverse did not round-trip",
                    )
                pool.inject(None)

            def negacyclic_multiply() -> None:
                plan = ParNegacyclic(n, q, executor=pool)
                pool.inject(_merged_plan(
                    seed + 1,
                    rounds * shards_per_call,
                    {0: Fault("hang", seconds=task_timeout + 1.0)},
                    **rates,
                ))
                for _ in range(rounds):
                    f = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    g = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    expect(
                        plan.multiply(f, g) == schoolbook(f, g),
                        "negacyclic product diverged from the schoolbook",
                    )
                pool.inject(None)

            def blas_ops() -> None:
                plan = ParBlasPlan(q, executor=pool)
                reference = FastBlasPlan(q)
                pool.inject(_merged_plan(
                    seed + 2,
                    rounds * 2 * workers,
                    {0: Fault("corrupt")},
                    **rates,
                ))
                for _ in range(rounds):
                    x = [rng.randrange(q) for _ in range(batch * n)]
                    y = [rng.randrange(q) for _ in range(batch * n)]
                    a = rng.randrange(q)
                    expect(
                        plan.vector_mul(x, y) == reference.vector_mul(x, y),
                        "vector_mul diverged from the fast engine",
                    )
                    expect(
                        plan.axpy(a, x, y) == reference.axpy(a, x, y),
                        "axpy diverged from the fast engine",
                    )
                pool.inject(None)

            def rns_fused_mul() -> None:
                backend = get_backend("mqx")
                ring = RnsPolynomialRing(
                    n, basis, backend, engine="parallel"
                )
                ring_fast = RnsPolynomialRing(
                    n, basis, backend, engine="fast"
                )
                pool.inject(_merged_plan(
                    seed + 3,
                    rounds * limbs,
                    {0: Fault("crash")},
                    **rates,
                ))
                for _ in range(rounds):
                    coeffs_f = [
                        rng.randrange(basis.modulus) for _ in range(n)
                    ]
                    coeffs_g = [
                        rng.randrange(basis.modulus) for _ in range(n)
                    ]
                    product = ring.mul(ring.encode(coeffs_f), ring.encode(coeffs_g))
                    expected = ring_fast.mul(
                        ring_fast.encode(coeffs_f), ring_fast.encode(coeffs_g)
                    )
                    expect(
                        product.residues == expected.residues,
                        "fused RNS product diverged from the fast engine",
                    )
                pool.inject(None)

            def chain_multiply_add() -> None:
                plan = ParNegacyclic(n, q, executor=pool)
                pool.inject(_merged_plan(
                    seed + 4,
                    rounds * shards_per_call,
                    {0: Fault("crash"), 1: Fault("corrupt")},
                    **rates,
                ))
                for _ in range(rounds):
                    f = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    g = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    acc = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    expected = [
                        [(p + c) % q for p, c in zip(prow, crow)]
                        for prow, crow in zip(schoolbook(f, g), acc)
                    ]
                    expect(
                        plan.multiply_add(f, g, acc) == expected,
                        "fused multiply_add diverged from the schoolbook",
                    )
                pool.inject(None)
                expect(
                    metrics.value("par.fused.chains") >= shards_per_call,
                    "fused chain shards were not metered",
                )

            def stale_stragglers() -> None:
                plan = ParNtt(n, q, executor=pool)
                reference = FastNtt(n, q, table=plan.plan.table)
                stale = pool.stats["stale"]
                # Real stragglers: every shard of one batch outlives its
                # deadline and falls back in process while its worker
                # keeps running it. The next batch has to wait for a
                # worker, so it reads a late result, discards and
                # meters it, and stays bit-exact.
                pool.inject(FaultPlan({
                    index: Fault("slow", seconds=0.3)
                    for index in range(shards_per_call)
                }))

                def check(label: str) -> None:
                    data = [
                        [rng.randrange(q) for _ in range(n)]
                        for _ in range(batch)
                    ]
                    expect(
                        plan.forward(data) == reference.forward(data),
                        f"batch {label} diverged",
                    )

                pool.batch_deadline_s = 0.05
                try:
                    check("past its deadline")
                finally:
                    pool.batch_deadline_s = None
                    pool.inject(None)
                check("after the stragglers")
                expect(
                    pool.stats["stale"] > stale,
                    "the stragglers' late results were not counted as stale",
                )
                for name in ("par.stale_results", "par.telemetry.stale"):
                    expect(
                        metrics.value(name) >= 1,
                        f"{name} was not recorded",
                    )

            def telemetry_merged_trace() -> None:
                from repro.obs import dist

                plan = ParNtt(n, q, executor=pool)
                data = [
                    [rng.randrange(q) for _ in range(n)] for _ in range(batch)
                ]
                since = len(session.spans.records)
                plan.forward(data)
                compute = [
                    record
                    for record in session.spans.records[since:]
                    if record.name == "par.worker.compute"
                ]
                expect(bool(compute), "no worker compute spans were merged")
                for record in compute:
                    if record.attrs.get(dist.LANE_PID_KEY) is None:
                        expect(
                            record.attrs.get("side") == "parent",
                            "a parent-side compute span lacks its marker",
                        )
                        continue
                    expect(
                        record.attrs.get("batch") is not None
                        and record.attrs.get("shard") is not None
                        and record.attrs.get("attempt") is not None,
                        "merged worker span lost its correlation ids",
                    )
                lanes = dist.worker_lane_pids(session.spans.records)
                expect(
                    len(lanes) >= 1, "no worker lanes in the merged spans"
                )
                expect(
                    metrics.value("par.telemetry.blobs") >= 1,
                    "no worker telemetry blobs were merged",
                )

            scenario("ntt.roundtrip", ntt_roundtrip)
            scenario("negacyclic.multiply", negacyclic_multiply)
            scenario("blas.ops", blas_ops)
            scenario("rns.fused_mul", rns_fused_mul)
            scenario("chain.multiply_add", chain_multiply_add)
            scenario("stale.stragglers", stale_stragglers)
            scenario("telemetry.merged_trace", telemetry_merged_trace)

        def breaker_trip_recover() -> None:
            from repro.obs.hooks import record_breaker_transition

            breaker = CircuitBreaker(
                failure_threshold=2,
                cooldown_s=0.5,
                on_transition=record_breaker_transition,
            )
            with ParallelExecutor(
                workers=workers,
                task_timeout=task_timeout,
                retries=0,
                breaker=breaker,
                adaptive=False,
            ) as pool2:
                plan = ParNtt(n, q, executor=pool2)
                reference = FastNtt(n, q, table=plan.plan.table)
                data = [
                    [rng.randrange(q) for _ in range(n)] for _ in range(batch)
                ]
                # Every shard of the first batch crashes; with no retry
                # budget each one falls back in-process and counts a
                # consecutive failure, tripping the breaker.
                pool2.inject(FaultPlan({
                    index: Fault("crash", sticky=True)
                    for index in range(shards_per_call)
                }))
                expect(
                    plan.forward(data) == reference.forward(data),
                    "crashing batch diverged",
                )
                pool2.inject(None)
                expect(
                    breaker.state == "open",
                    f"breaker should be open, is {breaker.state!r}",
                )
                # Open breaker: the next batch routes around the pool
                # (in-process fast engine), still bit-exact.
                expect(
                    plan.forward(data) == reference.forward(data),
                    "degraded batch diverged",
                )
                expect(
                    metrics.value("resil.degraded.breaker_open") >= 1,
                    "open breaker did not record a degradation",
                )
                time.sleep(breaker.cooldown_s + 0.05)
                expect(
                    breaker.state == "half_open",
                    f"cooldown elapsed but breaker is {breaker.state!r}",
                )
                # Half-open: the next batch is the probe; it runs clean,
                # closing the breaker.
                expect(
                    plan.forward(data) == reference.forward(data),
                    "probe batch diverged",
                )
                expect(
                    breaker.state == "closed",
                    f"probe succeeded but breaker is {breaker.state!r}",
                )

        def deadline_short_circuit() -> None:
            with ParallelExecutor(
                workers=workers,
                task_timeout=task_timeout,
                batch_deadline_s=1e-9,
                adaptive=False,
            ) as pool3:
                plan = ParNtt(n, q, executor=pool3)
                reference = FastNtt(n, q, table=plan.plan.table)
                data = [
                    [rng.randrange(q) for _ in range(n)] for _ in range(batch)
                ]
                # The budget is already spent when the event loop first
                # checks it: every shard short-circuits to in-process
                # execution instead of waiting on the pool.
                expect(
                    plan.forward(data) == reference.forward(data),
                    "deadline-expired batch diverged",
                )
                expect(
                    metrics.value("resil.deadline.expired") >= 1,
                    "expired deadline was not recorded",
                )

        def serve_breaker_live_load() -> None:
            import asyncio

            from repro.obs.hooks import record_breaker_transition
            from repro.serve import ReproService, ServeConfig

            incidents_before = len(flight.incidents) if flight is not None else 0
            transitions: list = []

            def on_transition(state: str) -> None:
                transitions.append(state)
                record_breaker_transition(state)

            breaker = CircuitBreaker(
                failure_threshold=2,
                cooldown_s=0.4,
                on_transition=on_transition,
            )
            def make_pairs(count: int) -> list:
                return [
                    (
                        [rng.randrange(q) for _ in range(n)],
                        [rng.randrange(q) for _ in range(n)],
                    )
                    for _ in range(count)
                ]

            async def drive(pool4) -> None:
                service = ReproService(
                    executor=pool4,
                    config=ServeConfig(
                        engine="parallel",
                        max_batch=4,
                        max_wait_s=0.002,
                        breaker_mode="degrade",
                    ),
                )
                await service.start()
                try:
                    # Wave 1: every shard crashes sticky; the breaker
                    # trips mid-load while requests are still in flight.
                    pool4.inject(FaultPlan({
                        index: Fault("crash", sticky=True)
                        for index in range(64)
                    }))
                    pairs = make_pairs(12)
                    got = await asyncio.gather(*(
                        service.submit("polymul", pair, n, q)
                        for pair in pairs
                    ))
                    pool4.inject(None)
                    expect(
                        got == schoolbook(*zip(*pairs)),
                        "responses diverged while the breaker tripped",
                    )
                    # Read the trip from the transitions wave 1 caused:
                    # on a slow host the wave can outlast the cooldown,
                    # so the state may already read half_open here.
                    expect(
                        "open" in transitions,
                        f"breaker never opened during the crash wave "
                        f"(transitions {transitions})",
                    )
                    # Wave 2: open breaker — the service degrades every
                    # batch to the in-process fast engine, still exact.
                    pairs = make_pairs(8)
                    got = await asyncio.gather(*(
                        service.submit("polymul", pair, n, q)
                        for pair in pairs
                    ))
                    expect(
                        got == schoolbook(*zip(*pairs)),
                        "degraded responses diverged",
                    )
                    # Wave 3: after cooldown the next batch is the
                    # half-open probe; it runs clean and closes the
                    # breaker.
                    await asyncio.sleep(breaker.cooldown_s + 0.05)
                    pairs = make_pairs(8)
                    got = await asyncio.gather(*(
                        service.submit("polymul", pair, n, q)
                        for pair in pairs
                    ))
                    expect(
                        got == schoolbook(*zip(*pairs)),
                        "post-recovery responses diverged",
                    )
                finally:
                    await service.close()
                expect(
                    service.stats["completed"] == service.stats["submitted"],
                    "serve accounting lost a request",
                )

            with ParallelExecutor(
                workers=workers,
                task_timeout=task_timeout,
                retries=0,
                breaker=breaker,
                adaptive=False,
            ) as pool4:
                asyncio.run(drive(pool4))
            expect(
                breaker.state == "closed",
                f"probe succeeded but breaker is {breaker.state!r}",
            )
            expect(
                metrics.value("serve.degraded.breaker_open") >= 1,
                "open-breaker degradation was not metered by serve",
            )
            if flight is not None:
                # The breaker opening mid-load must have dumped an
                # incident whose trace slice starts before the trigger.
                import json as json_mod

                flight.flush()
                fresh = flight.incidents[incidents_before:]
                expect(
                    bool(fresh),
                    "breaker tripped under live load but no incident "
                    "was dumped",
                )
                dump = None
                for path in fresh:
                    candidate = json_mod.loads(path.read_text())
                    trig = candidate.get("trigger", {})
                    rules = [trig.get("rule")] + [
                        extra.get("rule")
                        for extra in trig.get("also", [])
                    ]
                    if "breaker_open" in rules:
                        dump = candidate
                        break
                expect(
                    dump is not None,
                    "no fresh incident carries the breaker_open trigger",
                )
                expect(
                    dump.get("captured", {}).get("pre_trigger_spans", 0) >= 1,
                    "incident trace slice holds no pre-trigger spans",
                )
                expect(
                    bool(dump.get("trace", {}).get("traceEvents")),
                    "incident dump has an empty Perfetto trace slice",
                )

        def serve_kill_worker() -> None:
            import asyncio
            import os
            import signal

            from repro.serve import ReproService, ServeConfig

            async def drive(pool5) -> None:
                service = ReproService(
                    executor=pool5,
                    config=ServeConfig(
                        engine="parallel",
                        max_batch=4,
                        max_wait_s=0.002,
                    ),
                )
                await service.start()
                try:
                    pairs = [
                        (
                            [rng.randrange(q) for _ in range(n)],
                            [rng.randrange(q) for _ in range(n)],
                        )
                        for _ in range(32)
                    ]
                    tasks = [
                        asyncio.ensure_future(
                            service.submit("polymul", pair, n, q)
                        )
                        for pair in pairs
                    ]
                    # Let the first batches reach the pool, then kill a
                    # live worker outright mid-load.
                    await asyncio.sleep(0.01)
                    victims = pool5.worker_pids()
                    expect(bool(victims), "pool reported no worker pids")
                    os.kill(victims[0], signal.SIGKILL)
                    got = await asyncio.gather(*tasks)
                    expect(
                        got == schoolbook(*zip(*pairs)),
                        "a killed worker corrupted a response",
                    )
                finally:
                    await service.close()
                expect(
                    service.stats["completed"] == service.stats["submitted"],
                    "serve accounting lost a request",
                )

            with ParallelExecutor(
                workers=workers,
                task_timeout=task_timeout,
                adaptive=False,
            ) as pool5:
                asyncio.run(drive(pool5))
                expect(
                    pool5.stats["restarts"] >= 1,
                    "killed worker was never restarted",
                )

        def interrupt_during_batch() -> None:
            import signal as signal_mod

            with ParallelExecutor(
                workers=workers,
                task_timeout=task_timeout,
                adaptive=False,
            ) as pool6:
                plan = ParNtt(n, q, executor=pool6)
                reference = FastNtt(n, q, table=plan.plan.table)
                data = [
                    [rng.randrange(q) for _ in range(n)] for _ in range(batch)
                ]
                # Slow every shard so the batch outlives the alarm; the
                # interrupt lands while the event loop is polling.
                pool6.inject(FaultPlan({
                    index: Fault("slow", seconds=0.5)
                    for index in range(shards_per_call)
                }))

                def on_alarm(signum, frame):  # noqa: ARG001
                    raise KeyboardInterrupt

                previous = signal_mod.signal(signal_mod.SIGALRM, on_alarm)
                interrupted = False
                try:
                    signal_mod.setitimer(signal_mod.ITIMER_REAL, 0.1)
                    try:
                        plan.forward(data)
                    except KeyboardInterrupt:
                        interrupted = True
                finally:
                    signal_mod.setitimer(signal_mod.ITIMER_REAL, 0.0)
                    signal_mod.signal(signal_mod.SIGALRM, previous)
                pool6.inject(None)
                expect(interrupted, "the interrupt never reached the batch")
                expect(
                    pool6.stats["interrupted"] >= 1,
                    "the interrupt was not metered",
                )
                # The pool must still be serviceable after the abort:
                # a fresh batch runs clean and bit-exact.
                expect(
                    plan.forward(data) == reference.forward(data),
                    "post-interrupt batch diverged",
                )
            expect(
                metrics.value("par.interrupted") >= 1,
                "par.interrupted was not recorded",
            )

        scenario("breaker.trip_recover", breaker_trip_recover)
        scenario("deadline.short_circuit", deadline_short_circuit)
        scenario("serve.breaker_live_load", serve_breaker_live_load)
        scenario("serve.kill_worker", serve_kill_worker)
        scenario("interrupt.during_batch", interrupt_during_batch)

        emit("")
        for name in (
            "par.shards.dispatched",
            "par.shards.completed",
            "par.retries",
            "par.fallbacks",
            "par.workers.restarted",
            "par.workers.hung",
            "par.stale_results",
            "par.arena.leases",
            "par.arena.reuses",
            "par.fused.chains",
            "par.fused.steps",
            "par.integrity.corrupt",
            "par.integrity.audited",
            "par.interrupted",
            "resil.degraded",
            "resil.breaker.open",
            "resil.breaker.closed",
            "resil.deadline.expired",
            "serve.requests.admitted",
            "serve.requests.completed",
            "serve.batches",
            "serve.degraded",
        ):
            emit(f"  {name}: {metrics.value(name):g}")

        if flight is not None:
            flight.flush()  # finalize any trigger still in its aftermath
            flight.detach()
            emit("")
            emit(
                f"  incidents: {len(flight.incidents)} dumped to "
                f"{incident_dir}/"
            )
            for path in flight.incidents:
                emit(f"    {path}")

    formats = [] if export == "none" else export.split("+")
    if formats:
        # A gauntlet failure ships with a timeline: the merged trace
        # shows every retry, fallback, and worker lane of the run.
        import json
        from pathlib import Path

        from repro.obs.export import (
            to_chrome_trace,
            to_jsonl,
            validate_chrome_trace,
        )

        try:
            out = Path(output_dir)
            out.mkdir(parents=True, exist_ok=True)
            if "chrome" in formats:
                trace = to_chrome_trace(session.spans.records, "repro:chaos")
                validate_chrome_trace(trace)
                path = out / "trace_chaos.json"
                path.write_text(json.dumps(trace, indent=1))
                emit(f"  wrote {path}")
            if "jsonl" in formats:
                path = out / "obs_chaos.jsonl"
                path.write_text(
                    to_jsonl(
                        session.spans.records,
                        session.metrics.snapshot(),
                        session.events,
                    )
                )
                emit(f"  wrote {path}")
        except Exception as exc:
            results.append(
                ("trace.export", False, f"{type(exc).__name__}: {exc}")
            )
        else:
            results.append(("trace.export", True, ""))

    leaked = shm.created_segments()
    if leaked:
        results.append(("shm.no_leaks", False, f"{leaked} segments leaked"))
        emit(f"  [FAIL] shm.no_leaks — {leaked} segments leaked")
    else:
        results.append(("shm.no_leaks", True, ""))
    held = shm.arena_segments() - arena_base
    if held:
        results.append(
            ("shm.arena_reclaimed", False, f"{held} arena segments held")
        )
        emit(f"  [FAIL] shm.arena_reclaimed — {held} arena segments held")
    else:
        results.append(("shm.arena_reclaimed", True, ""))

    passed = sum(1 for _, ok, _ in results if ok)
    emit("")
    emit(f"chaos: {passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1
